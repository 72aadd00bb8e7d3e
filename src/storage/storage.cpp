// Anchor translation unit for the header-only storage library; also hosts
// out-of-line definitions if storage ever grows non-template code.
#include "storage/pending_updates.h"
#include "storage/position_list.h"
#include "storage/types.h"

namespace holix {
// Explicit instantiations keep common template code out of every TU.
template class PendingUpdates<int32_t>;
template class PendingUpdates<int64_t>;
}  // namespace holix

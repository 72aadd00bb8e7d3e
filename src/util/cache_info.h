/// \file cache_info.h
/// \brief L1 data-cache size discovery.
///
/// Holistic indexing declares an adaptive index *optimal* once the average
/// piece of its cracker column fits in L1 (Equation 1 in the paper). The
/// size is read from sysfs on Linux and falls back to 32 KiB.

#pragma once

#include <cstddef>

namespace holix {

/// Returns the L1 data cache size in bytes (cached after the first call).
size_t L1DataCacheBytes();

/// Returns the number of elements of \p element_size bytes that fit in L1.
inline size_t L1Elements(size_t element_size) {
  return L1DataCacheBytes() / element_size;
}

/// Overrides the detected L1 size (0 restores detection). Used by tests and
/// by benchmarks that scale data down but want to keep the paper's
/// piece-count ratios.
void OverrideL1DataCacheBytes(size_t bytes);

}  // namespace holix

/// \file durability.h
/// \brief The contract between the engine and the durability subsystem
/// (`src/persist/`): type-erased state transfer structs plus the hook the
/// update path calls to log pending-update records.
///
/// The engine side (Database) owns all registry/typed knowledge — it
/// exports and restores state through these structs; the persist side owns
/// serialization, file I/O, and crash-recovery orchestration. Keys cross
/// the boundary as `KeyTraits<T>::ToRank` u64 images: order-preserving,
/// canonical-NaN, and lossless in both directions, so double columns with
/// NaN / -0.0 / ±inf round-trip exactly.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/types.h"

namespace holix {

/// Operation tag of one write-ahead-log record. The records are exactly
/// the `PendingUpdates` queue entries: an insert or delete of one typed
/// key in one column.
enum class WalOp : uint8_t {
  kInsert = 1,
  kDelete = 2,
};

/// Checkpointed state of one column: base data, the net effect of every
/// merged update (appended rows minus deleted base rows), the cracker's
/// piece boundaries (pivots), its life counters, and its holistic-store
/// membership. All keys are rank images.
struct DurableColumnState {
  std::string table;
  std::string column;
  ValueType type = ValueType::kInt64;

  /// Base column values in row order (rowids 0..N-1), as ranks.
  std::vector<uint64_t> base_ranks;
  /// Rows appended by inserts: (rowid, rank), sorted by rowid.
  std::vector<std::pair<RowId, uint64_t>> appended;
  /// Base rows removed by deletes: (rowid, rank), sorted by rowid.
  std::vector<std::pair<RowId, uint64_t>> deleted_base;

  /// Cracker piece boundaries (pivot ranks, in-order). Positions are not
  /// stored: a boundary's position is the number of column values below
  /// its pivot, which recovery reproduces exactly when it partitions the
  /// restored multiset at the pivots.
  bool has_cracker = false;
  std::vector<uint64_t> pivot_ranks;

  /// CrackStats life counters, in declaration order: accesses, exact
  /// hits, query cracks, worker cracks, worker skips, merged inserts,
  /// merged deletes.
  uint64_t stats[7] = {0, 0, 0, 0, 0, 0, 0};

  /// Holistic stats-store membership (engine StoreState ordinal;
  /// 0 = unregistered). Restored only when the database runs kHolistic.
  uint8_t store_state = 0;
};

/// Checkpointed table shape. Restore checks every listed column against
/// its image: each must exist and hold exactly base_rows rows.
struct DurableTableState {
  std::string name;
  uint64_t base_rows = 0;
  std::vector<std::string> columns;  // in column-name order
};

/// Everything a checkpoint captures and a recovery restores.
struct DurableDatabaseState {
  /// LSN of the last update included in this state; WAL records at or
  /// below it are skipped on replay.
  uint64_t last_lsn = 0;
  /// Row-id allocator floor (next rowid to hand out).
  uint64_t next_rowid = 0;
  std::vector<DurableTableState> tables;
  std::vector<DurableColumnState> columns;
};

/// Interface the engine's update path calls after applying an update.
/// Implemented by persist::PersistenceManager; a Database without a hook
/// is simply non-durable (the status quo).
class DurabilityHook {
 public:
  virtual ~DurabilityHook() = default;

  /// Logs one applied update and makes it durable per the configured
  /// fsync policy before returning. \p rank is the applied key's
  /// `KeyTraits<T>::ToRank` image; \p rid the resolved rowid.
  /// \return the record's LSN.
  virtual uint64_t LogUpdate(WalOp op, const std::string& table,
                             const std::string& column, ValueType type,
                             uint64_t rank, RowId rid) = 0;

  /// Takes a sharp checkpoint (snapshot + manifest + WAL rotation).
  /// \return the checkpoint LSN.
  virtual uint64_t Checkpoint() = 0;
};

}  // namespace holix

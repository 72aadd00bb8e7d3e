/// \file persistence.h
/// \brief PersistenceManager: attaches durability to a Database — WAL
/// logging of every update, sharp checkpoints, crash recovery with index
/// warm-start, and the background fsync/checkpoint thread.
///
/// ## Lifecycle
///
///   Database db(opts);                      // empty
///   persist::PersistOptions p{.data_dir = dir};
///   if (persist::HasManifest(dir)) {
///     persist::PersistenceManager pm(db, p);   // recovers into db
///   } else {
///     LoadUniformTable(db, ...);               // or any other load
///     persist::PersistenceManager pm(db, p);
///     pm.Checkpoint();                         // make the load durable
///   }
///
/// Recovery order (the RecoveryManager role), with the stage each step
/// reports to `holix_recovery_stage_seconds{stage="..."}`:
///  1. snapshot_read: read the manifest and every column file, one CRC
///     pass per file;
///  2. begin_restore: restore base columns and queue the pending
///     registries;
///  3. wal_replay: replay WAL epochs ≥ the manifest's (records ≤ the
///     checkpoint LSN skipped, torn tails cut) into the queues;
///  4. restore_pieces: rebuild each cracker in its saved pieces with one
///     multi-way partition of the base image plus the queued updates
///     (O(N log P), on up to total_cores threads; bit-identical piece
///     boundaries, since a boundary's position is a pure function of the
///     column multiset) and restore its stats;
///  5. check_invariants: verify every piece holds only its value range;
///  6. register: restore holistic store membership.
///
/// Destroy the manager before the Database; the destructor detaches the
/// hook and flushes the WAL.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/durability.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace holix {
class Database;
}  // namespace holix

namespace holix::persist {

struct PersistOptions {
  std::string data_dir;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// kInterval: seconds between background WAL fsyncs.
  double fsync_interval_seconds = 0.05;
  /// > 0: seconds between automatic background checkpoints.
  double checkpoint_interval_seconds = 0;
};

class PersistenceManager : public DurabilityHook {
 public:
  /// Attaches durability to \p db. When \p opts.data_dir holds a
  /// manifest, recovers into \p db (which must be empty); otherwise the
  /// directory is created and the caller is expected to Checkpoint()
  /// once loading is done. Throws std::runtime_error on I/O failure or
  /// corruption.
  PersistenceManager(Database& db, PersistOptions opts);
  ~PersistenceManager() override;

  PersistenceManager(const PersistenceManager&) = delete;
  PersistenceManager& operator=(const PersistenceManager&) = delete;

  // DurabilityHook:
  uint64_t LogUpdate(WalOp op, const std::string& table,
                     const std::string& column, ValueType type, uint64_t rank,
                     RowId rid) override;
  uint64_t Checkpoint() override;

  /// True when the constructor restored state from disk.
  bool recovered() const { return recovered_; }
  /// LSN of the last completed checkpoint (0 before the first one).
  uint64_t last_checkpoint_lsn() const {
    return last_checkpoint_lsn_.load(std::memory_order_relaxed);
  }
  /// LSN of the last update replayed during recovery (0 when none).
  uint64_t recovered_lsn() const { return recovered_lsn_; }

  const PersistOptions& options() const { return opts_; }

 private:
  void Recover();
  void BackgroundLoop();

  Database& db_;
  const PersistOptions opts_;
  bool recovered_ = false;
  uint64_t recovered_lsn_ = 0;
  std::atomic<uint64_t> last_checkpoint_lsn_{0};

  std::mutex checkpoint_mu_;  // serializes concurrent Checkpoint() calls
  uint64_t snapshot_epoch_ = 0;
  uint64_t wal_epoch_ = 0;
  std::unique_ptr<WalWriter> wal_;

  std::thread background_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool stop_ = false;
};

}  // namespace holix::persist

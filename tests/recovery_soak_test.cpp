/// \file recovery_soak_test.cpp
/// \brief Crash-recovery soak: a forked child runs a durable update +
/// query stream and is SIGKILLed mid-flight; the parent recovers from the
/// same data directory and checks the recovered state against the
/// acknowledgement oracle — every acknowledged insert present exactly
/// once, nothing duplicated, base data checksum-equal to an uninterrupted
/// load, cracker invariants intact. Repeats for several kill/recover
/// cycles so recovery itself re-enters the crash loop.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "persist/persistence.h"
#include "test_support.h"

namespace holix::persist {
namespace {

using test::CountOf;

constexpr size_t kRows = 50000;
constexpr int64_t kDomain = 1 << 20;
constexpr uint64_t kSeed = 97;

DatabaseOptions SoakOptions() {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  opts.user_threads = 2;
  opts.total_cores = 4;
  return opts;
}

PersistOptions SoakPersist(const std::string& dir) {
  PersistOptions p;
  p.data_dir = dir;
  // kAlways: an acknowledged update is durable — the property under test.
  p.fsync = FsyncPolicy::kAlways;
  return p;
}

/// Durably records the highest acknowledged insert index: 8 bytes,
/// pwrite + fsync, so the parent can reconstruct the oracle after SIGKILL.
class AckFile {
 public:
  explicit AckFile(const std::string& path)
      : fd_(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644)) {}
  ~AckFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  void Record(uint64_t i) {
    (void)::pwrite(fd_, &i, sizeof(i), 0);
    (void)::fsync(fd_);
  }
  static uint64_t Read(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return 0;
    uint64_t i = 0;
    const ssize_t n = ::pread(fd, &i, sizeof(i), 0);
    ::close(fd);
    return n == static_cast<ssize_t>(sizeof(i)) ? i : 0;
  }

 private:
  int fd_;
};

/// The child's workload: recover-or-load, checkpoint, then an endless
/// acknowledged update stream with interleaved cracking queries. Inserted
/// values are kDomain + i (unique, outside the base domain), so the
/// recovered count of each value isolates exactly that update. Runs until
/// SIGKILLed; never returns.
[[noreturn]] void RunChildWorkload(const std::string& dir,
                                   const std::string& ack_path,
                                   const std::string& ready_path) {
  Database db(SoakOptions());
  PersistOptions popts = SoakPersist(dir);
  // Exercise the background checkpointer in the crash loop too.
  popts.checkpoint_interval_seconds = 0.05;
  uint64_t start = 0;
  if (HasManifest(dir)) {
    PersistenceManager* pm = new PersistenceManager(db, popts);
    (void)pm;  // leaked deliberately: this process only exits via SIGKILL
    // Resume past the ack high-water mark AND any in-flight insert that
    // became durable before its ack write landed — re-inserting it would
    // duplicate an eventually-acknowledged value.
    start = AckFile::Read(ack_path);
    const ColumnHandle probe = db.Resolve("r", "a");
    while (CountOf(db, probe, static_cast<int64_t>(kDomain + start + 1),
                   static_cast<int64_t>(kDomain + start + 2)) == 1) {
      ++start;
    }
  } else {
    db.LoadColumn("r", "a", test::MakeUniform(kRows, kDomain, kSeed));
    PersistenceManager* pm = new PersistenceManager(db, popts);
    pm->Checkpoint();
  }

  AckFile ack(ack_path);
  // Tell the parent the gun is loaded.
  { AckFile ready(ready_path); ready.Record(1); }

  const ColumnHandle h = db.Resolve("r", "a");
  for (uint64_t i = start + 1;; ++i) {
    // Durable on return.
    (void)db.InsertScalar(h, static_cast<int64_t>(kDomain + i));
    ack.Record(i);
    if (i % 8 == 0) {
      const int64_t lo = static_cast<int64_t>((i * 7919) % kDomain);
      (void)CountOf(db, h, lo, lo + 4096);
    }
    if (i % 32 == 0) {
      // Keep the delete WAL path hot with disposable values outside the
      // tracked region: insert-then-delete is net zero, and a crash
      // between the two legs strands at most one leftover there.
      const int64_t w = static_cast<int64_t>(2 * kDomain + i);
      (void)db.InsertScalar(h, w);
      (void)db.DeleteScalar(h, w);
    }
  }
}

TEST(RecoverySoak, KillNineThenRecoverMatchesAcknowledgementOracle) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "holix_recovery_soak";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string dir = (root / "data").string();
  const std::string ack_path = (root / "ack").string();
  const std::string ready_path = (root / "ready").string();

  const std::vector<int64_t> base = test::MakeUniform(kRows, kDomain, kSeed);

  constexpr int kCycles = 3;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    std::filesystem::remove(ready_path);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      RunChildWorkload(dir, ack_path, ready_path);  // never returns
    }

    // Wait until the child finished load/recover + checkpoint and entered
    // the update stream, let it run a while, then kill -9 mid-stream.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (AckFile::Read(ready_path) == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "child never became ready";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150 + 70 * cycle));
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));

    // Recover in-process and check against the oracle.
    const uint64_t acked = AckFile::Read(ack_path);
    ASSERT_GT(acked, 0u);

    Database db(SoakOptions());
    PersistenceManager pm(db, SoakPersist(dir));
    ASSERT_TRUE(pm.recovered());
    const ColumnHandle h = db.Resolve("r", "a");

    // 1. No acknowledged insert lost, none duplicated: each acked unique
    //    value is present exactly once.
    for (uint64_t i = 1; i <= acked; ++i) {
      const int64_t v = static_cast<int64_t>(kDomain + i);
      ASSERT_EQ(CountOf(db, h, v, v + 1), 1u)
          << "cycle " << cycle << " acked insert " << i;
    }
    // 2. At most one in-flight insert beyond the ack file: an insert can
    //    be WAL-durable before its ack write lands, but nothing further.
    const size_t inserted =
        CountOf(db, h, kDomain, kDomain + static_cast<int64_t>(acked) + 100);
    EXPECT_GE(inserted, acked);
    EXPECT_LE(inserted, acked + 1);
    // 2b. Disposable insert+delete pairs are net zero; each crash strands
    //     at most one leftover in their region.
    EXPECT_LE(CountOf(db, h, 2 * kDomain, 3 * kDomain),
              static_cast<size_t>(cycle) + 1);
    // 3. Base data checksum-equal to the uninterrupted oracle.
    EXPECT_EQ(CountOf(db, h, 0, kDomain), kRows);
    for (int64_t lo = 0; lo < kDomain; lo += kDomain / 8) {
      EXPECT_EQ(CountOf(db, h, lo, lo + kDomain / 8),
                test::NaiveCount(base, lo, lo + kDomain / 8))
          << "cycle " << cycle << " base range at " << lo;
    }
    // The next cycle's child recovers from the state this one verified
    // (plus whatever checkpoints its background thread cut).
  }

  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace holix::persist

/// \file persist_test.cpp
/// \brief Durability subsystem unit + integration tests: CRC32C known
/// answers, rank-image round trips for the nasty doubles, WAL append/read
/// with LSN ordering and torn-tail/CRC rejection, snapshot + manifest
/// round trips, fault-injected checkpoint failure leaving the previous
/// manifest in force, checkpoint/recover across every exec mode, and
/// index warm-start with bit-identical cracker piece boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"
#include "persist/checksum.h"
#include "persist/io_shim.h"
#include "persist/persistence.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "test_support.h"
#include "util/key_traits.h"

namespace holix::persist {
namespace {

using test::CountOf;

constexpr size_t kRows = 20000;
constexpr int64_t kDomain = 1 << 20;

DatabaseOptions ModeOptions(ExecMode mode) {
  DatabaseOptions opts;
  opts.mode = mode;
  opts.user_threads = 2;
  opts.total_cores = 4;
  return opts;
}

PersistOptions DirOptions(const std::filesystem::path& dir) {
  PersistOptions p;
  p.data_dir = dir.string();
  p.fsync = FsyncPolicy::kAlways;
  return p;
}

class PersistTest : public test::TempDirTest {};

/// The cracker of column r.a, or nullptr when none was built.
std::shared_ptr<CrackerColumn<int64_t>> CrackerOf(Database& db) {
  return db.Resolve("r", "a").entry()->runtime<int64_t>().cracker.load();
}

// --- Primitives -----------------------------------------------------------

TEST(Checksum, Crc32cKnownAnswer) {
  // The Castagnoli check value (RFC 3720 appendix B.4 et al.).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Incremental == one-shot.
  const uint32_t head = Crc32c("1234", 4);
  EXPECT_EQ(Crc32c("56789", 5, head), 0xE3069283u);
}

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

/// Every CRC32C implementation this build and CPU can run.
std::vector<std::pair<std::string, Crc32cFn>> Crc32cImplementations() {
  std::vector<std::pair<std::string, Crc32cFn>> out = {
      {"portable", &Crc32cPortable}};
#if HOLIX_CRC32C_X86
  if (HasHardwareCrc32c()) out.emplace_back("sse4.2", &Crc32cSse42);
#endif
  return out;
}

TEST(Checksum, EveryImplementationGivesTheKnownAnswer) {
  for (const auto& [name, crc] : Crc32cImplementations()) {
    EXPECT_EQ(crc("123456789", 9, 0), 0xE3069283u) << name;
    EXPECT_EQ(crc("", 0, 0), 0u) << name;
    EXPECT_EQ(crc("56789", 5, crc("1234", 4, 0)), 0xE3069283u) << name;
  }
}

TEST(Checksum, HardwareMatchesPortableOnRandomInputs) {
#if HOLIX_CRC32C_X86
  if (!HasHardwareCrc32c()) GTEST_SKIP() << "CPU lacks the SSE4.2 crc32";
  Rng rng(99);
  std::vector<uint8_t> buf(4096 + 16);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Below(256));
  for (size_t len = 0; len <= 4096; ++len) {
    // Unaligned starts, a random seed, and a chained split at a random
    // point, all against the one-shot portable answer.
    const uint8_t* p = buf.data() + rng.Below(16);
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    const uint32_t want = Crc32cPortable(p, len, seed);
    ASSERT_EQ(Crc32cSse42(p, len, seed), want) << "len " << len;
    const size_t cut = rng.Below(len + 1);
    ASSERT_EQ(Crc32cSse42(p + cut, len - cut, Crc32cSse42(p, cut, seed)), want)
        << "len " << len << " cut " << cut;
    ASSERT_EQ(Crc32cPortable(p + cut, len - cut, Crc32cPortable(p, cut, seed)),
              want)
        << "len " << len << " cut " << cut;
  }
#else
  GTEST_SKIP() << "no hardware CRC32C path on this architecture";
#endif
}

TEST(RankImages, NastyDoublesRoundTripLosslessly) {
  using KT = KeyTraits<double>;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,  1.5,       -1.5, inf, -inf,
                           1e308, -1e308, 5e-324};
  for (double v : values) {
    const double back = KT::FromRank(KT::ToRank(v));
    EXPECT_EQ(back, v) << v;
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << v;
  }
  // NaN canonicalizes but stays NaN, above +inf in rank order.
  EXPECT_TRUE(std::isnan(KT::FromRank(KT::ToRank(nan))));
  EXPECT_GT(KT::ToRank(nan), KT::ToRank(inf));
  // -0.0 canonicalizes to +0.0: one rank for one equivalence class.
  EXPECT_EQ(KT::ToRank(-0.0), KT::ToRank(0.0));
  // Order preservation across the sign.
  EXPECT_LT(KT::ToRank(-inf), KT::ToRank(-1.5));
  EXPECT_LT(KT::ToRank(-1.5), KT::ToRank(0.0));
  EXPECT_LT(KT::ToRank(0.0), KT::ToRank(1.5));
  EXPECT_LT(KT::ToRank(1.5), KT::ToRank(inf));
}

TEST(Wal, FsyncPolicyParsing) {
  EXPECT_EQ(FsyncPolicyFromString("always"), FsyncPolicy::kAlways);
  EXPECT_EQ(FsyncPolicyFromString("interval"), FsyncPolicy::kInterval);
  EXPECT_EQ(FsyncPolicyFromString("never"), FsyncPolicy::kNever);
  EXPECT_FALSE(FsyncPolicyFromString("bogus").has_value());
}

// --- WAL ------------------------------------------------------------------

TEST_F(PersistTest, WalRoundTripKeepsLsnOrderAndPayloads) {
  const std::string path = TempPath("wal-1.log").string();
  {
    WalWriter w(path, FsyncPolicy::kAlways, /*first_lsn=*/1);
    EXPECT_EQ(w.Append(WalOp::kInsert, "r", "a", ValueType::kInt64, 42, 100),
              1u);
    EXPECT_EQ(w.Append(WalOp::kDelete, "r", "a", ValueType::kInt64, 7, 3), 2u);
    EXPECT_EQ(w.Append(WalOp::kInsert, "s", "b", ValueType::kDouble,
                       KeyTraits<double>::ToRank(-0.0), 101),
              3u);
    EXPECT_EQ(w.next_lsn(), 4u);
  }
  bool torn = true;
  const std::vector<WalRecord> recs = ReadWalFile(path, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(recs.size(), 3u);
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].lsn, i + 1);
  }
  EXPECT_EQ(recs[0].op, WalOp::kInsert);
  EXPECT_EQ(recs[0].table, "r");
  EXPECT_EQ(recs[0].column, "a");
  EXPECT_EQ(recs[0].rank, 42u);
  EXPECT_EQ(recs[0].rowid, 100u);
  EXPECT_EQ(recs[1].op, WalOp::kDelete);
  EXPECT_EQ(recs[2].type, ValueType::kDouble);
  EXPECT_EQ(KeyTraits<double>::FromRank(recs[2].rank), 0.0);
}

TEST_F(PersistTest, WalTornTailIsCutAtTheLastIntactRecord) {
  const std::string path = TempPath("wal-1.log").string();
  {
    WalWriter w(path, FsyncPolicy::kNever, 1);
    for (int i = 0; i < 10; ++i) {
      w.Append(WalOp::kInsert, "r", "a", ValueType::kInt64,
               static_cast<uint64_t>(i), static_cast<RowId>(i));
    }
    w.SyncNow(/*force=*/true);
  }
  // Chop a few bytes off the final record: a crash mid-append.
  const uint64_t size = std::filesystem::file_size(path);
  ASSERT_TRUE(io::TruncateFile(path, size - 3));

  bool torn = false;
  const std::vector<WalRecord> recs = ReadWalFile(path, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(recs.size(), 9u);
  EXPECT_EQ(recs.back().lsn, 9u);
}

TEST_F(PersistTest, WalCorruptRecordIsRejectedByItsCrc) {
  const std::string path = TempPath("wal-1.log").string();
  {
    WalWriter w(path, FsyncPolicy::kNever, 1);
    for (int i = 0; i < 5; ++i) {
      w.Append(WalOp::kInsert, "r", "a", ValueType::kInt64, 1000, 1);
    }
    w.SyncNow(/*force=*/true);
  }
  // Flip one payload byte near the end of the file (inside record 5).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-5, std::ios::end);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5A);
    f.seekp(-5, std::ios::end);
    f.write(&b, 1);
  }
  bool torn = false;
  const std::vector<WalRecord> recs = ReadWalFile(path, &torn);
  EXPECT_TRUE(torn);  // CRC mismatch reads as a torn tail
  EXPECT_EQ(recs.size(), 4u);
}

TEST_F(PersistTest, WalHeaderCorruptionThrows) {
  const std::string path = TempPath("wal-1.log").string();
  {
    WalWriter w(path, FsyncPolicy::kNever, 1);
    w.Append(WalOp::kInsert, "r", "a", ValueType::kInt64, 1, 1);
    w.SyncNow(true);
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("X", 1);  // break the magic
  }
  EXPECT_THROW((void)ReadWalFile(path), std::runtime_error);
}

// --- Snapshot + manifest --------------------------------------------------

TEST_F(PersistTest, SnapshotManifestRoundTrip) {
  Database db(ModeOptions(ExecMode::kAdaptive));
  const auto data = test::MakeUniform(kRows, kDomain, 11);
  db.LoadColumn("r", "a", data);
  const ColumnHandle h = db.Resolve("r", "a");
  // Crack a little so pivots and stats are non-trivial.
  (void)CountOf(db, h, 1000, 5000);
  (void)CountOf(db, h, 200000, 400000);

  const DurableDatabaseState st = db.ExportDurableState();
  ASSERT_EQ(st.columns.size(), 1u);
  EXPECT_EQ(st.columns[0].base_ranks.size(), kRows);
  EXPECT_TRUE(st.columns[0].has_cracker);
  EXPECT_FALSE(st.columns[0].pivot_ranks.empty());

  WriteSnapshot(temp_dir().string(), /*epoch=*/1, /*wal_epoch=*/1, st);
  ASSERT_TRUE(HasManifest(temp_dir().string()));

  const Manifest man = ReadManifest(temp_dir().string());
  EXPECT_EQ(man.snapshot_epoch, 1u);
  EXPECT_EQ(man.wal_epoch, 1u);
  EXPECT_EQ(man.next_rowid, st.next_rowid);
  ASSERT_EQ(man.tables.size(), 1u);
  EXPECT_EQ(man.tables[0].name, "r");
  EXPECT_EQ(man.tables[0].base_rows, kRows);

  const DurableDatabaseState back = ReadSnapshot(temp_dir().string(), man);
  ASSERT_EQ(back.columns.size(), 1u);
  EXPECT_EQ(back.columns[0].base_ranks, st.columns[0].base_ranks);
  EXPECT_EQ(back.columns[0].pivot_ranks, st.columns[0].pivot_ranks);
  EXPECT_EQ(back.columns[0].appended, st.columns[0].appended);
  EXPECT_EQ(back.columns[0].deleted_base, st.columns[0].deleted_base);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(back.columns[0].stats[i], st.columns[0].stats[i]) << i;
  }
}

TEST_F(PersistTest, CorruptColumnFileFailsItsCrcCheck) {
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("r", "a", test::MakeUniform(1000, kDomain, 5));
  WriteSnapshot(temp_dir().string(), 1, 1, db.ExportDurableState());

  const Manifest man = ReadManifest(temp_dir().string());
  const std::string col_file = ColumnFileName(
      SnapshotDir(temp_dir().string(), 1), "r", "a");
  {
    std::fstream f(col_file, std::ios::in | std::ios::out | std::ios::binary);
    char b = 0;
    f.seekg(-1, std::ios::end);  // flip the last body byte
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xFF);
    f.seekp(-1, std::ios::end);
    f.write(&b, 1);
  }
  EXPECT_THROW((void)ReadSnapshot(temp_dir().string(), man),
               std::runtime_error);
}

template <typename U>
void PutLittleEndian(uint8_t* at, U v) {
  for (size_t i = 0; i < sizeof(U); ++i) {
    at[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint32_t GetLittleEndian32(const uint8_t* at) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) v |= static_cast<uint32_t>(at[i]) << (8 * i);
  return v;
}

/// Applies \p edit to the body of the framed file at \p path (same length)
/// and stores the edited body's CRC in the header, so the file passes its
/// own checksum. \return {old CRC, new CRC}.
std::pair<uint32_t, uint32_t> EditFramedBody(
    const std::string& path,
    const std::function<void(uint8_t* body, size_t len)>& edit) {
  constexpr size_t kHeader = 8 + 4 + 4 + 8;  // magic, version, crc, length
  constexpr size_t kCrcAt = 12;
  std::vector<uint8_t> data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const uint32_t old_crc = GetLittleEndian32(data.data() + kCrcAt);
  edit(data.data() + kHeader, data.size() - kHeader);
  const uint32_t new_crc = Crc32c(data.data() + kHeader, data.size() - kHeader);
  PutLittleEndian(data.data() + kCrcAt, new_crc);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return {old_crc, new_crc};
}

/// Runs \p fn and expects a std::runtime_error whose message names \p what.
void ExpectRuntimeError(const std::function<void()>& fn,
                        const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no exception; expected one naming " << what;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong exception type: " << e.what();
  }
}

TEST_F(PersistTest, ColumnFileWithAnInflatedCountIsMalformed) {
  // Body: "r", "a" (u16-prefixed), 3 x u8, then u64-counted base ranks (3
  // rows), appended, deleted-base and pivot registries (empty, no cracker).
  const std::vector<size_t> count_offsets = {9, 9 + 8 + 24, 9 + 8 + 24 + 8,
                                             9 + 8 + 24 + 16};
  for (size_t offset : count_offsets) {
    SCOPED_TRACE("count at body offset " + std::to_string(offset));
    const std::string dir = temp_dir().string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn("r", "a", std::vector<int64_t>{5, 6, 7});
    WriteSnapshot(dir, 1, 1, db.ExportDurableState());

    const std::pair<uint32_t, uint32_t> crcs = EditFramedBody(
        ColumnFileName(SnapshotDir(dir, 1), "r", "a"),
        [&](uint8_t* body, size_t) {
          PutLittleEndian<uint64_t>(body + offset, uint64_t{1} << 40);
        });
    // Re-point the manifest at the edited file, so only decoding can fail.
    EditFramedBody(ManifestPath(dir), [&](uint8_t* body, size_t len) {
      size_t hits = 0;
      for (size_t i = 0; i + 4 <= len; ++i) {
        if (GetLittleEndian32(body + i) == crcs.first) {
          PutLittleEndian(body + i, crcs.second);
          ++hits;
        }
      }
      ASSERT_EQ(hits, 1u);
    });
    const Manifest man = ReadManifest(dir);
    ExpectRuntimeError([&] { (void)ReadSnapshot(dir, man); },
                       "malformed column body");
  }
}

TEST_F(PersistTest, ManifestWithAnInflatedCountIsMalformed) {
  // Body: 4 x u64, u32 table count, table "r" (u16-prefixed) with u64 rows
  // and a u32 column count, column "a", then the u32 file count.
  const std::vector<size_t> count_offsets = {32, 32 + 4 + 3 + 8,
                                             32 + 4 + 3 + 8 + 4 + 3};
  for (size_t offset : count_offsets) {
    SCOPED_TRACE("count at body offset " + std::to_string(offset));
    const std::string dir = temp_dir().string();
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn("r", "a", std::vector<int64_t>{5, 6, 7});
    WriteSnapshot(dir, 1, 1, db.ExportDurableState());
    EditFramedBody(ManifestPath(dir), [&](uint8_t* body, size_t) {
      PutLittleEndian<uint32_t>(body + offset, 0xFFFFFFFFu);
    });
    ExpectRuntimeError([&] { (void)ReadManifest(dir); }, "malformed manifest");
  }
}

// --- Manifest against column images --------------------------------------

/// A two-column table r(a, b) of \p rows rows whose images hold the given
/// row counts; built by hand, so no files are involved.
DurableDatabaseState HandBuiltState(uint64_t rows, size_t a_rows,
                                    size_t b_rows) {
  DurableDatabaseState st;
  st.tables.push_back({"r", rows, {"a", "b"}});
  for (const auto& [name, n] : {std::pair<std::string, size_t>{"a", a_rows},
                                {"b", b_rows}}) {
    DurableColumnState cs;
    cs.table = "r";
    cs.column = name;
    cs.base_ranks.assign(n, KeyTraits<int64_t>::ToRank(7));
    st.columns.push_back(std::move(cs));
  }
  return st;
}

TEST(RestoreManifest, ImageRowCountMustMatchItsTable) {
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    const DurableDatabaseState st = HandBuiltState(3, 3, 3);
    db.BeginRestore(st);
    db.FinishRestore(st);
    EXPECT_EQ(CountOf(db, db.Resolve("r", "b"), 7, 8), 3u);
  }
  // Both images agree with each other but not with the table, then only
  // the first column disagrees, then only a later one.
  for (const auto& [a_rows, b_rows] :
       {std::pair<size_t, size_t>{2, 2}, {2, 3}, {3, 4}}) {
    SCOPED_TRACE("a=" + std::to_string(a_rows) +
                 " b=" + std::to_string(b_rows));
    Database db(ModeOptions(ExecMode::kAdaptive));
    ExpectRuntimeError(
        [&] { db.BeginRestore(HandBuiltState(3, a_rows, b_rows)); },
        "rows, its table lists 3");
    EXPECT_EQ(db.registry().size(), 0u);  // nothing loaded
  }
}

TEST(RestoreManifest, ImageListedByNoTableIsRejected) {
  Database db(ModeOptions(ExecMode::kAdaptive));
  DurableDatabaseState st = HandBuiltState(3, 3, 3);
  st.tables[0].columns = {"a"};
  ExpectRuntimeError([&] { db.BeginRestore(st); },
                     "snapshot column r.b is listed by no table");
  EXPECT_EQ(db.registry().size(), 0u);
}

TEST(RestoreManifest, ListedColumnWithoutImageIsRejected) {
  Database db(ModeOptions(ExecMode::kAdaptive));
  DurableDatabaseState st = HandBuiltState(3, 3, 3);
  st.tables[0].columns.push_back("c");
  ExpectRuntimeError([&] { db.BeginRestore(st); },
                     "snapshot misses column r.c");
  EXPECT_EQ(db.registry().size(), 0u);
}

// --- The 32-bit rowid lane's limit ---------------------------------------

/// HandBuiltState whose next rowid is the lane's last one, 2^32 - 1.
DurableDatabaseState AtTheRowIdLimit() {
  DurableDatabaseState st = HandBuiltState(3, 3, 3);
  st.next_rowid = kRowIdLimit - 1;
  return st;
}

TEST(RowIdLimit, InsertPastTheLaneIsRefusedBeforeAnythingIsQueued) {
  Database db(ModeOptions(ExecMode::kAdaptive));
  const DurableDatabaseState st = AtTheRowIdLimit();
  db.BeginRestore(st);
  db.FinishRestore(st);
  const ColumnHandle a = db.Resolve("r", "a");
  EXPECT_EQ(db.InsertScalar(a, 9), kRowIdLimit - 1);
  EXPECT_THROW(db.InsertScalar(a, 9), std::length_error);
  EXPECT_THROW(db.InsertScalar(a, 10), std::length_error);
  // The lane's last rowid comes back whole; the refused inserts left no
  // row, no pending entry and no rowid claim behind.
  EXPECT_EQ(test::RowIdsOf(db, a, 9, 11), PositionList{kRowIdLimit - 1});
  const DurableDatabaseState after = db.ExportDurableState();
  EXPECT_EQ(after.next_rowid, kRowIdLimit);
  size_t appended = 0;
  for (const DurableColumnState& cs : after.columns) {
    appended += cs.appended.size();
  }
  EXPECT_EQ(appended, 1u);
}

TEST(RowIdLimit, ReplayOfARowIdPastTheLaneFailsRecovery) {
  const uint64_t rank = KeyTraits<int64_t>::ToRank(9);
  Database db(ModeOptions(ExecMode::kAdaptive));
  const DurableDatabaseState st = AtTheRowIdLimit();
  db.BeginRestore(st);
  db.ApplyLoggedInsert("r", "a", ValueType::kInt64, rank, kRowIdLimit - 1);
  ExpectRuntimeError(
      [&] {
        db.ApplyLoggedInsert("r", "a", ValueType::kInt64, rank, kRowIdLimit);
      },
      "rowid 4294967296 of r.a is at or above 2^32");
  ExpectRuntimeError(
      [&] {
        db.ApplyLoggedDelete("r", "b", ValueType::kInt64, rank,
                             kRowIdLimit + 7);
      },
      "rowid 4294967303 of r.b is at or above 2^32");
  db.FinishRestore(st);
  EXPECT_EQ(test::RowIdsOf(db, db.Resolve("r", "a"), 9, 10),
            PositionList{kRowIdLimit - 1});
}

TEST_F(PersistTest, RowIdLaneLimitHoldsThroughTheWal) {
  const std::string dir = temp_dir().string();
  WriteSnapshot(dir, 1, 1, AtTheRowIdLimit());
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    PersistenceManager pm(db, DirOptions(temp_dir()));
    ASSERT_TRUE(pm.recovered());
    const ColumnHandle a = db.Resolve("r", "a");
    EXPECT_EQ(db.InsertScalar(a, 9), kRowIdLimit - 1);
    EXPECT_THROW(db.InsertScalar(a, 9), std::length_error);
  }
  // Only the accepted insert was logged.
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    PersistenceManager pm(db, DirOptions(temp_dir()));
    ASSERT_TRUE(pm.recovered());
    EXPECT_EQ(test::RowIdsOf(db, db.Resolve("r", "a"), 9, 10),
              PositionList{kRowIdLimit - 1});
  }
  // A logged rowid past the lane fails recovery instead of wrapping to 0.
  const std::vector<uint64_t> epochs = ListWalEpochs(dir);
  ASSERT_FALSE(epochs.empty());
  {
    WalWriter w(WalPath(dir, epochs.back()), FsyncPolicy::kAlways,
                /*first_lsn=*/1000);
    w.Append(WalOp::kInsert, "r", "a", ValueType::kInt64,
             KeyTraits<int64_t>::ToRank(9), kRowIdLimit);
  }
  Database db(ModeOptions(ExecMode::kAdaptive));
  ExpectRuntimeError([&] { PersistenceManager pm(db, DirOptions(temp_dir())); },
                     "rowid 4294967296 of r.a is at or above 2^32");
}

// --- Fault-injected checkpoint --------------------------------------------

TEST_F(PersistTest, FailedCheckpointLeavesThePreviousManifestInForce) {
  const auto data = test::MakeUniform(kRows, kDomain, 21);
  size_t final_count = 0;
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn("r", "a", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    pm.Checkpoint();
    const uint64_t good_lsn = pm.last_checkpoint_lsn();

    // Updates after the good checkpoint live in the WAL.
    const ColumnHandle h = db.Resolve("r", "a");
    (void)db.InsertScalar(h, kDomain + 1);
    (void)db.InsertScalar(h, kDomain + 2);

    // The next checkpoint dies on its first rename (a column file or the
    // manifest publish — either way the old manifest must survive).
    ::setenv("HOLIX_FAULT_RENAME_N", "1", 1);
    io::ReloadFaultConfigForTest();
    const uint64_t faults_before = io::InjectedFaultCount();
    EXPECT_THROW((void)pm.Checkpoint(), std::runtime_error);
    EXPECT_GT(io::InjectedFaultCount(), faults_before);
    ::unsetenv("HOLIX_FAULT_RENAME_N");
    io::ReloadFaultConfigForTest();

    EXPECT_EQ(pm.last_checkpoint_lsn(), good_lsn);
    (void)db.InsertScalar(h, kDomain + 3);
    final_count = CountOf(db, h, kDomain, kDomain + 10);
    EXPECT_EQ(final_count, 3u);
  }
  // Recovery proceeds from the previous manifest + full WAL replay — the
  // half-written checkpoint is invisible.
  Database db2(ModeOptions(ExecMode::kAdaptive));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  EXPECT_TRUE(pm2.recovered());
  const ColumnHandle h2 = db2.Resolve("r", "a");
  EXPECT_EQ(CountOf(db2, h2, kDomain, kDomain + 10), final_count);
  EXPECT_EQ(CountOf(db2, h2, 0, kDomain),
            test::NaiveCount(data, 0, kDomain));
}

// --- Full checkpoint / recover cycles -------------------------------------

TEST_F(PersistTest, WalTailReplaysOnTopOfTheSnapshot) {
  const auto data = test::MakeUniform(kRows, kDomain, 31);
  uint64_t ckpt_lsn = 0;
  size_t count_low = 0, count_probe = 0;
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn("r", "a", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    const ColumnHandle h = db.Resolve("r", "a");
    (void)CountOf(db, h, 1000, 9000);
    (void)db.InsertScalar(h, kDomain + 5);
    ckpt_lsn = pm.Checkpoint();

    // Post-checkpoint tail: inserts, a delete of a base value, queries.
    (void)db.InsertScalar(h, kDomain + 6);
    (void)db.InsertScalar(h, 777);
    EXPECT_TRUE(db.DeleteScalar(h, data[0]));
    (void)CountOf(db, h, 500000, 700000);
    count_low = CountOf(db, h, 0, 1000);
    count_probe = CountOf(db, h, kDomain, kDomain + 100);
    EXPECT_EQ(count_probe, 2u);
  }
  Database db2(ModeOptions(ExecMode::kAdaptive));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  EXPECT_GT(pm2.recovered_lsn(), ckpt_lsn);  // the tail actually replayed
  const ColumnHandle h2 = db2.Resolve("r", "a");
  EXPECT_EQ(CountOf(db2, h2, 0, 1000), count_low);
  EXPECT_EQ(CountOf(db2, h2, kDomain, kDomain + 100), count_probe);
  EXPECT_EQ(CountOf(db2, h2, 777, 778),
            test::NaiveCount(data, 777, 778) + 1);
}

TEST_F(PersistTest, WarmStartReproducesBitIdenticalPieceBoundaries) {
  const auto data = test::MakeUniform(kRows, kDomain, 41);
  DurableDatabaseState before;
  std::vector<std::pair<int64_t, size_t>> boundaries_before;
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn("r", "a", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    const ColumnHandle h = db.Resolve("r", "a");
    // A query stream that cracks across the domain, plus merged updates.
    for (int i = 0; i < 50; ++i) {
      const int64_t lo = (i * 7919) % kDomain;
      (void)CountOf(db, h, lo, lo + 2048);
    }
    (void)db.InsertScalar(h, 4242);
    EXPECT_TRUE(db.DeleteScalar(h, data[10]));
    pm.Checkpoint();
    // The checkpoint force-merged all pending updates, so this export is
    // exactly the achieved-index state recovery must reproduce.
    before = db.ExportDurableState();
    boundaries_before = CrackerOf(db)->ExportBoundaries();
  }
  Database db2(ModeOptions(ExecMode::kAdaptive));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  const DurableDatabaseState after = db2.ExportDurableState();

  ASSERT_EQ(after.columns.size(), before.columns.size());
  const DurableColumnState& b = before.columns[0];
  const DurableColumnState& a = after.columns[0];
  EXPECT_EQ(a.base_ranks, b.base_ranks);
  EXPECT_EQ(a.appended, b.appended);
  EXPECT_EQ(a.deleted_base, b.deleted_base);
  ASSERT_TRUE(a.has_cracker);
  // The tentpole claim: the restarted node resumes at the achieved
  // C_actual — same pivots, bit for bit, at the same positions.
  EXPECT_EQ(a.pivot_ranks, b.pivot_ranks);
  EXPECT_EQ(CrackerOf(db2)->ExportBoundaries(), boundaries_before);
  // Life counters survive (restored after recovery's own bulk merge, so
  // the merge work recovery does is not double-counted).
  EXPECT_EQ(a.stats[0], b.stats[0]);  // accesses
  EXPECT_EQ(a.stats[2], b.stats[2]);  // query cracks
  EXPECT_EQ(a.stats[5], b.stats[5]);  // merged inserts
  EXPECT_EQ(a.stats[6], b.stats[6]);  // merged deletes
  EXPECT_EQ(after.next_rowid, before.next_rowid);
}

/// Observations so far of holix_recovery_stage_seconds{stage="<stage>"}.
uint64_t StageObservations(const std::string& stage) {
  const std::string name =
      "holix_recovery_stage_seconds{stage=\"" + stage + "\"}";
  for (const auto& h : obs::MetricsRegistry::Global().Snapshot().histograms) {
    if (h.name == name) return h.Total();
  }
  return 0;
}

TEST_F(PersistTest, RecoveryObservesEveryStageOnce) {
  const std::vector<std::string> stages = {
      "snapshot_read",  "begin_restore",    "wal_replay",
      "restore_pieces", "check_invariants", "register"};
  {
    Database db(ModeOptions(ExecMode::kHolistic));
    db.LoadColumn("r", "a", test::MakeUniform(kRows, kDomain, 61));
    PersistenceManager pm(db, DirOptions(temp_dir()));
    const ColumnHandle h = db.Resolve("r", "a");
    (void)CountOf(db, h, 100, 5000);
    pm.Checkpoint();
    (void)db.InsertScalar(h, 17);  // WAL tail
  }
  std::vector<uint64_t> before;
  for (const std::string& s : stages) before.push_back(StageObservations(s));
  Database db2(ModeOptions(ExecMode::kHolistic));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  for (size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(StageObservations(stages[i]), before[i] + 1) << stages[i];
  }
}

TEST_F(PersistTest, DoubleColumnsRecoverNaNNegZeroAndInfinities) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> data = {1.5, -2.25, 0.0, -0.0, inf, -inf, nan, nan,
                              3.75, 1e308};
  size_t nan_count = 0, neg_count = 0, fin_count = 0;
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn<double>("r", "d", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    const ColumnHandle h = db.Resolve("r", "d");
    (void)db.InsertScalar(h, KeyScalar::F64(-0.0));
    (void)db.InsertScalar(h, KeyScalar::F64(nan));
    pm.Checkpoint();
    (void)db.InsertScalar(h, KeyScalar::F64(inf));  // WAL tail
    nan_count = CountOf(db, h, KeyScalar::F64(nan), KeyScalar::F64(nan));
    neg_count = CountOf(db, h, KeyScalar::F64(-inf), KeyScalar::F64(0.0));
    fin_count = CountOf(db, h, KeyScalar::F64(0.0), KeyScalar::F64(inf));
    EXPECT_EQ(nan_count, 3u);
  }
  Database db2(ModeOptions(ExecMode::kAdaptive));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  const ColumnHandle h2 = db2.Resolve("r", "d");
  EXPECT_EQ(CountOf(db2, h2, KeyScalar::F64(nan), KeyScalar::F64(nan)),
            nan_count);
  EXPECT_EQ(CountOf(db2, h2, KeyScalar::F64(-inf), KeyScalar::F64(0.0)),
            neg_count);
  EXPECT_EQ(CountOf(db2, h2, KeyScalar::F64(0.0), KeyScalar::F64(inf)),
            fin_count);
  // -0.0 rows answer a [0.0, x) probe (the canonical zero class).
  EXPECT_EQ(CountOf(db2, h2, KeyScalar::F64(0.0), KeyScalar::F64(1.0)), 3u);
}

/// Checkpoint → recover must answer exactly the naive oracle over the live
/// multiset — before the crash and after recovery — in every exec mode.
/// Modes without update support run a read-only workload (their executors
/// reject inserts and deletes by design); the cracking modes exercise
/// updates too.
class PersistAllModesTest
    : public test::TempDirTest,
      public ::testing::WithParamInterface<ExecMode> {};

TEST_P(PersistAllModesTest, CheckpointRecoverMatchesOracleCounts) {
  const ExecMode mode = GetParam();
  const bool cracking_mode =
      mode == ExecMode::kAdaptive || mode == ExecMode::kStochastic ||
      mode == ExecMode::kCCGI || mode == ExecMode::kHolistic;
  const auto data = test::MakeUniform(kRows, kDomain, 51);

  std::vector<std::pair<int64_t, int64_t>> probes;
  for (int i = 0; i < 12; ++i) {
    const int64_t lo = (i * 131071) % kDomain;
    probes.emplace_back(lo, lo + 4096);
  }
  probes.emplace_back(0, kDomain + 100);

  // The live multiset after the workload below: the naive oracle.
  std::vector<int64_t> live = data;
  if (cracking_mode) {
    live.erase(live.begin() + 3);
    live.push_back(kDomain + 1);
    live.push_back(kDomain + 2);
  }
  {
    Database db(ModeOptions(mode));
    db.LoadColumn("r", "a", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    const ColumnHandle h = db.Resolve("r", "a");
    for (const auto& [lo, hi] : probes) (void)CountOf(db, h, lo, hi);
    if (cracking_mode) {
      (void)db.InsertScalar(h, kDomain + 1);
      EXPECT_TRUE(db.DeleteScalar(h, data[3]));
    }
    pm.Checkpoint();
    if (cracking_mode) (void)db.InsertScalar(h, kDomain + 2);  // WAL tail
    for (const auto& [lo, hi] : probes) {
      ASSERT_EQ(CountOf(db, h, lo, hi), test::NaiveCount(live, lo, hi));
    }
  }

  Database db2(ModeOptions(mode));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  // Warm start: every saved pivot is a boundary again, at #{live rows <
  // pivot} (holistic workers may add boundaries, never move these).
  const DurableDatabaseState saved =
      ReadSnapshot(temp_dir().string(), ReadManifest(temp_dir().string()));
  ASSERT_EQ(saved.columns.size(), 1u);
  if (saved.columns[0].has_cracker) {
    std::sort(live.begin(), live.end());
    const auto cracker = CrackerOf(db2);
    ASSERT_NE(cracker, nullptr);
    std::map<int64_t, size_t> at;
    for (const auto& [v, pos] : cracker->ExportBoundaries()) at[v] = pos;
    for (uint64_t rank : saved.columns[0].pivot_ranks) {
      const int64_t w = KeyTraits<int64_t>::FromRank(rank);
      const size_t want = static_cast<size_t>(
          std::lower_bound(live.begin(), live.end(), w) - live.begin());
      ASSERT_EQ(at.count(w), 1u) << "pivot " << w;
      EXPECT_EQ(at[w], want) << "pivot " << w;
    }
  }
  const ColumnHandle h2 = db2.Resolve("r", "a");
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto [lo, hi] = probes[i];
    EXPECT_EQ(CountOf(db2, h2, lo, hi), test::NaiveCount(live, lo, hi))
        << "mode " << static_cast<int>(mode) << " probe " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, PersistAllModesTest,
                         ::testing::Values(ExecMode::kScan, ExecMode::kOffline,
                                           ExecMode::kOnline,
                                           ExecMode::kAdaptive,
                                           ExecMode::kStochastic,
                                           ExecMode::kCCGI,
                                           ExecMode::kHolistic));

}  // namespace
}  // namespace holix::persist

/// Table 1 of the paper is a qualitative comparison; these tests pin the
/// implemented systems to the properties that table claims, so the
/// table1_qualitative bench prints facts the code actually has.

#include <gtest/gtest.h>

#include <thread>

#include "engine/database.h"
#include "test_support.h"
#include "workload/workload.h"

namespace holix {
namespace {

using test::CountOf;

constexpr size_t kRows = 200000;
constexpr int64_t kDomain = 1 << 20;

TEST(Table1, OfflineMaterializesFullIndexUpFront) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kOffline;
  opts.user_threads = 4;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(kRows, kDomain, 1));
  // "Statistical analysis before query processing": the entire physical
  // design is decided (and paid for) before/at the first query.
  db.PrepareOfflineIndexes();
  // Full materialization: a sorted copy of every column exists, so a point
  // query needs no reorganization and no scan.
  const size_t c1 = CountOf(db, db.Resolve("r", "a"), 100, 200);
  const size_t c2 = CountOf(db, db.Resolve("r", "a"), 100, 200);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(db.TotalIndexPieces(), 0u);  // no partial (cracked) indices
}

TEST(Table1, AdaptiveOnlyRefinesDuringQueries) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(kRows, kDomain, 2));
  CountOf(db, db.Resolve("r", "a"), 100, 5000);
  const size_t pieces_after_query = db.TotalIndexPieces();
  EXPECT_GT(pieces_after_query, 1u);  // partial index built by the query
  // "Exploitation of idle resources": none — waiting changes nothing.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(db.TotalIndexPieces(), pieces_after_query);
}

TEST(Table1, HolisticRefinesDuringIdleResources) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 1;
  opts.total_cores = 4;
  opts.holistic.monitor_interval_seconds = 0.001;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(kRows, kDomain, 3));
  CountOf(db, db.Resolve("r", "a"), 100, 5000);
  const size_t pieces_after_query = db.TotalIndexPieces();
  // Idle resources are exploited: pieces grow without further queries.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_GT(db.TotalIndexPieces(), pieces_after_query);
}

TEST(Table1, HolisticIndexingIsPartial) {
  // Partial materialization: holistic indices are cracked columns, not
  // fully sorted copies — piece counts stay far below row counts.
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 1;
  opts.total_cores = 2;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(kRows, kDomain, 4));
  CountOf(db, db.Resolve("r", "a"), 100, 5000);
  EXPECT_LT(db.TotalIndexPieces(), kRows / 10);
}

TEST(Table1, HolisticKeepsStatisticsAboutWorkload) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 1;
  opts.total_cores = 2;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(kRows, kDomain, 5));
  CountOf(db, db.Resolve("r", "a"), 100, 5000);
  CountOf(db, db.Resolve("r", "a"), 100, 5000);
  const auto idx = db.holistic()->store().Find("r.a");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->stats().accesses.load(), 2u);
  EXPECT_EQ(idx->stats().exact_hits.load(), 1u);
}

TEST(Table1, UpdatesAreCheapForAdaptiveAndHolistic) {
  // "Updates cost: low" — an insert is O(1) pending-queue work, merged
  // incrementally later, never a full index rebuild.
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(kRows, kDomain, 6));
  const ColumnHandle h = db.Resolve("r", "a");
  CountOf(db, h, 100, 5000);
  const size_t pieces = db.TotalIndexPieces();
  for (int i = 0; i < 100; ++i) db.InsertScalar(h, i * 37 % kDomain);
  EXPECT_EQ(db.TotalIndexPieces(), pieces);  // nothing rebuilt eagerly
}

}  // namespace
}  // namespace holix

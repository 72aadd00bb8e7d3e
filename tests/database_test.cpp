/// End-to-end engine tests: every execution mode must answer identical
/// range counts, holistic mode must refine in the background, updates must
/// be visible, and the storage budget must evict indices.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "harness/runner.h"
#include "test_support.h"
#include "workload/workload.h"

namespace holix {
namespace {

using test::CountOf;
using test::NaiveCount;
using test::RowIdsOf;
using test::SumOf;

constexpr int64_t kDomain = 1 << 20;
constexpr size_t kRows = 100000;

class ExecModeTest : public ::testing::TestWithParam<ExecMode> {};

TEST_P(ExecModeTest, CountsMatchNaiveReference) {
  DatabaseOptions opts;
  opts.mode = GetParam();
  opts.user_threads = 4;
  opts.total_cores = 8;
  opts.online_observation_window = 10;
  Database db(opts);
  const auto data = GenerateUniformColumn(kRows, kDomain, 11);
  db.LoadColumn("r", "a", data);
  const ColumnHandle h = db.Resolve("r", "a");

  Rng rng(22);
  for (int i = 0; i < 60; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t width = 1 + static_cast<int64_t>(rng.Below(kDomain / 4));
    ASSERT_EQ(CountOf(db, h, lo, lo + width),
              NaiveCount(data, lo, lo + width))
        << ExecModeName(GetParam()) << " query " << i;
  }
}

TEST_P(ExecModeTest, SumAndRowIdsConsistent) {
  DatabaseOptions opts;
  opts.mode = GetParam();
  opts.user_threads = 2;
  opts.total_cores = 4;
  opts.online_observation_window = 2;
  Database db(opts);
  const auto data = GenerateUniformColumn(20000, kDomain, 12);
  db.LoadColumn("r", "a", data);

  int64_t naive_sum = 0;
  size_t naive_count = 0;
  for (int64_t v : data) {
    if (v >= 1000 && v < 500000) {
      naive_sum += v;
      ++naive_count;
    }
  }
  const ColumnHandle h = db.Resolve("r", "a");
  EXPECT_EQ(SumOf(db, h, 1000, 500000).i, naive_sum);
  const PositionList rows = RowIdsOf(db, h, 1000, 500000);
  EXPECT_EQ(rows.size(), naive_count);
  for (RowId r : rows) {
    ASSERT_GE(data[r], 1000);
    ASSERT_LT(data[r], 500000);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ExecModeTest,
    ::testing::Values(ExecMode::kScan, ExecMode::kOffline, ExecMode::kOnline,
                      ExecMode::kAdaptive, ExecMode::kStochastic,
                      ExecMode::kCCGI, ExecMode::kHolistic),
    [](const auto& info) { return ExecModeName(info.param); });

TEST(Database, ModeNames) {
  EXPECT_STREQ(ExecModeName(ExecMode::kScan), "scan");
  EXPECT_STREQ(ExecModeName(ExecMode::kHolistic), "holistic");
}

TEST(Database, CcgiPrePartitionsOnFirstQuery) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kCCGI;
  opts.user_threads = 4;
  opts.ccgi_chunks = 8;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(kRows, kDomain, 13));
  CountOf(db, db.Resolve("r", "a"), 100, 200);
  // 8 coarse chunks plus the query's own cracks.
  EXPECT_GE(db.TotalIndexPieces(), 8u);
}

TEST(Database, HolisticRefinesInBackground) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 2;
  opts.total_cores = 8;
  opts.holistic.max_workers = 4;
  opts.holistic.monitor_interval_seconds = 0.001;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(500000, kDomain, 14));
  CountOf(db, db.Resolve("r", "a"), 100, 200);  // creates the index (C_actual)
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_GT(db.holistic()->TotalWorkerCracks(), 0u);
  EXPECT_GT(db.TotalIndexPieces(), 3u);
  // The index is either still being refined (actual) or has already
  // converged to optimal status — both mean holistic indexing worked.
  EXPECT_EQ(db.holistic()->store().Count(ConfigKind::kActual) +
                db.holistic()->store().Count(ConfigKind::kOptimal),
            1u);
}

TEST(Database, SeedPotentialIndexRefinedBeforeQueries) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 1;
  opts.total_cores = 4;
  opts.holistic.monitor_interval_seconds = 0.001;
  Database db(opts);
  const auto data = GenerateUniformColumn(500000, kDomain, 15);
  db.LoadColumn("r", "a", data);
  db.SeedPotentialIndex("r", "a");
  EXPECT_EQ(db.holistic()->store().Count(ConfigKind::kPotential), 1u);
  // Refined while idle, before any query: wait for the workers rather
  // than for a fixed time, which slow (instrumented) builds overrun.
  EXPECT_TRUE(test::WaitForProgress([&] { return db.TotalIndexPieces() > 2; }))
      << db.TotalIndexPieces() << " pieces";
  // First query promotes it (unless it already converged to optimal) and
  // still answers correctly.
  EXPECT_EQ(CountOf(db, db.Resolve("r", "a"), 5000, 90000),
            NaiveCount(data, 5000, 90000));
  EXPECT_EQ(db.holistic()->store().Count(ConfigKind::kActual) +
                db.holistic()->store().Count(ConfigKind::kOptimal),
            1u);
  EXPECT_EQ(db.holistic()->store().Count(ConfigKind::kPotential), 0u);
}

TEST(Database, InsertsVisibleAfterMerge) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  const auto data = GenerateUniformColumn(10000, 1000, 16);
  db.LoadColumn("r", "a", data);
  const ColumnHandle h = db.Resolve("r", "a");
  const size_t before = CountOf(db, h, 400, 410);
  db.InsertScalar(h, 405);
  db.InsertScalar(h, 405);
  EXPECT_EQ(CountOf(db, h, 400, 410), before + 2);
}

TEST(Database, DeleteRemovesRow) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(10000, 1000, 17));
  const ColumnHandle h = db.Resolve("r", "a");
  db.InsertScalar(h, 777000);  // outside base domain: uniquely ours
  EXPECT_EQ(CountOf(db, h, 777000, 777001), 1u);
  EXPECT_TRUE(db.DeleteScalar(h, 777000));
  EXPECT_EQ(CountOf(db, h, 777000, 777001), 0u);
  EXPECT_FALSE(db.DeleteScalar(h, 777000));
}

TEST(Database, UpdatesRejectedInScanMode) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kScan;
  Database db(opts);
  db.LoadColumn("r", "a", {1, 2, 3});
  EXPECT_THROW(db.InsertScalar(db.Resolve("r", "a"), 5), std::logic_error);
}

TEST(Database, StorageBudgetEvictsColdIndices) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 1;
  opts.total_cores = 2;
  // Each index: 20000 rows * 16 B = 320 KB. Budget: two indices.
  opts.holistic.storage_budget_bytes = 700 * 1024;
  Database db(opts);
  for (int i = 0; i < 3; ++i) {
    db.LoadColumn("r", "a" + std::to_string(i),
                  GenerateUniformColumn(20000, kDomain, 18 + i));
  }
  CountOf(db, db.Resolve("r", "a0"), 10, 100000);
  CountOf(db, db.Resolve("r", "a0"), 10, 100000);  // a0 is hot
  CountOf(db, db.Resolve("r", "a1"), 10, 20);
  CountOf(db, db.Resolve("r", "a2"), 10, 20);  // must evict someone
  EXPECT_LE(db.holistic()->store().TotalBytes(),
            opts.holistic.storage_budget_bytes);
  EXPECT_LE(db.NumAdaptiveIndices(), 2u);
  // Queries on evicted columns still answer correctly (index rebuilt).
  const auto data = GenerateUniformColumn(20000, kDomain, 19);
  db.LoadColumn("r", "fresh", data);
  EXPECT_EQ(CountOf(db, db.Resolve("r", "fresh"), 100, 5000),
            NaiveCount(data, 100, 5000));
}

TEST(Database, MultiClientHolisticConsistency) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 2;
  opts.total_cores = 8;
  opts.holistic.monitor_interval_seconds = 0.001;
  Database db(opts);
  const auto data = GenerateUniformColumn(200000, kDomain, 20);
  db.LoadColumn("r", "a", data);
  const ColumnHandle h = db.Resolve("r", "a");
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + c);
      for (int i = 0; i < 50; ++i) {
        const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
        const int64_t width = 1 + static_cast<int64_t>(rng.Below(kDomain / 8));
        if (CountOf(db, h, lo, lo + width) !=
            NaiveCount(data, lo, lo + width)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Database, OnlineWindowClosesOnRowIdAndConjunctionQueries) {
  // Every access is one observed query of the online (COLT-style) mode,
  // whatever its result shape: once the window closes, rowid selects and
  // conjunctions build and use the sorted index instead of scanning. The
  // window is per column: `b`, first queried after `a`'s window closed,
  // still scans for its own window before it is sorted.
  DatabaseOptions opts;
  opts.mode = ExecMode::kOnline;
  opts.user_threads = 2;
  opts.online_observation_window = 2;
  Database db(opts);
  const auto a = GenerateUniformColumn(20000, kDomain, 31);
  const auto b = GenerateUniformColumn(20000, kDomain, 32);
  db.LoadColumn("r", "a", a);
  db.LoadColumn("r", "b", b);
  const ColumnHandle ha = db.Resolve("r", "a");
  const ColumnHandle hb = db.Resolve("r", "b");
  const auto naive_rows = [&](int64_t lo, int64_t hi, bool with_b) {
    PositionList rows;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] >= lo && a[i] < hi && (!with_b || b[i] < kDomain / 2)) {
        rows.push_back(i);
      }
    }
    return rows;
  };
  for (int q = 0; q < 6; ++q) {
    const int64_t lo = 1000 * (q + 1);
    const int64_t hi = lo + kDomain / 3;
    const bool conj = q >= 2;
    QuerySpec spec;
    spec.Where(ha, lo, hi);
    if (conj) spec.Where(hb, 0, kDomain / 2);
    PositionList rows = db.Execute(spec.RowIds()).rowids;
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, naive_rows(lo, hi, conj)) << "query " << q;
    // `a` is accessed by every query, `b` from the third one on.
    EXPECT_EQ(ha.entry()->runtime<int64_t>().sorted.load() != nullptr, q >= 2)
        << "query " << q;
    EXPECT_EQ(hb.entry()->runtime<int64_t>().sorted.load() != nullptr, q >= 4)
        << "query " << q;
  }
}

TEST(Database, OfflinePrepareSortsAllColumns) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kOffline;
  opts.user_threads = 4;
  Database db(opts);
  const auto a = GenerateUniformColumn(50000, kDomain, 21);
  const auto b = GenerateUniformColumn(50000, kDomain, 22);
  db.LoadColumn("r", "a", a);
  db.LoadColumn("r", "b", b);
  db.PrepareOfflineIndexes();
  EXPECT_EQ(CountOf(db, db.Resolve("r", "a"), 100, 90000),
            NaiveCount(a, 100, 90000));
  EXPECT_EQ(CountOf(db, db.Resolve("r", "b"), 100, 90000),
            NaiveCount(b, 100, 90000));
}

// --- Schema: the registry is the one owner of base data ------------------
//
// A table exists while it has columns; every column of a table has the
// same length; ColumnRegistry::Add enforces both.

DatabaseOptions SchemaOptions() {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  opts.user_threads = 1;
  opts.total_cores = 1;
  return opts;
}

TEST(DatabaseSchema, LoadMovesBaseIntoEntry) {
  Database db(SchemaOptions());
  std::vector<int64_t> data = {1, 2, 3};
  const int64_t* payload = data.data();
  db.LoadColumn("r", "a", std::move(data));
  const ColumnHandle h = db.Resolve("r", "a");
  EXPECT_EQ(h.type(), ValueType::kInt64);
  EXPECT_EQ(h.key(), "r.a");
  const std::vector<int64_t>& base = h.entry()->runtime<int64_t>().base;
  EXPECT_EQ(base.data(), payload);  // taken over, not copied
  EXPECT_EQ(base, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(h.entry()->base_rows(), 3u);
}

TEST(DatabaseSchema, AddAndResolveColumns) {
  Database db(SchemaOptions());
  db.LoadColumn("r", "b", {4, 5, 6});
  db.LoadColumn("r", "a", {1, 2, 3});
  const Database& cdb = db;
  EXPECT_EQ(cdb.registry().size(), 2u);
  EXPECT_EQ(CountOf(db, cdb.registry().Resolve("r", "b"), 4, 5), 1u);
  const DurableDatabaseState st = db.ExportDurableState();
  ASSERT_EQ(st.tables.size(), 1u);
  EXPECT_EQ(st.tables[0].name, "r");
  EXPECT_EQ(st.tables[0].base_rows, 3u);
  // Column-name order, whatever the load order.
  EXPECT_EQ(st.tables[0].columns, (std::vector<std::string>{"a", "b"}));
}

TEST(DatabaseSchema, LengthMismatchThrows) {
  Database db(SchemaOptions());
  db.LoadColumn("r", "a", {1, 2, 3});
  EXPECT_THROW(db.LoadColumn("r", "b", {1, 2}), std::invalid_argument);
  EXPECT_FALSE(db.registry().TryResolve("r", "b").valid());
  EXPECT_EQ(db.registry().size(), 1u);
  db.LoadColumn("q", "b", {1, 2});  // another table may differ
  EXPECT_EQ(CountOf(db, db.Resolve("r", "a"), 0, 10), 3u);
}

TEST(DatabaseSchema, DuplicateColumnThrows) {
  Database db(SchemaOptions());
  db.LoadColumn("r", "a", {1});
  EXPECT_THROW(db.LoadColumn("r", "a", {2}), std::invalid_argument);
  EXPECT_EQ(CountOf(db, db.Resolve("r", "a"), 1, 2), 1u);
}

TEST(DatabaseSchema, MissingColumnThrows) {
  Database db(SchemaOptions());
  EXPECT_THROW(db.Resolve("r", "nope"), std::out_of_range);
  db.LoadColumn("r", "a", {1});
  EXPECT_THROW(db.Resolve("r", "nope"), std::out_of_range);
  EXPECT_THROW(db.Resolve("q", "a"), std::out_of_range);
  EXPECT_EQ(db.registry().TryResolve("r", "nope").entry(), nullptr);
}

TEST(DatabaseSchema, WrongTypeThrows) {
  Database db(SchemaOptions());
  db.LoadColumn("r", "a", {1});
  EXPECT_THROW(db.ApplyLoggedInsert("r", "a", ValueType::kInt32, 0, 1),
               std::runtime_error);
}

TEST(DatabaseSchema, MixedTypesInOneTable) {
  Database db(SchemaOptions());
  db.LoadColumn("r", "a", {1, 2});
  db.LoadColumn<double>("r", "d", {0.5, 1.5});
  db.LoadColumn<int32_t>("r", "i", {7, 8});
  const ColumnHandle d = db.Resolve("r", "d");
  EXPECT_EQ(d.type(), ValueType::kDouble);
  EXPECT_EQ(db.Resolve("r", "i").type(), ValueType::kInt32);
  EXPECT_EQ(d.entry()->runtime<double>().base[1], 1.5);
  EXPECT_EQ(SumOf(db, d, 0.0, 2.0), KeyScalar::F64(2.0));
  EXPECT_THROW(db.LoadColumn<double>("r", "e", {0.5}), std::invalid_argument);
}

TEST(DatabaseSchema, ReloadAfterDropTable) {
  Database db(SchemaOptions());
  db.LoadColumn("r", "a", {1, 2, 3});
  db.LoadColumn("r", "b", {4, 5, 6});
  db.LoadColumn("q", "a", {9});
  const ColumnHandle stale = db.Resolve("r", "a");
  db.DropTable("r");
  EXPECT_FALSE(stale.valid());
  EXPECT_EQ(stale.entry()->base_rows(), 0u);  // the stale handle holds no data
  EXPECT_EQ(db.registry().size(), 1u);
  EXPECT_THROW(db.Resolve("r", "b"), std::out_of_range);
  // The names are free again, at any length.
  db.LoadColumn("r", "a", {10, 20});
  db.LoadColumn("r", "b", {30, 40});
  EXPECT_EQ(CountOf(db, db.Resolve("r", "a"), 0, 100), 2u);
  EXPECT_EQ(CountOf(db, db.Resolve("q", "a"), 0, 100), 1u);
  const DurableDatabaseState st = db.ExportDurableState();
  ASSERT_EQ(st.tables.size(), 2u);
  EXPECT_EQ(st.tables[0].name, "q");
  EXPECT_EQ(st.tables[1].name, "r");
  EXPECT_EQ(st.tables[1].base_rows, 2u);
}

TEST(DatabaseSchema, DropUnknownTableIsNoOp) {
  Database db(SchemaOptions());
  db.DropTable("r");
  db.LoadColumn("r", "a", {1});
  db.DropTable("q");
  EXPECT_EQ(db.registry().size(), 1u);
  db.DropTable("r");
  db.DropTable("r");
  EXPECT_EQ(db.registry().size(), 0u);
}

// Three loaders each fill their own table while the main thread exports
// the durable state in a loop (4 threads in all). Every export must list
// only columns it also carries a state for, and every table must end up
// resolvable.
TEST(DatabaseSchema, ConcurrentLoadsAndExports) {
  Database db(SchemaOptions());
  constexpr int kLoaders = 3;
  constexpr int kColumns = 40;
  std::atomic<int> done{0};
  std::vector<std::thread> loaders;
  for (int t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&db, &done, t] {
      const std::string table = "t" + std::to_string(t);
      for (int c = 0; c < kColumns; ++c) {
        db.LoadColumn(table, "c" + std::to_string(c),
                      std::vector<int64_t>(64 + t, c));
      }
      done.fetch_add(1);
    });
  }
  size_t exports = 0;
  do {
    const DurableDatabaseState st = db.ExportDurableState();
    ++exports;
    for (const DurableTableState& ts : st.tables) {
      for (const std::string& cname : ts.columns) {
        const auto it = std::find_if(
            st.columns.begin(), st.columns.end(),
            [&](const DurableColumnState& cs) {
              return cs.table == ts.name && cs.column == cname;
            });
        if (it == st.columns.end()) {
          ADD_FAILURE() << "no column state for " << ts.name << "." << cname;
          continue;
        }
        EXPECT_EQ(it->base_ranks.size(), ts.base_rows);
      }
    }
  } while (done.load() < kLoaders);
  for (std::thread& th : loaders) th.join();
  EXPECT_GT(exports, 0u);
  for (int t = 0; t < kLoaders; ++t) {
    for (int c = 0; c < kColumns; ++c) {
      const ColumnHandle h =
          db.Resolve("t" + std::to_string(t), "c" + std::to_string(c));
      EXPECT_EQ(h.entry()->base_rows(), static_cast<size_t>(64 + t));
    }
  }
  EXPECT_EQ(db.ExportDurableState().tables.size(),
            static_cast<size_t>(kLoaders));
}

}  // namespace
}  // namespace holix

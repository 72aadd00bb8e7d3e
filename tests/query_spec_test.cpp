/// QuerySpec (declarative multi-predicate) tests: all-7-modes parity and
/// cross-mode checksum identity against a naive conjunction oracle (int64
/// and double predicate mixes), NaN/±inf bounds and values, rejection of
/// empty conjunctions / empty result lists / column-less sums,
/// predicate-order independence of every result (double sums bit-exact),
/// per-predicate index refinement under repetition, concurrent
/// multi-predicate queries racing inserts, and one-predicate double
/// selects and projected sums against the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "test_support.h"

namespace holix {
namespace {

using test::CountOf;
using test::MakeUniform;
using test::RowIdsOf;
using test::SumOf;

constexpr int64_t kDomain = 1 << 20;

constexpr ExecMode kAllModes[] = {
    ExecMode::kScan,       ExecMode::kOffline, ExecMode::kOnline,
    ExecMode::kAdaptive,   ExecMode::kStochastic,
    ExecMode::kCCGI,       ExecMode::kHolistic,
};

DatabaseOptions ModeOptions(ExecMode m) {
  DatabaseOptions opts;
  opts.mode = m;
  opts.user_threads = 2;
  opts.total_cores = 4;
  opts.holistic.monitor_interval_seconds = 0.001;
  return opts;
}

std::vector<double> UniformDoubles(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = static_cast<double>(rng.Below(kDomain)) * 0.25;
  return v;
}

/// Half-open [lo, hi) membership in the KeyTraits<double> total order with
/// the engine's closed-bound degradation at the NaN key (the order's top).
bool HitF64(double v, double lo, double hi) {
  using KT = KeyTraits<double>;
  const double cv = KT::Canonical(v);
  const double clo = KT::Canonical(lo);
  const double chi = KT::Canonical(hi);
  if (KT::IsHighest(chi)) return !KT::Less(cv, clo);  // closed tail
  return !KT::Less(cv, clo) && KT::Less(cv, chi);
}

/// One random conjunction over (a:int64, b:int64, d:double) plus the
/// expected answers, computed by a naive full-scan conjunction in
/// ascending row order (the same order the engine's sorted qualifying set
/// induces, so double sums must match bit-for-bit).
struct ConjCase {
  int64_t a_lo, a_hi;
  int64_t b_lo, b_hi;
  double d_lo, d_hi;
  bool use_b = true;
  bool use_d = true;

  size_t count = 0;
  int64_t sum_b = 0;
  double sum_d = 0;
  PositionList rowids;

  void ComputeOracle(const std::vector<int64_t>& a,
                     const std::vector<int64_t>& b,
                     const std::vector<double>& d) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] < a_lo || a[i] >= a_hi) continue;
      if (use_b && (b[i] < b_lo || b[i] >= b_hi)) continue;
      if (use_d && !HitF64(d[i], d_lo, d_hi)) continue;
      ++count;
      sum_b += b[i];
      sum_d += d[i];
      rowids.push_back(i);
    }
  }
};

ConjCase RandomCase(Rng& rng, const std::vector<int64_t>& a,
                    const std::vector<int64_t>& b,
                    const std::vector<double>& d) {
  ConjCase c{};
  c.a_lo = static_cast<int64_t>(rng.Below(kDomain));
  c.a_hi = c.a_lo + 1 + static_cast<int64_t>(rng.Below(kDomain / 2));
  c.b_lo = static_cast<int64_t>(rng.Below(kDomain / 2));
  c.b_hi = c.b_lo + 1 + static_cast<int64_t>(rng.Below(kDomain));
  c.d_lo = static_cast<double>(rng.Below(kDomain)) * 0.25;
  c.d_hi = c.d_lo + 1.0 + static_cast<double>(rng.Below(kDomain)) * 0.125;
  c.use_b = rng.Below(4) != 0;
  c.use_d = rng.Below(4) != 0 || !c.use_b;
  c.ComputeOracle(a, b, d);
  return c;
}

QuerySpec SpecFor(const ConjCase& c, const ColumnHandle& ha,
                  const ColumnHandle& hb, const ColumnHandle& hd) {
  QuerySpec spec;
  spec.Where(ha, c.a_lo, c.a_hi);
  if (c.use_b) spec.Where(hb, c.b_lo, c.b_hi);
  if (c.use_d) spec.Where(hd, c.d_lo, c.d_hi);
  spec.Count().Sum(hb).Sum(hd).RowIds();
  return spec;
}

TEST(QuerySpec, AllModesParityAndCrossModeChecksums) {
  const auto a = MakeUniform(20000, kDomain, 41);
  const auto b = MakeUniform(20000, kDomain, 42);
  const auto d = UniformDoubles(20000, 43);

  Rng case_rng(44);
  std::vector<ConjCase> cases;
  for (int i = 0; i < 16; ++i) cases.push_back(RandomCase(case_rng, a, b, d));

  for (ExecMode mode : kAllModes) {
    Database db(ModeOptions(mode));
    db.LoadColumn("t", "a", a);
    db.LoadColumn("t", "b", b);
    db.LoadColumn<double>("t", "d", d);
    const ColumnHandle ha = db.Resolve("t", "a");
    const ColumnHandle hb = db.Resolve("t", "b");
    const ColumnHandle hd = db.Resolve("t", "d");

    for (size_t i = 0; i < cases.size(); ++i) {
      const ConjCase& c = cases[i];
      const QueryResult r = db.Execute(SpecFor(c, ha, hb, hd));
      ASSERT_EQ(r.values.size(), 4u);
      EXPECT_EQ(r.values[0].i, static_cast<int64_t>(c.count))
          << ExecModeName(mode) << " case " << i;
      EXPECT_EQ(r.values[1].i, c.sum_b) << ExecModeName(mode) << " case "
                                        << i;
      // Double sums over the ascending qualifying set are bit-identical
      // across every mode — not merely within tolerance.
      EXPECT_EQ(std::bit_cast<uint64_t>(r.values[2].d),
                std::bit_cast<uint64_t>(c.sum_d))
          << ExecModeName(mode) << " case " << i;
      EXPECT_EQ(r.values[3].i, static_cast<int64_t>(c.count));
      EXPECT_EQ(r.rowids, c.rowids) << ExecModeName(mode) << " case " << i;
    }
  }
}

TEST(QuerySpec, SinglePredicateMultiResultMatchesOracle) {
  const auto a = MakeUniform(10000, kDomain, 45);
  const auto b = MakeUniform(10000, kDomain, 46);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hb = db.Resolve("t", "b");

  const int64_t lo = 1000, hi = 700000;
  size_t count = 0;
  int64_t sum_a = 0, sum_b = 0;
  PositionList expect_rows;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] >= lo && a[i] < hi) {
      ++count;
      sum_a += a[i];
      sum_b += b[i];
      expect_rows.push_back(i);
    }
  }
  QuerySpec spec;
  spec.Where(ha, lo, hi).Count().Sum(ha).ProjectSum(hb).RowIds();
  const QueryResult r = db.Execute(spec);
  ASSERT_EQ(r.values.size(), 4u);
  EXPECT_EQ(r.values[0].i, static_cast<int64_t>(count));
  EXPECT_EQ(r.values[1].i, sum_a);
  EXPECT_EQ(r.values[2].i, sum_b);
  EXPECT_EQ(r.values[3].i, static_cast<int64_t>(count));
  EXPECT_EQ(r.rowids, expect_rows);  // multi-result rowids sort ascending
}

TEST(QuerySpec, NaNAndInfinityBoundsAndValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  auto d = UniformDoubles(8000, 47);
  // Specials live at known tail rows; the int64 column qualifies them all.
  d.push_back(kNaN);
  d.push_back(kInf);
  d.push_back(-kInf);
  d.push_back(-0.0);
  const auto a = MakeUniform(d.size(), kDomain, 48);

  for (ExecMode mode : {ExecMode::kScan, ExecMode::kAdaptive}) {
    Database db(ModeOptions(mode));
    db.LoadColumn("t", "a", a);
    db.LoadColumn<double>("t", "d", d);
    const ColumnHandle ha = db.Resolve("t", "a");
    const ColumnHandle hd = db.Resolve("t", "d");

    auto run_count = [&](double lo, double hi) -> int64_t {
      QuerySpec spec;
      spec.Where(ha, std::numeric_limits<int64_t>::min(),
                 std::numeric_limits<int64_t>::max())
          .Where(hd, lo, hi)
          .Count();
      return db.Execute(spec).values[0].i;
    };
    auto oracle_count = [&](double lo, double hi) -> int64_t {
      int64_t n = 0;
      for (double v : d) n += HitF64(v, lo, hi) ? 1 : 0;
      return n;
    };
    // [-inf, +inf): everything finite plus -inf; excludes +inf and NaN.
    EXPECT_EQ(run_count(-kInf, kInf), oracle_count(-kInf, kInf))
        << ExecModeName(mode);
    // [-inf, NaN]: the closed tail — every row including +inf and NaN.
    EXPECT_EQ(run_count(-kInf, kNaN), static_cast<int64_t>(d.size()))
        << ExecModeName(mode);
    // [NaN, NaN]: exactly the NaN rows.
    EXPECT_EQ(run_count(kNaN, kNaN), 1) << ExecModeName(mode);
    // [+inf, NaN]: +inf and NaN rows.
    EXPECT_EQ(run_count(kInf, kNaN), 2) << ExecModeName(mode);
    // [-0.0, 0.5): -0.0 == +0.0 under the total order.
    EXPECT_EQ(run_count(-0.0, 0.5), oracle_count(0.0, 0.5))
        << ExecModeName(mode);
  }
}

TEST(QuerySpec, MalformedSpecsRejected) {
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", MakeUniform(1000, kDomain, 49));
  db.LoadColumn("u", "z", MakeUniform(1000, kDomain, 50));
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hz = db.Resolve("u", "z");

  QuerySpec empty;
  empty.Count();
  EXPECT_THROW(db.Execute(empty), std::invalid_argument);

  QuerySpec no_results;
  no_results.Where(ha, 0, 100);
  EXPECT_THROW(db.Execute(no_results), std::invalid_argument);

  QuerySpec column_less_sum;
  column_less_sum.Where(ha, 0, 100);
  column_less_sum.results.push_back({ResultRequest::kSum, {}});
  EXPECT_THROW(db.Execute(column_less_sum), std::invalid_argument);

  QuerySpec cross_table;
  cross_table.Where(ha, 0, 100).Where(hz, 0, 100).Count();
  EXPECT_THROW(db.Execute(cross_table), std::invalid_argument);
}

TEST(QuerySpec, PredicateOrderIndependence) {
  const auto a = MakeUniform(15000, kDomain, 51);
  const auto b = MakeUniform(15000, kDomain, 52);
  const auto d = UniformDoubles(15000, 53);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  db.LoadColumn<double>("t", "d", d);
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hb = db.Resolve("t", "b");
  const ColumnHandle hd = db.Resolve("t", "d");

  const RangePredicate preds[3] = {
      {ha, KeyScalar::I64(5000), KeyScalar::I64(400000)},
      {hb, KeyScalar::I64(0), KeyScalar::I64(900000)},
      {hd, KeyScalar::F64(100.5), KeyScalar::F64(200000.25)},
  };
  // Every permutation — executed back to back on the SAME database, so
  // the index state evolves between runs — must answer identically.
  int order[3] = {0, 1, 2};
  std::sort(order, order + 3);
  QueryResult first;
  bool have_first = false;
  do {
    QuerySpec spec;
    for (int idx : order) spec.predicates.push_back(preds[idx]);
    spec.Count().Sum(hd).RowIds();
    const QueryResult r = db.Execute(spec);
    if (!have_first) {
      first = r;
      have_first = true;
      EXPECT_GT(first.values[0].i, 0);  // non-degenerate case
      continue;
    }
    EXPECT_EQ(r.values[0].i, first.values[0].i);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.values[1].d),
              std::bit_cast<uint64_t>(first.values[1].d));
    EXPECT_EQ(r.rowids, first.rowids);
  } while (std::next_permutation(order, order + 3));
}

TEST(QuerySpec, RepeatedExecutionRefinesEveryPredicateColumn) {
  const auto a = MakeUniform(30000, kDomain, 54);
  const auto b = MakeUniform(30000, kDomain, 55);
  const auto d = UniformDoubles(30000, 56);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  db.LoadColumn<double>("t", "d", d);
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hb = db.Resolve("t", "b");
  const ColumnHandle hd = db.Resolve("t", "d");

  auto pieces = [&](const ColumnHandle& h) -> size_t {
    return DispatchIndexableType(h.type(), [&](auto tag) -> size_t {
      using T = typename decltype(tag)::type;
      auto c = h.entry()->runtime<T>().cracker.load();
      return c == nullptr ? 1 : c->NumPieces();
    });
  };

  Rng rng(57);
  auto run_round = [&](int queries) {
    for (int i = 0; i < queries; ++i) {
      const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
      QuerySpec spec;
      // A selective driver on `a`, a deliberately wide conjunct on `b`
      // (the probe path must still crack it via RefineHint), and a double
      // conjunct on `d`.
      spec.Where(ha, lo, lo + 1 + static_cast<int64_t>(rng.Below(10000)))
          .Where(hb, static_cast<int64_t>(rng.Below(1000)), kDomain)
          .Where(hd, static_cast<double>(rng.Below(kDomain)) * 0.01,
                 static_cast<double>(kDomain))
          .Count();
      db.Execute(spec);
    }
  };

  run_round(8);
  const size_t a1 = pieces(ha), b1 = pieces(hb), d1 = pieces(hd);
  EXPECT_GT(a1, 1u);
  EXPECT_GT(b1, 1u);
  EXPECT_GT(d1, 1u);
  run_round(24);
  // Piece counts grow on EVERY predicate column as the workload repeats.
  EXPECT_GT(pieces(ha), a1);
  EXPECT_GT(pieces(hb), b1);
  EXPECT_GT(pieces(hd), d1);
}

TEST(QuerySpec, ConcurrentMultiPredicateQueriesWithInserts) {
  const size_t rows = 20000;
  const auto a = MakeUniform(rows, kDomain, 58);
  const auto b = MakeUniform(rows, kDomain, 59);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hb = db.Resolve("t", "b");

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Session s = db.OpenSession();
      Rng rng(100 + t);
      for (int i = 0; i < 60; ++i) {
        const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
        QuerySpec spec;
        spec.Where(ha, lo, lo + 1 + static_cast<int64_t>(rng.Below(kDomain)))
            .Where(hb, 0, static_cast<int64_t>(rng.Below(kDomain)) + 1)
            .Count()
            .Sum(hb);
        const QueryResult r = s.Execute(spec);
        // A conjunction can never return more rows than the table holds
        // (inserted rows have no value in the other column).
        if (r.values[0].i > static_cast<int64_t>(rows)) {
          failed.store(true);
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Session s = db.OpenSession();
      Rng rng(200 + t);
      for (int i = 0; i < 200; ++i) {
        s.InsertScalar(t == 0 ? ha : hb,
                       static_cast<int64_t>(rng.Below(kDomain)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  // Quiesced: the conjunction still matches the base-data oracle exactly
  // (rows inserted into a single column are excluded by the conjunction).
  size_t expect = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (a[i] >= 1000 && a[i] < 800000 && b[i] >= 0 && b[i] < 500000) {
      ++expect;
    }
  }
  QuerySpec spec;
  spec.Where(ha, 1000, 800000).Where(hb, 0, 500000).Count();
  EXPECT_EQ(db.Execute(spec).values[0].i, static_cast<int64_t>(expect));
}

TEST(QuerySpec, MaterializedPathIncludesAppendedRowsConsistently) {
  // A row appended by Insert is visible to every shape that touches only
  // its own column: the one-predicate/one-result shapes AND the
  // materialized path (several results), whose positional sums resolve the
  // appended rowid through the column's pending registry. Count, rowids
  // and sums must agree about which rows qualify.
  const auto a = MakeUniform(5000, kDomain, 70);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  const ColumnHandle ha = db.Resolve("t", "a");

  size_t base_count = 0;
  int64_t base_sum = 0;
  for (int64_t v : a) {
    if (v >= 0 && v < 1000) {
      ++base_count;
      base_sum += v;
    }
  }
  const RowId inserted = db.InsertScalar(ha, 500);
  EXPECT_GE(inserted, a.size());
  // One-predicate shapes: the merged pending insert is counted and summed.
  EXPECT_EQ(CountOf(db, ha, 0, 1000), base_count + 1);
  EXPECT_EQ(SumOf(db, ha, 0, 1000).i, base_sum + 500);

  // Materialized shape: same qualifying set, internally consistent.
  QuerySpec spec;
  spec.Where(ha, int64_t{0}, int64_t{1000}).Count().Sum(ha).RowIds();
  const QueryResult r = db.Execute(spec);
  EXPECT_EQ(r.values[0].i, static_cast<int64_t>(base_count) + 1);
  EXPECT_EQ(r.values[1].i, base_sum + 500);
  EXPECT_EQ(r.rowids.size(), base_count + 1);
  EXPECT_TRUE(std::find(r.rowids.begin(), r.rowids.end(), inserted) !=
              r.rowids.end());

  // The registry survives the Ripple merges those queries performed: ask
  // again now that the pending queues are drained.
  const QueryResult again = db.Execute(spec);
  EXPECT_EQ(again.values[0].i, static_cast<int64_t>(base_count) + 1);
  EXPECT_EQ(again.values[1].i, base_sum + 500);

  // Deleting one row with that value (whichever rowid the index resolves
  // — possibly the appended one, whose registry entry is then erased)
  // shrinks every result shape by exactly that row.
  EXPECT_TRUE(db.DeleteScalar(ha, 500));
  const QueryResult gone = db.Execute(spec);
  EXPECT_EQ(gone.values[0].i, static_cast<int64_t>(base_count));
  EXPECT_EQ(gone.values[1].i, base_sum);
  EXPECT_EQ(gone.rowids.size(), base_count);
}

TEST(QuerySpec, ConjunctionAfterInsertBitExactInAllModes) {
  // The ISSUE-6 regression: insert into one column, then IMMEDIATELY run a
  // 2-predicate conjunction. The inserted row must be excluded (it has no
  // value in the other predicate column), and the answer must stay
  // bit-exact with the base-data oracle in every mode — including the
  // probe path, which used to skip appended rowids silently instead of
  // resolving them. Also pins the flip side: a single-predicate
  // multi-result spec on the inserted column DOES see the row.
  const size_t rows = 4000;
  const auto a = MakeUniform(rows, kDomain, 71);
  const auto b = MakeUniform(rows, kDomain, 72);
  size_t expect_count = 0;
  int64_t expect_sum_b = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (a[i] >= 1000 && a[i] < 700000 && b[i] >= 2000 && b[i] < 900000) {
      ++expect_count;
      expect_sum_b += b[i];
    }
  }
  for (ExecMode m : kAllModes) {
    SCOPED_TRACE(static_cast<int>(m));
    Database db(ModeOptions(m));
    db.LoadColumn("t", "a", a);
    db.LoadColumn("t", "b", b);
    const ColumnHandle ha = db.Resolve("t", "a");
    const ColumnHandle hb = db.Resolve("t", "b");

    bool inserted = false;
    try {
      db.InsertScalar(ha, 5000);  // qualifies on a, missing from b
      inserted = true;
    } catch (const std::logic_error&) {
      // Non-cracking modes reject updates; the conjunction must still be
      // exact there.
    }

    QuerySpec spec;
    spec.Where(ha, int64_t{1000}, int64_t{700000})
        .Where(hb, int64_t{2000}, int64_t{900000})
        .Count()
        .Sum(hb);
    const QueryResult r = db.Execute(spec);
    EXPECT_EQ(r.values[0].i, static_cast<int64_t>(expect_count));
    EXPECT_EQ(r.values[1].i, expect_sum_b);
    // Same answer with the predicate order flipped (drives the other
    // planning order, so both the merge and the probe paths see the
    // appended row).
    QuerySpec flipped;
    flipped.Where(hb, int64_t{2000}, int64_t{900000})
        .Where(ha, int64_t{1000}, int64_t{700000})
        .Count()
        .Sum(hb);
    EXPECT_EQ(db.Execute(flipped).values[0].i,
              static_cast<int64_t>(expect_count));

    if (inserted) {
      size_t single_count = 0;
      int64_t single_sum = 0;
      for (int64_t v : a) {
        if (v >= 1000 && v < 700000) {
          ++single_count;
          single_sum += v;
        }
      }
      QuerySpec single;
      single.Where(ha, int64_t{1000}, int64_t{700000}).Count().Sum(ha);
      const QueryResult sr = db.Execute(single);
      EXPECT_EQ(sr.values[0].i, static_cast<int64_t>(single_count) + 1);
      EXPECT_EQ(sr.values[1].i, single_sum + 5000);
    }
  }
}

TEST(QuerySpec, ProjectSumAfterInsertStaysInBounds) {
  // ProjectSum whose WHERE column holds appended rows used to read the
  // project column out of bounds (rowid past the base array). The appended
  // row must simply contribute nothing when the project column never saw
  // it — and the inserted value when WHERE and PROJECT are the same
  // column.
  const size_t rows = 3000;
  const auto a = MakeUniform(rows, kDomain, 73);
  const auto b = MakeUniform(rows, kDomain, 74);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hb = db.Resolve("t", "b");

  int64_t expect = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (a[i] >= 0 && a[i] < 900000) expect += b[i];
  }
  for (int i = 0; i < 64; ++i) db.InsertScalar(ha, 100 + i);
  const QuerySpec psum = QuerySpec().Where(ha, 0, 900000).ProjectSum(hb);
  EXPECT_EQ(db.Execute(psum).values[0].i, expect);
  // Run twice: the first call Ripple-merged the pending rows into the
  // index, so the second exercises the persistent registry path.
  EXPECT_EQ(db.Execute(psum).values[0].i, expect);
}

TEST(QuerySpec, AsyncSubmitExecute) {
  const auto a = MakeUniform(10000, kDomain, 60);
  const auto b = MakeUniform(10000, kDomain, 61);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  Session s = db.OpenSession();
  QuerySpec spec;
  spec.Where(s.Handle("t", "a"), 100, 600000)
      .Where(s.Handle("t", "b"), 100, 600000)
      .Count();
  auto fut = s.SubmitExecute(spec);
  const QueryResult sync = s.Execute(spec);
  EXPECT_EQ(fut.get().values[0].i, sync.values[0].i);
}

TEST(QuerySpec, DoubleSelectAndProjectSumMatchOracle) {
  // One-predicate shapes over double columns with f64 bounds: the rowid
  // select and the late-reconstruction sum of a second double column.
  const auto d1 = UniformDoubles(8000, 62);
  const auto d2 = UniformDoubles(8000, 63);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn<double>("t", "d1", d1);
  db.LoadColumn<double>("t", "d2", d2);
  const ColumnHandle h1 = db.Resolve("t", "d1");
  const ColumnHandle h2 = db.Resolve("t", "d2");

  const KeyScalar lo = KeyScalar::F64(250.25), hi = KeyScalar::F64(100000.5);
  PositionList rows = RowIdsOf(db, h1, lo, hi);
  std::sort(rows.begin(), rows.end());  // native (cracked) order otherwise
  PositionList expect_rows;
  double oracle = 0;
  for (size_t i = 0; i < d1.size(); ++i) {
    if (d1[i] >= lo.d && d1[i] < hi.d) {
      expect_rows.push_back(i);
      oracle += d2[i];
    }
  }
  EXPECT_EQ(rows, expect_rows);
  EXPECT_FALSE(rows.empty());
  const KeyScalar psum =
      db.Execute(QuerySpec().Where(h1, lo, hi).ProjectSum(h2)).values[0];
  ASSERT_TRUE(psum.is_f64());
  EXPECT_DOUBLE_EQ(psum.d, oracle);
}

TEST(QuerySpec, DoubleSumsAddInEachModesNativeOrder) {
  // A double sum's bits depend on the order its terms are added in, and a
  // one-predicate sum adds in its mode's native order: base order (scan;
  // online inside its window), (value, rowid)-sorted order (offline;
  // online once the window closed), cracker order (adaptive). Values
  // spread over 40 binades, so another order changes the bits.
  constexpr size_t kN = 6000;
  Rng rng(71);
  std::vector<double> d(kN), p(kN);
  for (size_t i = 0; i < kN; ++i) {
    d[i] = std::ldexp(static_cast<double>(rng.Below(1 << 20)) + 0.1,
                      static_cast<int>(rng.Below(40)) - 20);
    p[i] = std::ldexp(static_cast<double>(rng.Below(1 << 20)) + 0.3,
                      static_cast<int>(rng.Below(40)) - 20);
  }
  std::vector<RowId> sorted(kN);
  for (size_t i = 0; i < kN; ++i) sorted[i] = i;
  std::sort(sorted.begin(), sorted.end(), [&](RowId a, RowId b) {
    return KeyTraits<double>::Less(d[a], d[b]) ||
           (KeyTraits<double>::Eq(d[a], d[b]) && a < b);
  });
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };

  enum class Shape { kCount, kSum, kProjectSum };
  struct Step {
    Shape shape;
    double lo, hi;
  };
  // The online window is 2 accesses; its three counts close it whether
  // every access or only a count advances it.
  const std::vector<Step> steps = {
      {Shape::kSum, 0.5, 3.0e5},         {Shape::kProjectSum, 2.0, 9.0e4},
      {Shape::kCount, 1.0, 5.0e5},       {Shape::kCount, 1.0, 5.0e5},
      {Shape::kCount, 1.0, 5.0e5},       {Shape::kSum, 0.25, 6.0e5},
      {Shape::kProjectSum, 3.0, 7.0e5},  {Shape::kSum, 10.0, 4.0e4},
  };
  enum class Order { kBase, kSorted, kCracker };
  for (ExecMode m : {ExecMode::kScan, ExecMode::kOffline, ExecMode::kOnline,
                     ExecMode::kAdaptive}) {
    DatabaseOptions opts = ModeOptions(m);
    opts.user_threads = 1;
    opts.online_observation_window = 2;
    Database db(opts);
    db.LoadColumn<double>("t", "d", d);
    db.LoadColumn<double>("t", "p", p);
    const ColumnHandle hd = db.Resolve("t", "d");
    const ColumnHandle hp = db.Resolve("t", "p");
    // kAdaptive's oracle: a standalone cracker given the same selects.
    CrackerColumn<double> cracker("d", d);
    CrackConfig cfg;
    cfg.algo = opts.kernel;
    for (size_t s = 0; s < steps.size(); ++s) {
      const Step& st = steps[s];
      const PositionRange cracked = cracker.SelectRange(st.lo, st.hi, cfg);
      if (st.shape == Shape::kCount) {
        EXPECT_EQ(CountOf(db, hd, KeyScalar::F64(st.lo), KeyScalar::F64(st.hi)),
                  cracked.size());
        continue;
      }
      Order order = Order::kBase;
      if (m == ExecMode::kOffline || (m == ExecMode::kOnline && s > 4)) {
        order = Order::kSorted;
      } else if (m == ExecMode::kAdaptive) {
        order = Order::kCracker;
      }
      // Past the online window only the plain sum is pinned.
      if (m == ExecMode::kOnline && s > 4 && st.shape == Shape::kProjectSum) {
        continue;
      }
      const std::vector<double>& col = st.shape == Shape::kSum ? d : p;
      double want = 0;
      const auto add = [&](RowId rid) { want += col[rid]; };
      if (order == Order::kBase) {
        for (RowId i = 0; i < kN; ++i) {
          if (d[i] >= st.lo && d[i] < st.hi) add(i);
        }
      } else if (order == Order::kSorted) {
        for (RowId i : sorted) {
          if (d[i] >= st.lo && d[i] < st.hi) add(i);
        }
      } else {
        cracker.ScanRange(cracked, [&](double, RowId rid) { add(rid); });
      }
      QuerySpec spec;
      spec.Where(hd, KeyScalar::F64(st.lo), KeyScalar::F64(st.hi));
      if (st.shape == Shape::kSum) {
        spec.Sum(hd);
      } else {
        spec.ProjectSum(hp);
      }
      const KeyScalar got = db.Execute(spec).values[0];
      ASSERT_TRUE(got.is_f64());
      EXPECT_EQ(bits(got.d), bits(want))
          << ExecModeName(m) << " step " << s << ": " << got.d << " vs "
          << want;
    }
  }
  // The data discriminates: base and sorted order give different bits for
  // one of the sums above.
  double base_sum = 0, sorted_sum = 0;
  for (RowId i = 0; i < kN; ++i) {
    if (d[i] >= 0.25 && d[i] < 6.0e5) base_sum += d[i];
  }
  for (RowId i : sorted) {
    if (d[i] >= 0.25 && d[i] < 6.0e5) sorted_sum += d[i];
  }
  EXPECT_NE(bits(base_sum), bits(sorted_sum));
}

}  // namespace
}  // namespace holix

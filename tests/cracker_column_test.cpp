/// Unit and property tests for CrackerColumn: select correctness against a
/// naive reference, invariants after arbitrary crack sequences, exact-hit
/// accounting, payload alignment, and result consumption.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cracking/cracker_column.h"
#include "test_support.h"
#include "util/rng.h"

namespace holix {
namespace {

using test::MakeUniform;
using test::NaiveCount;

TEST(CrackerColumn, EmptyColumn) {
  CrackerColumn<int64_t> col("empty", std::vector<int64_t>{});
  EXPECT_EQ(col.size(), 0u);
  EXPECT_EQ(col.NumPieces(), 1u);
  const PositionRange r = col.SelectRange(0, 100);
  EXPECT_TRUE(r.empty());
}

TEST(CrackerColumn, SingleSelectMatchesNaive) {
  const auto base = MakeUniform(10000, 1000, 1);
  CrackerColumn<int64_t> col("a", base);
  const PositionRange r = col.SelectRange(100, 300);
  EXPECT_EQ(r.size(), NaiveCount(base, 100, 300));
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(CrackerColumn, SelectReturnsOnlyQualifyingValues) {
  const auto base = MakeUniform(5000, 500, 2);
  CrackerColumn<int64_t> col("a", base);
  const PositionRange r = col.SelectRange(50, 200);
  size_t seen = 0;
  col.ScanRange(r, [&](int64_t v, RowId) {
    EXPECT_GE(v, 50);
    EXPECT_LT(v, 200);
    ++seen;
  });
  EXPECT_EQ(seen, r.size());
}

TEST(CrackerColumn, RowIdsPointBackToBaseValues) {
  const auto base = MakeUniform(5000, 500, 3);
  CrackerColumn<int64_t> col("a", base);
  const PositionRange r = col.SelectRange(100, 150);
  col.ScanRange(r, [&](int64_t v, RowId rid) {
    ASSERT_LT(rid, base.size());
    EXPECT_EQ(base[rid], v);
  });
}

TEST(CrackerColumn, RepeatedIdenticalQueryIsExactHit) {
  const auto base = MakeUniform(10000, 1000, 4);
  CrackerColumn<int64_t> col("a", base);
  const PositionRange r1 = col.SelectRange(200, 400);
  const uint64_t cracks_after_first = col.stats().query_cracks.load();
  const PositionRange r2 = col.SelectRange(200, 400);
  EXPECT_EQ(r1.begin, r2.begin);
  EXPECT_EQ(r1.end, r2.end);
  EXPECT_EQ(col.stats().query_cracks.load(), cracks_after_first);
  EXPECT_EQ(col.stats().exact_hits.load(), 1u);
  EXPECT_EQ(col.stats().accesses.load(), 2u);
}

TEST(CrackerColumn, PiecesGrowWithQueries) {
  const auto base = MakeUniform(20000, 1u << 20, 5);
  CrackerColumn<int64_t> col("a", base);
  EXPECT_EQ(col.NumPieces(), 1u);
  col.SelectRange(1000, 2000);
  EXPECT_GE(col.NumPieces(), 2u);
  const size_t before = col.NumPieces();
  col.SelectRange(500000, 600000);
  EXPECT_GT(col.NumPieces(), before);
}

TEST(CrackerColumn, ManyRandomSelectsMatchNaiveAndKeepInvariants) {
  const auto base = MakeUniform(30000, 1u << 20, 6);
  CrackerColumn<int64_t> col("a", base);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(1u << 20));
    const int64_t width = 1 + static_cast<int64_t>(rng.Below(1u << 18));
    const PositionRange r = col.SelectRange(lo, lo + width);
    ASSERT_EQ(r.size(), NaiveCount(base, lo, lo + width)) << "query " << i;
  }
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(CrackerColumn, BoundsOutsideDomain) {
  const auto base = MakeUniform(1000, 100, 7);
  CrackerColumn<int64_t> col("a", base);
  EXPECT_EQ(col.SelectRange(-50, 1000).size(), base.size());
  EXPECT_EQ(col.SelectRange(200, 500).size(), 0u);
  EXPECT_EQ(col.SelectRange(-100, -1).size(), 0u);
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(CrackerColumn, InvertedAndEmptyRanges) {
  const auto base = MakeUniform(1000, 100, 8);
  CrackerColumn<int64_t> col("a", base);
  EXPECT_EQ(col.SelectRange(50, 50).size(), 0u);
  EXPECT_EQ(col.SelectRange(70, 30).size(), 0u);
}

TEST(CrackerColumn, DuplicateHeavyColumn) {
  std::vector<int64_t> base(8000);
  Rng rng(9);
  for (auto& v : base) v = static_cast<int64_t>(rng.Below(4));  // 4 values
  CrackerColumn<int64_t> col("dups", base);
  for (int64_t lo = 0; lo < 4; ++lo) {
    EXPECT_EQ(col.SelectRange(lo, lo + 1).size(),
              NaiveCount(base, lo, lo + 1));
  }
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(CrackerColumn, TryRefineCreatesPieces) {
  const auto base = MakeUniform(10000, 1u << 20, 11);
  CrackerColumn<int64_t> col("a", base);
  Rng rng(5);
  size_t refined = 0;
  for (int i = 0; i < 32; ++i) {
    const int64_t pivot = static_cast<int64_t>(rng.Below(1u << 20));
    refined += col.TryRefineAt(pivot) ? 1 : 0;
  }
  EXPECT_GT(refined, 0u);
  EXPECT_EQ(col.NumPieces(), 1 + col.stats().worker_cracks.load());
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(CrackerColumn, RefineAtExistingBoundaryIsNoop) {
  const auto base = MakeUniform(1000, 1000, 12);
  CrackerColumn<int64_t> col("a", base);
  col.SelectRange(100, 200);
  const size_t before = col.NumPieces();
  EXPECT_FALSE(col.TryRefineAt(100));
  EXPECT_FALSE(col.TryRefineAt(200));
  EXPECT_EQ(col.NumPieces(), before);
}

TEST(CrackerColumn, PayloadsStayAligned) {
  const auto base = MakeUniform(5000, 10000, 13);
  std::vector<int64_t> payload(base.size());
  for (size_t i = 0; i < base.size(); ++i) payload[i] = base[i] * 10 + 7;
  CrackerColumn<int64_t> col("a", base);
  col.AttachPayload(payload);
  col.SelectRange(1000, 3000);
  col.SelectRange(4000, 9000);
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(col.PayloadAtUnsafe(0, i), col.ValueAtUnsafe(i) * 10 + 7);
  }
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(CrackerColumn, AttachPayloadAfterCrackThrows) {
  const auto base = MakeUniform(100, 100, 14);
  CrackerColumn<int64_t> col("a", base);
  col.SelectRange(10, 20);
  EXPECT_THROW(col.AttachPayload(std::vector<int64_t>(100, 0)),
               std::logic_error);
}

TEST(CrackerColumn, PieceSizesSumToColumnSize) {
  const auto base = MakeUniform(10000, 1u << 16, 15);
  CrackerColumn<int64_t> col("a", base);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    col.TryRefineAt(static_cast<int64_t>(rng.Below(1u << 16)));
  }
  const auto sizes = col.PieceSizes();
  size_t total = 0;
  for (size_t s : sizes) total += s;
  EXPECT_EQ(total, col.size());
  EXPECT_EQ(sizes.size(), col.NumPieces());
}

/// Property sweep: every kernel choice must produce identical select
/// results on identical query sequences.
class KernelEquivalenceTest : public ::testing::TestWithParam<CrackAlgo> {};

TEST_P(KernelEquivalenceTest, MatchesNaiveOverRandomQueries) {
  // Several morsels (kCrackMorselRows), so the early cracks run the
  // morsel-wise path of every out-of-place tier.
  const auto base = MakeUniform(5 * kCrackMorselRows + 13, 1u << 18, 21);
  CrackerColumn<int64_t> col("a", base);
  ThreadPool pool(4);
  CrackConfig cfg;
  cfg.algo = GetParam();
  cfg.pool = &pool;
  cfg.parallel_threads = 4;
  Rng rng(31337);
  for (int i = 0; i < 120; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(1u << 18));
    const int64_t width = 1 + static_cast<int64_t>(rng.Below(1u << 16));
    ASSERT_EQ(col.SelectRange(lo, lo + width, cfg).size(),
              NaiveCount(base, lo, lo + width))
        << "query " << i;
  }
  EXPECT_TRUE(col.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelEquivalenceTest,
                         ::testing::Values(CrackAlgo::kScalar,
                                           CrackAlgo::kOutOfPlace,
                                           CrackAlgo::kParallel,
                                           CrackAlgo::kSimd));

}  // namespace
}  // namespace holix

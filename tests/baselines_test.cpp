/// Tests for the baseline systems: parallel scans, sorted indexes, and
/// coarse-granular pre-cracking (mP-CCGI).

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/full_scan.h"
#include "baselines/sorted_index.h"
#include "cracking/pre_crack.h"
#include "test_support.h"
#include "util/rng.h"

namespace holix {
namespace {

using test::MakeUniform;
using test::NaiveCount;

class ScanThreadsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ScanThreadsTest, CountMatchesNaive) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  const auto data = MakeUniform(120000, 1 << 20, 1);
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(1 << 20));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.Below(1 << 18));
    ASSERT_EQ(
        ParallelScanCount(data.data(), data.size(), lo, hi, pool, threads),
        NaiveCount(data, lo, hi));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScanThreadsTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelScan, SelectMaterializesPositionsInOrder) {
  ThreadPool pool(4);
  const auto data = MakeUniform(50000, 1000, 3);
  const auto rows =
      ParallelScanSelect(data.data(), data.size(), int64_t{100}, int64_t{200},
                         pool, 4);
  EXPECT_EQ(rows.size(), NaiveCount(data, 100, 200));
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  for (RowId r : rows) {
    ASSERT_GE(data[r], 100);
    ASSERT_LT(data[r], 200);
  }
}

TEST(ParallelScan, EmptyInput) {
  ThreadPool pool(2);
  std::vector<int64_t> empty;
  EXPECT_EQ(ParallelScanCount(empty.data(), 0, int64_t{0}, int64_t{10}, pool,
                              2),
            0u);
}

TEST(SortedIndex, SelectRangeMatchesNaive) {
  ThreadPool pool(4);
  const auto data = MakeUniform(100000, 1 << 20, 4);
  SortedIndex<int64_t> idx("a", data, pool);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(1 << 20));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.Below(1 << 16));
    ASSERT_EQ(idx.SelectRange(lo, hi).size(), NaiveCount(data, lo, hi));
  }
}

TEST(SortedIndex, ValuesSortedAndRowidsValid) {
  ThreadPool pool(2);
  const auto data = MakeUniform(20000, 1000, 6);
  SortedIndex<int64_t> idx("a", data, pool);
  for (size_t i = 1; i < idx.size(); ++i) {
    ASSERT_LE(idx.ValueAt(i - 1), idx.ValueAt(i));
  }
  for (size_t i = 0; i < idx.size(); i += 101) {
    ASSERT_EQ(data[idx.RowIdAt(i)], idx.ValueAt(i));
  }
}

TEST(SortedIndex, FetchRowIdsRoundTrip) {
  ThreadPool pool(2);
  const auto data = MakeUniform(5000, 100, 7);
  SortedIndex<int64_t> idx("a", data, pool);
  const auto range = idx.SelectRange(40, 60);
  const auto rows = idx.FetchRowIds(range);
  EXPECT_EQ(rows.size(), NaiveCount(data, 40, 60));
  for (RowId r : rows) {
    ASSERT_GE(data[r], 40);
    ASSERT_LT(data[r], 60);
  }
}

TEST(SortedIndex, EmptyAndDegenerateRanges) {
  ThreadPool pool(2);
  const auto data = MakeUniform(1000, 100, 8);
  SortedIndex<int64_t> idx("a", data, pool);
  EXPECT_EQ(idx.SelectRange(50, 50).size(), 0u);
  EXPECT_EQ(idx.SelectRange(200, 300).size(), 0u);
  EXPECT_EQ(idx.SelectRange(-10, 200).size(), data.size());
}

TEST(PreCrack, EquiWidthCreatesPieces) {
  const auto data = MakeUniform(100000, 1 << 20, 9);
  CrackerColumn<int64_t> col("a", data);
  PreCrackEquiWidth(col, 16);
  EXPECT_GE(col.NumPieces(), 15u);  // some grid pivots may be degenerate
  EXPECT_TRUE(col.CheckInvariants());
  // Piece sizes should be roughly balanced for uniform data.
  const auto sizes = col.PieceSizes();
  const size_t expected = data.size() / 16;
  for (size_t s : sizes) {
    EXPECT_LT(s, expected * 3);
  }
}

TEST(PreCrack, DegenerateCases) {
  CrackerColumn<int64_t> empty("e", std::vector<int64_t>{});
  PreCrackEquiWidth(empty, 8);
  EXPECT_EQ(empty.NumPieces(), 1u);

  CrackerColumn<int64_t> constant("c", std::vector<int64_t>(100, 5));
  PreCrackEquiWidth(constant, 8);
  EXPECT_EQ(constant.NumPieces(), 1u);  // no value spread to partition

  const auto data = MakeUniform(1000, 100, 10);
  CrackerColumn<int64_t> one("o", data);
  PreCrackEquiWidth(one, 1);  // k < 2 is a no-op
  EXPECT_EQ(one.NumPieces(), 1u);
}

TEST(PreCrack, QueriesAfterPreCrackCorrect) {
  const auto data = MakeUniform(50000, 1 << 16, 11);
  CrackerColumn<int64_t> col("a", data);
  PreCrackEquiWidth(col, 8);
  Rng rng(12);
  for (int i = 0; i < 40; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(1 << 16));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.Below(1 << 12));
    ASSERT_EQ(col.SelectRange(lo, hi).size(), NaiveCount(data, lo, hi));
  }
  EXPECT_TRUE(col.CheckInvariants());
}

}  // namespace
}  // namespace holix

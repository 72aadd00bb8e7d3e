/// Tests for the SIMD crack-in-two tier (crack_kernels_simd.h) and the
/// morsel-driven parallel crack.
///
/// The load-bearing property is *bit identity*: for every dispatch level the
/// SIMD kernel must produce exactly the bytes CrackInTwoOutOfPlace produces
/// (values compared with memcmp, so NaN payloads and -0.0 signs count), and
/// the cut must equal the KeyTraits::Less count. That makes kSimd results
/// deterministic across hosts and lets checksums ignore the ISA.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "cracking/crack_kernels.h"
#include "cracking/crack_kernels_simd.h"
#include "cracking/cracker_column.h"
#include "cracking/parallel_crack.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace holix {
namespace {

/// Every SIMD level this host can execute, portable first.
std::vector<SimdLevel> TestableLevels() {
  std::vector<SimdLevel> levels{SimdLevel::kPortable};
  const int hw = static_cast<int>(DetectHardwareSimdLevel());
  if (hw >= static_cast<int>(SimdLevel::kAvx2))
    levels.push_back(SimdLevel::kAvx2);
  if (hw >= static_cast<int>(SimdLevel::kAvx512))
    levels.push_back(SimdLevel::kAvx512);
  return levels;
}

template <typename T>
std::vector<T> RandomKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t raw = static_cast<int64_t>(rng.Below(2000)) - 500;
    v[i] = static_cast<T>(raw);
  }
  return v;
}

/// Cracks [lo, hi) with CrackInTwoSimd at every testable level and with
/// CrackInTwoOutOfPlace, and asserts byte-identical arrays + equal cuts.
template <typename T>
void ExpectBitIdenticalToOutOfPlace(const std::vector<T>& values, size_t lo,
                                    size_t hi, T pivot) {
  std::vector<RowId> ids(values.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = 1000 + i;

  std::vector<T> v_ref = values;
  std::vector<RowId> id_ref = ids;
  CrackScratch<T> ref_scratch;
  const size_t cut_ref = CrackInTwoOutOfPlace(v_ref.data(), id_ref.data(), lo,
                                              hi, pivot, ref_scratch);
  size_t expected = lo;
  for (size_t i = lo; i < hi; ++i) {
    expected += KeyTraits<T>::Less(values[i], pivot) ? 1 : 0;
  }
  ASSERT_EQ(cut_ref, expected);

  for (const SimdLevel level : TestableLevels()) {
    std::vector<T> v = values;
    std::vector<RowId> id = ids;
    CrackScratch<T> scratch;
    const size_t cut =
        CrackInTwoSimd(v.data(), id.data(), lo, hi, pivot, scratch, level);
    ASSERT_EQ(cut, cut_ref) << "level=" << SimdLevelName(level) << " n="
                            << (hi - lo) << " lo=" << lo;
    // Bitwise (NaN keys compare equal); an empty vector's data() may be
    // null, which memcmp must never receive.
    ASSERT_TRUE(v.empty() ||
                std::memcmp(v.data(), v_ref.data(), v.size() * sizeof(T)) == 0)
        << "level=" << SimdLevelName(level) << " n=" << (hi - lo)
        << " lo=" << lo;
    ASSERT_EQ(id, id_ref) << "level=" << SimdLevelName(level);
  }
}

TEST(SimdDispatch, ReportsALevel) {
  const SimdLevel level = DetectSimdLevel();
  ::testing::Test::RecordProperty("simd_level", SimdLevelName(level));
  std::printf("detected SIMD level: %s (hardware: %s)\n",
              SimdLevelName(level),
              SimdLevelName(DetectHardwareSimdLevel()));
  EXPECT_GE(static_cast<int>(level), 0);
  EXPECT_LE(static_cast<int>(level), 2);
}

TEST(SimdDispatch, ParsesLevelNames) {
  EXPECT_EQ(ParseSimdLevel("portable"), SimdLevel::kPortable);
  EXPECT_EQ(ParseSimdLevel("scalar"), SimdLevel::kPortable);
  EXPECT_EQ(ParseSimdLevel("off"), SimdLevel::kPortable);
  EXPECT_EQ(ParseSimdLevel("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(ParseSimdLevel("avx512"), SimdLevel::kAvx512);
  EXPECT_EQ(ParseSimdLevel("banana"), std::nullopt);
}

template <typename T>
class SimdDifferentialTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<int32_t, int64_t, double>;
TYPED_TEST_SUITE(SimdDifferentialTest, KeyTypes);

// Every vector-width tail: n mod 16 (AVX-512 int32) and n mod 8/4 (all other
// lane counts) sweep 0..15 twice, once for tiny pieces where the whole piece
// is tail and once past a few full vectors.
TYPED_TEST(SimdDifferentialTest, AllTailLengths) {
  using T = TypeParam;
  for (size_t n = 0; n <= 33; ++n) {
    const std::vector<T> values = RandomKeys<T>(n, 11 * n + 1);
    ExpectBitIdenticalToOutOfPlace<T>(values, 0, n, static_cast<T>(400));
  }
  for (size_t n = 240; n <= 257; ++n) {
    const std::vector<T> values = RandomKeys<T>(n, 13 * n + 5);
    ExpectBitIdenticalToOutOfPlace<T>(values, 0, n, static_cast<T>(400));
  }
}

TYPED_TEST(SimdDifferentialTest, UnalignedPieceOffsets) {
  using T = TypeParam;
  const std::vector<T> values = RandomKeys<T>(1024, 97);
  for (const size_t lo : {size_t{1}, size_t{3}, size_t{7}, size_t{9},
                          size_t{15}, size_t{31}}) {
    for (const size_t len : {size_t{0}, size_t{1}, size_t{63}, size_t{777}}) {
      ExpectBitIdenticalToOutOfPlace<T>(values, lo, lo + len,
                                        static_cast<T>(250));
    }
  }
}

TYPED_TEST(SimdDifferentialTest, RandomizedBulkWithDataPivots) {
  using T = TypeParam;
  Rng rng(2026);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t n = 1500 + rng.Below(3000);
    const std::vector<T> values = RandomKeys<T>(n, 31 * trial + 7);
    const T pivot = values[rng.Below(n)];
    ExpectBitIdenticalToOutOfPlace<T>(values, 0, n, pivot);
  }
}

TYPED_TEST(SimdDifferentialTest, AllEqualAndExtremePivots) {
  using T = TypeParam;
  const std::vector<T> values(777, static_cast<T>(42));
  for (const T pivot : {static_cast<T>(41), static_cast<T>(42),
                        static_cast<T>(43)}) {
    ExpectBitIdenticalToOutOfPlace<T>(values, 0, values.size(), pivot);
  }
  const std::vector<T> random = RandomKeys<T>(500, 3);
  ExpectBitIdenticalToOutOfPlace<T>(random, 0, random.size(),
                                    KeyTraits<T>::Lowest());
  ExpectBitIdenticalToOutOfPlace<T>(random, 0, random.size(),
                                    KeyTraits<T>::Highest());
}

// --- Double total-order pins ---------------------------------------------

std::vector<double> SpecialsHeavyDoubles(size_t n, uint64_t seed) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaNs with distinct payloads/signs: memcmp-identity means the kernel may
  // not canonicalize them.
  const double payload_nan = std::bit_cast<double>(uint64_t{0x7FF0000000DEAD01});
  const double negative_nan = std::bit_cast<double>(uint64_t{0xFFF8000000000042});
  const double denormal = std::numeric_limits<double>::denorm_min();
  const double specials[] = {qnan,     payload_nan, negative_nan, inf,
                             -inf,     0.0,         -0.0,         denormal,
                             -denormal, 1.5,        -2.25,        1e300};
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Below(3) == 0) {
      v[i] = specials[rng.Below(std::size(specials))];
    } else {
      v[i] = static_cast<double>(static_cast<int64_t>(rng.Below(2000)) - 1000) /
             4.0;
    }
  }
  return v;
}

TEST(SimdDoubleSpecials, BitIdenticalAcrossLevelsForEveryPivot) {
  const std::vector<double> values = SpecialsHeavyDoubles(700, 1907);
  const double pivots[] = {0.0,
                           -0.0,
                           1.5,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (const double pivot : pivots) {
    ExpectBitIdenticalToOutOfPlace<double>(values, 0, values.size(), pivot);
    ExpectBitIdenticalToOutOfPlace<double>(values, 5, values.size() - 3,
                                           pivot);
  }
}

TEST(SimdDoubleSpecials, NanPivotCutsBelowAllNans) {
  // NaN ranks above +inf in the engine's total order, so "< NaN" must admit
  // every ordered value (including +inf) and reject every NaN payload.
  const std::vector<double> values = SpecialsHeavyDoubles(333, 4);
  const size_t ordered = static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [](double d) { return d == d; }));
  std::vector<RowId> ids(values.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  for (const SimdLevel level : TestableLevels()) {
    std::vector<double> v = values;
    std::vector<RowId> id = ids;
    CrackScratch<double> scratch;
    const size_t cut = CrackInTwoSimd(
        v.data(), id.data(), 0, v.size(),
        std::numeric_limits<double>::quiet_NaN(), scratch, level);
    EXPECT_EQ(cut, ordered) << SimdLevelName(level);
    for (size_t i = 0; i < cut; ++i) ASSERT_EQ(v[i], v[i]);
    for (size_t i = cut; i < v.size(); ++i) ASSERT_NE(v[i], v[i]);
  }
}

TEST(SimdDoubleSpecials, NegativeZeroPivotEqualsPositiveZeroPivot) {
  // -0.0 == +0.0 in the total order: both pivots must cut identically.
  const std::vector<double> values = SpecialsHeavyDoubles(256, 9);
  for (const SimdLevel level : TestableLevels()) {
    std::vector<RowId> ids(values.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    std::vector<double> v_pos = values, v_neg = values;
    std::vector<RowId> id_pos = ids, id_neg = ids;
    CrackScratch<double> s1, s2;
    const size_t cut_pos = CrackInTwoSimd(v_pos.data(), id_pos.data(), 0,
                                          v_pos.size(), 0.0, s1, level);
    const size_t cut_neg = CrackInTwoSimd(v_neg.data(), id_neg.data(), 0,
                                          v_neg.size(), -0.0, s2, level);
    EXPECT_EQ(cut_pos, cut_neg) << SimdLevelName(level);
    EXPECT_EQ(0, std::memcmp(v_pos.data(), v_neg.data(),
                             v_pos.size() * sizeof(double)));
  }
}

// --- Metrics -------------------------------------------------------------

TEST(SimdMetrics, VectorCracksAreCounted) {
  if (static_cast<int>(DetectHardwareSimdLevel()) <
      static_cast<int>(SimdLevel::kAvx2)) {
    GTEST_SKIP() << "no vector tier on this host";
  }
  obs::Counter& ops = obs::MetricsRegistry::Global().GetCounter(
      "holix_crack_simd_ops_total");
  const uint64_t before = ops.Value();
  std::vector<int64_t> v = RandomKeys<int64_t>(4096, 77);
  std::vector<RowId> ids(v.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  CrackScratch<int64_t> scratch;
  CrackInTwoSimd(v.data(), ids.data(), 0, v.size(), int64_t{100}, scratch);
  EXPECT_GT(ops.Value(), before);
}

// --- Morsel-driven parallel crack ----------------------------------------

template <typename T>
void CheckPartitioned(const std::vector<T>& original,
                      const std::vector<T>& cracked,
                      const std::vector<RowId>& ids, size_t lo, size_t hi,
                      size_t cut, T pivot) {
  ASSERT_GE(cut, lo);
  ASSERT_LE(cut, hi);
  for (size_t i = lo; i < cut; ++i)
    ASSERT_TRUE(KeyTraits<T>::Less(cracked[i], pivot)) << i;
  for (size_t i = cut; i < hi; ++i)
    ASSERT_FALSE(KeyTraits<T>::Less(cracked[i], pivot)) << i;
  // (value, rowid) pairs stay together: position i still holds the value
  // rowid ids[i] was loaded with.
  for (size_t i = 0; i < cracked.size(); ++i)
    ASSERT_EQ(original[ids[i]], cracked[i]);
}

TEST(MorselParallelCrack, ManySmallMorselsMatchOracle) {
  const size_t n = 60000;
  for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    for (const size_t morsel_rows : {size_t{64}, size_t{1000}, size_t{1} << 14}) {
      ThreadPool pool(threads);
      std::vector<int64_t> base = RandomKeys<int64_t>(n, threads * 131 + morsel_rows);
      std::vector<int64_t> v = base;
      std::vector<RowId> ids(n);
      for (size_t i = 0; i < n; ++i) ids[i] = i;
      ParallelCrackOptions opts;
      opts.threads = threads;
      opts.min_parallel_piece = 256;
      opts.morsel_rows = morsel_rows;
      const int64_t pivot = 123;
      const size_t cut = ParallelCrackInTwo(v.data(), ids.data(), 0, n, pivot,
                                            pool, opts);
      size_t expected = 0;
      for (const int64_t x : base) expected += x < pivot ? 1 : 0;
      EXPECT_EQ(cut, expected)
          << "threads=" << threads << " morsel_rows=" << morsel_rows;
      CheckPartitioned<int64_t>(base, v, ids, 0, n, cut, pivot);
    }
  }
}

TEST(MorselParallelCrack, SubrangeWithDoubleSpecials) {
  const size_t n = 40000;
  ThreadPool pool(4);
  std::vector<double> base = SpecialsHeavyDoubles(n, 21);
  std::vector<double> v = base;
  std::vector<RowId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  ParallelCrackOptions opts;
  opts.threads = 4;
  opts.min_parallel_piece = 256;
  opts.morsel_rows = 500;
  const size_t lo = 1003, hi = n - 777;
  const double pivot = 0.0;
  const size_t cut =
      ParallelCrackInTwo(v.data(), ids.data(), lo, hi, pivot, pool, opts);
  size_t expected = lo;
  for (size_t i = lo; i < hi; ++i)
    expected += KeyTraits<double>::Less(base[i], pivot) ? 1 : 0;
  EXPECT_EQ(cut, expected);
  for (size_t i = 0; i < lo; ++i)
    ASSERT_EQ(std::bit_cast<uint64_t>(v[i]), std::bit_cast<uint64_t>(base[i]));
  for (size_t i = hi; i < n; ++i)
    ASSERT_EQ(std::bit_cast<uint64_t>(v[i]), std::bit_cast<uint64_t>(base[i]));
  for (size_t i = lo; i < cut; ++i)
    ASSERT_TRUE(KeyTraits<double>::Less(v[i], pivot)) << i;
  for (size_t i = cut; i < hi; ++i)
    ASSERT_FALSE(KeyTraits<double>::Less(v[i], pivot)) << i;
}

TEST(MorselParallelCrack, MorselMetricsAdvance) {
  obs::Counter& morsels = obs::MetricsRegistry::Global().GetCounter(
      "holix_crack_morsels_total");
  const uint64_t before = morsels.Value();
  ThreadPool pool(4);
  const size_t n = 30000;
  std::vector<int64_t> v = RandomKeys<int64_t>(n, 5);
  std::vector<RowId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  ParallelCrackOptions opts;
  opts.threads = 4;
  opts.min_parallel_piece = 256;
  opts.morsel_rows = 1000;
  ParallelCrackInTwo(v.data(), ids.data(), 0, n, int64_t{0}, pool, opts);
  EXPECT_GE(morsels.Value(), before + n / 1000);
}

// --- Morsel cracks racing holistic-style refinement (TSan target) --------

TEST(MorselRace, ParallelSelectsRaceWorkerRefinement) {
  const size_t n = 120000;
  Rng rng(1907);
  std::vector<int64_t> base(n);
  for (size_t i = 0; i < n; ++i)
    base[i] = static_cast<int64_t>(rng.Below(1u << 20));
  CrackerColumn<int64_t> col("race", base);

  ThreadPool crack_pool(3);
  CrackConfig select_cfg;
  select_cfg.algo = CrackAlgo::kParallel;
  select_cfg.pool = &crack_pool;
  select_cfg.parallel_threads = 4;
  select_cfg.min_parallel_piece = 1024;
  select_cfg.morsel_rows = 2048;

  std::atomic<bool> stop{false};
  std::thread refiner([&] {
    Rng wrng(7);
    CrackConfig worker_cfg;
    worker_cfg.algo = CrackAlgo::kSimd;
    while (!stop.load(std::memory_order_acquire)) {
      col.TryRefineAt(static_cast<int64_t>(wrng.Below(1u << 20)), worker_cfg);
    }
  });

  Rng qrng(23);
  for (int q = 0; q < 60; ++q) {
    const int64_t lo = static_cast<int64_t>(qrng.Below(1u << 20));
    const int64_t hi = lo + static_cast<int64_t>(qrng.Below(1u << 18)) + 1;
    const size_t got = col.SelectRange(lo, hi, select_cfg).size();
    size_t expected = 0;
    for (const int64_t x : base) expected += (x >= lo && x < hi) ? 1 : 0;
    ASSERT_EQ(got, expected) << "query " << q << " [" << lo << "," << hi
                             << ")";
  }
  stop.store(true, std::memory_order_release);
  refiner.join();
}

}  // namespace
}  // namespace holix

/// Tests for the SIMD crack-in-two tier (crack_kernels_simd.h) and the
/// morsel-wise crack every out-of-place tier runs (parallel_crack.h).
///
/// The load-bearing property is *bit identity*: for every dispatch level the
/// SIMD kernel must produce exactly the bytes CrackInTwoOutOfPlace produces
/// (values compared with memcmp, so NaN payloads and -0.0 signs count), and
/// the cut must equal the KeyTraits::Less count. Across morsels, the
/// out-of-place, SIMD and parallel tiers must produce the same bytes at
/// every level and thread count. That makes results deterministic across
/// hosts and lets checksums ignore the ISA.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
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

/// Lane rowid of row i at the edges of the 32-bit lane: even rows count
/// down from its last value, 2^32 - 1; odd rows count up from 2^31 - 1,
/// across the sign bit of an epi32 lane (a sign-extending compress or
/// widening would corrupt them). Distinct for i < 2^30.
CrackRowId LaneEdgeId(size_t i) {
  const uint64_t id = i % 2 == 0 ? kRowIdLimit - 1 - i / 2
                                 : (uint64_t{1} << 31) - 1 + i / 2;
  return ToCrackRowId(id);
}

/// Inverse of LaneEdgeId.
size_t LaneEdgePosition(CrackRowId id) {
  return id >= (uint64_t{1} << 31) + (uint64_t{1} << 29)
             ? 2 * static_cast<size_t>(kRowIdLimit - 1 - id)
             : 2 * static_cast<size_t>(id - ((uint64_t{1} << 31) - 1)) + 1;
}

/// Cracks [lo, hi) with CrackInTwoSimd at every testable level and with
/// CrackInTwoOutOfPlace, and asserts byte-identical arrays + equal cuts.
template <typename T>
void ExpectBitIdenticalToOutOfPlace(const std::vector<T>& values, size_t lo,
                                    size_t hi, T pivot) {
  std::vector<CrackRowId> ids(values.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = LaneEdgeId(i);

  std::vector<T> v_ref = values;
  std::vector<CrackRowId> id_ref = ids;
  CrackScratch ref_scratch;
  const size_t cut_ref = CrackInTwoOutOfPlace(v_ref.data(), id_ref.data(), lo,
                                              hi, pivot, ref_scratch);
  size_t expected = lo;
  for (size_t i = lo; i < hi; ++i) {
    expected += KeyTraits<T>::Less(values[i], pivot) ? 1 : 0;
  }
  ASSERT_EQ(cut_ref, expected);

  for (const SimdLevel level : TestableLevels()) {
    std::vector<T> v = values;
    std::vector<CrackRowId> id = ids;
    CrackScratch scratch;
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

// A HOLIX_SIMD value ParseSimdLevel rejects is silently ignored by
// DetectSimdLevel, so a run meant to clamp the level would run at the
// hardware level instead. Fail such a run loudly.
TEST(SimdDispatch, EnvOverrideIsRecognized) {
  const char* env = std::getenv("HOLIX_SIMD");
  if (env == nullptr) GTEST_SKIP() << "HOLIX_SIMD is not set";
  const std::optional<SimdLevel> forced = ParseSimdLevel(env);
  ASSERT_TRUE(forced.has_value())
      << "HOLIX_SIMD=" << env << " is not a level name; use portable, "
      << "avx2 or avx512";
  EXPECT_LE(static_cast<int>(DetectSimdLevel()), static_cast<int>(*forced));
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
  std::vector<CrackRowId> ids(values.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  for (const SimdLevel level : TestableLevels()) {
    std::vector<double> v = values;
    std::vector<CrackRowId> id = ids;
    CrackScratch scratch;
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
    std::vector<CrackRowId> ids(values.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    std::vector<double> v_pos = values, v_neg = values;
    std::vector<CrackRowId> id_pos = ids, id_neg = ids;
    CrackScratch s1, s2;
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

TEST(SimdMetrics, VectorCracksAreCountedOncePerCrack) {
  if (static_cast<int>(DetectHardwareSimdLevel()) <
      static_cast<int>(SimdLevel::kAvx2)) {
    GTEST_SKIP() << "no vector tier on this host";
  }
  obs::Counter& ops = obs::MetricsRegistry::Global().GetCounter(
      "holix_crack_simd_ops_total");
  std::vector<int64_t> v = RandomKeys<int64_t>(3 * kCrackMorselRows + 7, 77);
  std::vector<CrackRowId> ids(v.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const uint64_t before = ops.Value();
  MorselCrackInTwo(v.data(), ids.data(), 0, v.size(), int64_t{100},
                   DetectHardwareSimdLevel());
  // One crack over four morsels is one SIMD op, so simd ops / cracks <= 1.
  EXPECT_EQ(ops.Value(), before + 1);
  MorselCrackInTwo(v.data(), ids.data(), 0, v.size(), int64_t{100},
                   SimdLevel::kPortable);
  EXPECT_EQ(ops.Value(), before + 1);
}

// The first query of a column has both bounds in its one piece; under
// kSimd it cracks at the SIMD tier (two morsel-wise passes), not with the
// scalar three-way kernel.
TEST(SimdMetrics, FirstSelectCracksAtTheConfiguredTier) {
  if (DetectSimdLevel() == SimdLevel::kPortable) {
    GTEST_SKIP() << "no vector tier dispatched";
  }
  obs::Counter& ops = obs::MetricsRegistry::Global().GetCounter(
      "holix_crack_simd_ops_total");
  obs::Counter& cracks =
      obs::MetricsRegistry::Global().GetCounter("holix_cracks_total");
  const std::vector<int64_t> base =
      RandomKeys<int64_t>(3 * kCrackMorselRows + 7, 78);
  CrackerColumn<int64_t> col("first", base);
  CrackConfig cfg;
  cfg.algo = CrackAlgo::kSimd;
  const uint64_t ops_before = ops.Value();
  const uint64_t cracks_before = cracks.Value();
  const PositionRange r = col.SelectRange(100, 900, cfg);
  EXPECT_EQ(ops.Value(), ops_before + 2);
  EXPECT_EQ(cracks.Value(), cracks_before + 2);
  size_t expected = 0;
  for (const int64_t x : base) expected += (x >= 100 && x < 900) ? 1 : 0;
  EXPECT_EQ(r.size(), expected);
  EXPECT_EQ(col.NumPieces(), 3u);
  EXPECT_TRUE(col.CheckInvariants());
}

// --- Morsel-wise crack ------------------------------------------------------

template <typename T>
void CheckPartitioned(const std::vector<T>& original,
                      const std::vector<T>& cracked,
                      const std::vector<CrackRowId>& ids, size_t lo, size_t hi,
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
    ASSERT_EQ(std::memcmp(&original[ids[i]], &cracked[i], sizeof(T)), 0) << i;
}

/// Keys for the cross-tier tests; doubles carry NaN payloads, +-inf and
/// -0.0 beside +0.0.
template <typename T>
std::vector<T> TierKeys(size_t n, uint64_t seed) {
  if constexpr (std::is_same_v<T, double>) {
    return SpecialsHeavyDoubles(n, seed);
  } else {
    return RandomKeys<T>(n, seed);
  }
}

template <typename T>
class MorselTierTest : public ::testing::Test {};
TYPED_TEST_SUITE(MorselTierTest, KeyTypes);

// A piece of several morsels plus a ragged tail: the out-of-place tier (the
// portable level, in order), the SIMD tier at every level and the parallel
// tier at 1-4 threads must leave the same bytes, for pivots that send none,
// ~1%, ~50% and all (all ordered, for doubles) rows low. The rowids sit at
// the lane's edges, from 2^31 - 1 up to 2^32 - 1.
TYPED_TEST(MorselTierTest, TiersAreByteIdenticalAcrossMorsels) {
  using T = TypeParam;
  const size_t n = 5 * kCrackMorselRows + 13;
  const std::vector<T> base = TierKeys<T>(n, 4242);
  std::vector<T> ranked = base;
  std::sort(ranked.begin(), ranked.end(),
            [](T a, T b) { return KeyTraits<T>::Less(a, b); });
  std::vector<CrackRowId> base_ids(n);
  for (size_t i = 0; i < n; ++i) base_ids[i] = LaneEdgeId(i);
  ThreadPool pool(3);
  for (const T pivot : {ranked[0], ranked[n / 100], ranked[n / 2],
                        KeyTraits<T>::Highest()}) {
    std::vector<T> v_ref = base;
    std::vector<CrackRowId> id_ref = base_ids;
    const size_t cut_ref = MorselCrackInTwo(v_ref.data(), id_ref.data(), 0, n,
                                            pivot, SimdLevel::kPortable);
    size_t expected = 0;
    for (const T x : base) expected += KeyTraits<T>::Less(x, pivot) ? 1 : 0;
    ASSERT_EQ(cut_ref, expected);
    std::vector<CrackRowId> positions(n);
    for (size_t i = 0; i < n; ++i) {
      positions[i] = ToCrackRowId(LaneEdgePosition(id_ref[i]));
    }
    CheckPartitioned<T>(base, v_ref, positions, 0, n, cut_ref, pivot);

    for (const SimdLevel level : TestableLevels()) {
      for (size_t threads = 1; threads <= 4; ++threads) {
        std::vector<T> v = base;
        std::vector<CrackRowId> id = base_ids;
        const size_t cut = MorselCrackInTwo(v.data(), id.data(), 0, n, pivot,
                                            level, &pool, threads);
        ASSERT_EQ(cut, cut_ref)
            << SimdLevelName(level) << " threads=" << threads;
        ASSERT_EQ(std::memcmp(v.data(), v_ref.data(), n * sizeof(T)), 0)
            << SimdLevelName(level) << " threads=" << threads;
        ASSERT_EQ(id, id_ref) << SimdLevelName(level) << " threads=" << threads;
      }
    }
  }
}

// The same identity through CrackerColumn's Partition: every out-of-place
// CrackAlgo leaves the same column bytes after the same queries and
// refinements. Each pivot splits a piece of several morsels; the first
// query's bounds both fall in the one uncracked piece.
TYPED_TEST(MorselTierTest, CrackerColumnTiersAreByteIdentical) {
  using T = TypeParam;
  const size_t n = 5 * kCrackMorselRows + 13;
  const std::vector<T> base = TierKeys<T>(n, 99);
  std::vector<T> ranked = base;
  std::sort(ranked.begin(), ranked.end(),
            [](T a, T b) { return KeyTraits<T>::Less(a, b); });
  ThreadPool pool(3);
  auto run = [&](CrackAlgo algo, size_t threads) {
    CrackerColumn<T> col("tiers", base);
    CrackConfig cfg;
    cfg.algo = algo;
    cfg.pool = &pool;
    cfg.parallel_threads = threads;
    col.SelectRange(ranked[n / 3], ranked[2 * n / 3], cfg);
    for (const size_t rank : {n / 2, n / 4, 3 * n / 4}) {
      EXPECT_TRUE(col.TryRefineAt(ranked[rank], cfg)) << rank;
    }
    // Its bounds fall in two different pieces of more than one morsel.
    col.SelectRange(ranked[n / 8], ranked[5 * n / 8], cfg);
    EXPECT_TRUE(col.CheckInvariants());
    std::vector<T> v(n);
    std::vector<RowId> id(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = col.ValueAtUnsafe(i);
      id[i] = col.RowIdAtUnsafe(i);
    }
    return std::make_pair(v, id);
  };
  const auto ref = run(CrackAlgo::kOutOfPlace, 1);
  std::vector<std::pair<CrackAlgo, size_t>> tiers{{CrackAlgo::kSimd, 1}};
  for (size_t threads = 1; threads <= 4; ++threads) {
    tiers.push_back({CrackAlgo::kParallel, threads});
  }
  for (const auto& [algo, threads] : tiers) {
    const auto got = run(algo, threads);
    ASSERT_EQ(std::memcmp(got.first.data(), ref.first.data(), n * sizeof(T)),
              0)
        << CrackAlgoName(algo) << " threads=" << threads;
    ASSERT_EQ(got.second, ref.second)
        << CrackAlgoName(algo) << " threads=" << threads;
  }
}

TEST(MorselParallelCrack, ManyMorselsMatchOracle) {
  const size_t n = 20 * kCrackMorselRows + 77;
  for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<int64_t> base = RandomKeys<int64_t>(n, threads * 131);
    std::vector<int64_t> v = base;
    std::vector<CrackRowId> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = i;
    const int64_t pivot = 123;
    const size_t cut = MorselCrackInTwo(v.data(), ids.data(), 0, n, pivot,
                                        DetectSimdLevel(), &pool, threads);
    size_t expected = 0;
    for (const int64_t x : base) expected += x < pivot ? 1 : 0;
    EXPECT_EQ(cut, expected) << "threads=" << threads;
    CheckPartitioned<int64_t>(base, v, ids, 0, n, cut, pivot);
  }
}

TEST(MorselParallelCrack, SubrangeWithDoubleSpecials) {
  const size_t n = 4 * kCrackMorselRows;
  ThreadPool pool(4);
  std::vector<double> base = SpecialsHeavyDoubles(n, 21);
  std::vector<double> v = base;
  std::vector<CrackRowId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  const size_t lo = 1003, hi = n - 777;
  const double pivot = 0.0;
  const size_t cut = MorselCrackInTwo(v.data(), ids.data(), lo, hi, pivot,
                                      DetectSimdLevel(), &pool, 4);
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
  const size_t n = 8 * kCrackMorselRows;
  std::vector<int64_t> v = RandomKeys<int64_t>(n, 5);
  std::vector<CrackRowId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  MorselCrackInTwo(v.data(), ids.data(), 0, n, int64_t{0}, DetectSimdLevel(),
                   &pool, 4);
  EXPECT_EQ(morsels.Value(), before + 8);
}

// --- Bounded scratch -------------------------------------------------------

// Every out-of-place tier cracks through one-morsel scratch: no thread's
// scratch exceeds one morsel of 8-byte keys and rowids plus padding, however
// large the piece, and a thread's scratch is released when it exits.
TEST(CrackScratchBound, NoThreadExceedsOneMorselPlusPadding) {
  constexpr double kPerThreadBound =
      (kCrackMorselRows + 64) * (sizeof(int64_t) + sizeof(CrackRowId));
  obs::Gauge& live = obs::MetricsRegistry::Global().GetGauge(
      "holix_crack_scratch_bytes");
  const size_t n = size_t{1} << 20;
  std::vector<int64_t> base(n);
  Rng rng(8);
  for (auto& x : base) x = static_cast<int64_t>(rng.Below(1u << 30));

  for (const CrackAlgo algo :
       {CrackAlgo::kOutOfPlace, CrackAlgo::kSimd, CrackAlgo::kParallel}) {
    const double before = live.Value();
    ThreadPool pool(3);
    const size_t participants = algo == CrackAlgo::kParallel ? 4 : 1;
    std::thread cracker([&] {
      CrackerColumn<int64_t> col("bound", base);
      CrackConfig cfg;
      cfg.algo = algo;
      cfg.pool = &pool;
      cfg.parallel_threads = 4;
      // Bisect the domain: the first crack splits all 2^20 rows, the
      // smallest pieces cracked still span four morsels.
      for (const int64_t eighth : {4, 2, 6, 1, 3, 5, 7}) {
        ASSERT_TRUE(col.TryRefineAt(eighth << 27, cfg)) << eighth;
        EXPECT_LE(static_cast<double>(ThreadLocalCrackScratch().bytes()),
                  kPerThreadBound)
            << CrackAlgoName(algo);
        EXPECT_LE(live.Value() - before, participants * kPerThreadBound)
            << CrackAlgoName(algo);
      }
      EXPECT_GT(ThreadLocalCrackScratch().bytes(), 0u) << CrackAlgoName(algo);
    });
    cracker.join();
    // The cracking thread has exited: its scratch is gone from the gauge.
    EXPECT_LE(live.Value() - before, (participants - 1) * kPerThreadBound)
        << CrackAlgoName(algo);
  }
}

// --- Morsel cracks racing holistic-style refinement (TSan target) --------

TEST(MorselRace, ParallelSelectsRaceWorkerRefinement) {
  const size_t n = size_t{1} << 19;
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

/// Typed tests: the cracking stack must behave identically for int32,
/// int64 and double key columns (the engine instantiates all three;
/// doubles order through the KeyTraits<double> total order).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "cracking/cracker_column.h"
#include "cracking/cracker_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace holix {
namespace {

template <typename T>
class TypedCrackerTest : public ::testing::Test {
 protected:
  static std::vector<T> MakeUniform(size_t n, int64_t domain, uint64_t seed) {
    Rng rng(seed);
    std::vector<T> v(n);
    for (auto& x : v) x = static_cast<T>(rng.Below(domain));
    return v;
  }

  static size_t NaiveCount(const std::vector<T>& v, T lo, T hi) {
    size_t c = 0;
    for (T x : v) c += (x >= lo && x < hi) ? 1 : 0;
    return c;
  }
};

using KeyTypes = ::testing::Types<int32_t, int64_t, double>;
TYPED_TEST_SUITE(TypedCrackerTest, KeyTypes);

TYPED_TEST(TypedCrackerTest, SelectMatchesNaive) {
  const auto base = this->MakeUniform(50000, 1 << 20, 1);
  CrackerColumn<TypeParam> col("a", base);
  Rng rng(2);
  for (int i = 0; i < 80; ++i) {
    const TypeParam lo = static_cast<TypeParam>(rng.Below(1 << 20));
    const TypeParam hi =
        static_cast<TypeParam>(std::min<int64_t>((1 << 20), lo + 1 + rng.Below(1 << 16)));
    ASSERT_EQ(col.SelectRange(lo, hi).size(), this->NaiveCount(base, lo, hi));
  }
  EXPECT_TRUE(col.CheckInvariants());
}

TYPED_TEST(TypedCrackerTest, RefineAndInvariants) {
  const auto base = this->MakeUniform(30000, 1 << 16, 3);
  CrackerColumn<TypeParam> col("a", base);
  Rng rng(4);
  size_t cracks = 0;
  for (int i = 0; i < 200; ++i) {
    cracks += col.TryRefineAt(static_cast<TypeParam>(rng.Below(1 << 16)))
                  ? 1
                  : 0;
  }
  EXPECT_GT(cracks, 100u);
  EXPECT_EQ(col.NumPieces(), cracks + 1);
  EXPECT_TRUE(col.CheckInvariants());
}

TYPED_TEST(TypedCrackerTest, ExtremeDomainValues) {
  using KT = KeyTraits<TypeParam>;
  // Lowest() is INT_MIN for the integer types, -inf for double; `top` is
  // numeric max (DBL_MAX for double), `below_top` its total-order
  // predecessor (max-1, or nextdown(DBL_MAX)).
  const TypeParam lo = KT::Lowest();
  const TypeParam top = std::numeric_limits<TypeParam>::max();
  const TypeParam below_top = KT::FromRank(KT::ToRank(top) - 1);
  std::vector<TypeParam> base = {lo, -1, 0, 1, below_top, top};
  CrackerColumn<TypeParam> col("a", base);
  EXPECT_EQ(col.SelectRange(lo, top).size(), 5u);  // everything except top
  EXPECT_EQ(col.SelectRange(lo, std::nullopt).size(), 6u);
  EXPECT_EQ(col.SelectRange(0, 2).size(), 2u);
  EXPECT_TRUE(col.CheckInvariants());
}

TYPED_TEST(TypedCrackerTest, CrackerIndexLookups) {
  CrackerIndex<TypeParam> idx;
  idx.Insert(10, 5);
  idx.Insert(20, 9);
  const auto piece = idx.FindPiece(15, 100);
  EXPECT_EQ(piece.begin, 5u);
  EXPECT_EQ(piece.end, 9u);
  EXPECT_EQ(*piece.lo_value, 10);
  EXPECT_EQ(*piece.hi_value, 20);
}

TYPED_TEST(TypedCrackerTest, RippleInsertTyped) {
  const auto base = this->MakeUniform(5000, 1000, 5);
  CrackerColumn<TypeParam> col("a", base);
  col.SelectRange(200, 600);
  const size_t before = col.SelectRange(300, 310).size();
  col.pending().AddInsert(static_cast<TypeParam>(305), 99999);
  col.MergePendingInRange(static_cast<TypeParam>(300),
                          static_cast<TypeParam>(310));
  EXPECT_EQ(col.SelectRange(300, 310).size(), before + 1);
  EXPECT_TRUE(col.CheckInvariants());
}

// --- Warm restore: one-pass RestorePieces against the re-crack path ------

/// The input of one restore: base rows (rowid = index), queued updates and
/// the saved pivots (ascending).
template <typename T>
struct RestoreCase {
  std::vector<T> base;
  std::vector<std::pair<T, RowId>> inserts;
  std::vector<std::pair<T, RowId>> deletes;
  std::vector<T> pivots;
};

template <typename T>
void QueueUpdates(CrackerColumn<T>& col, const RestoreCase<T>& c) {
  for (const auto& [v, rid] : c.inserts) col.pending().AddInsert(v, rid);
  for (const auto& [v, rid] : c.deletes) col.pending().AddDelete(v, rid);
}

/// The re-crack restore: copy the base, Ripple-merge every queued update,
/// then crack serially at each pivot in ascending order.
template <typename T>
std::unique_ptr<CrackerColumn<T>> RestoreByCracking(const RestoreCase<T>& c) {
  auto col = std::make_unique<CrackerColumn<T>>("a", c.base);
  QueueUpdates(*col, c);
  col->MergePendingInRange(KeyTraits<T>::Lowest(), std::nullopt);
  for (T w : c.pivots) col->CrackAtBlocking(w);
  return col;
}

/// The one-pass restore of an empty cracker from the base image.
template <typename T>
std::unique_ptr<CrackerColumn<T>> RestoreInOnePass(const RestoreCase<T>& c,
                                                   ThreadPool* pool) {
  auto col = std::make_unique<CrackerColumn<T>>("a", std::vector<T>{},
                                                std::vector<RowId>{});
  QueueUpdates(*col, c);
  col->RestorePieces(c.pivots, c.base, pool);
  return col;
}

/// Boundaries as (rank, position): ranks compare NaN keys by value.
template <typename T>
std::vector<std::pair<uint64_t, size_t>> Boundaries(
    const CrackerColumn<T>& col) {
  std::vector<std::pair<uint64_t, size_t>> out;
  for (const auto& [v, pos] : col.ExportBoundaries()) {
    out.emplace_back(KeyTraits<T>::ToRank(v), pos);
  }
  return out;
}

/// Every piece's rows as a sorted multiset of (rank, rowid).
template <typename T>
std::vector<std::vector<std::pair<uint64_t, RowId>>> PieceMultisets(
    const CrackerColumn<T>& col) {
  std::vector<std::vector<std::pair<uint64_t, RowId>>> out;
  size_t pos = 0;
  for (size_t len : col.PieceSizes()) {
    std::vector<std::pair<uint64_t, RowId>> piece;
    for (size_t i = pos; i < pos + len; ++i) {
      piece.emplace_back(KeyTraits<T>::ToRank(col.ValueAtUnsafe(i)),
                         col.RowIdAtUnsafe(i));
    }
    std::sort(piece.begin(), piece.end());
    out.push_back(std::move(piece));
    pos += len;
  }
  return out;
}

/// The physical layout, byte for byte: (value bits, rowid) by position.
template <typename T>
std::vector<std::pair<uint64_t, RowId>> Layout(const CrackerColumn<T>& col) {
  std::vector<std::pair<uint64_t, RowId>> out(col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    const T v = col.ValueAtUnsafe(i);
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    out[i] = {bits, col.RowIdAtUnsafe(i)};
  }
  return out;
}

template <typename T>
void ExpectRestoresAgree(const RestoreCase<T>& c) {
  const auto cracked = RestoreByCracking(c);
  ThreadPool pool(3);
  const auto serial = RestoreInOnePass(c, nullptr);
  const auto parallel = RestoreInOnePass(c, &pool);
  ASSERT_TRUE(cracked->CheckInvariants());
  ASSERT_TRUE(serial->CheckInvariants());
  ASSERT_TRUE(parallel->CheckInvariants());
  ASSERT_EQ(serial->size(), cracked->size());
  EXPECT_EQ(Boundaries(*serial), Boundaries(*cracked));
  EXPECT_EQ(PieceMultisets(*serial), PieceMultisets(*cracked));
  EXPECT_EQ(KeyTraits<T>::ToRank(serial->MinValue()),
            KeyTraits<T>::ToRank(cracked->MinValue()));
  EXPECT_EQ(KeyTraits<T>::ToRank(serial->MaxValue()),
            KeyTraits<T>::ToRank(cracked->MaxValue()));
  // One thread or four: the same bytes.
  EXPECT_EQ(Layout(*parallel), Layout(*serial));
  EXPECT_EQ(Boundaries(*parallel), Boundaries(*serial));
  EXPECT_EQ(serial->pending().PendingInserts(), 0u);
  EXPECT_EQ(serial->pending().PendingDeletes(), 0u);
  EXPECT_EQ(serial->stats().merged_inserts.load(), c.inserts.size());
  EXPECT_EQ(serial->stats().merged_deletes.load(), c.deletes.size());
}

/// Base of \p n uniform rows, inserts appended after it, and deletes of
/// base rows, of appended rows and of absent rows (a wrong value for a
/// live rowid, an unknown rowid, and a repeated delete).
template <typename T>
RestoreCase<T> UpdatedCase(size_t n, int64_t domain, uint64_t seed) {
  RestoreCase<T> c;
  Rng rng(seed);
  c.base.resize(n);
  for (T& x : c.base) x = static_cast<T>(rng.Below(domain));
  for (size_t k = 0; k < 64; ++k) {
    c.inserts.emplace_back(static_cast<T>(rng.Below(domain)), n + k);
  }
  for (size_t k = 0; k < 16; ++k) {
    const RowId r = rng.Below(n);
    c.deletes.emplace_back(c.base[r], r);
  }
  c.deletes.push_back(c.deletes.front());                 // repeated
  c.deletes.emplace_back(c.inserts[5].first, n + 5);      // appended
  c.deletes.emplace_back(c.inserts[9].first, n + 9);      // appended
  c.deletes.emplace_back(static_cast<T>(domain + 3), 1);  // wrong value
  c.deletes.emplace_back(c.base[2], n + 1000);            // unknown rowid
  return c;
}

template <typename T>
std::vector<T> SortedDistinctPivots(size_t count, int64_t domain,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<T> p;
  for (size_t i = 0; i < count; ++i) {
    p.push_back(static_cast<T>(rng.Below(domain)));
  }
  std::sort(p.begin(), p.end());
  p.erase(std::unique(p.begin(), p.end()), p.end());
  return p;
}

TYPED_TEST(TypedCrackerTest, RestorePiecesWithoutPivotsAppliesUpdates) {
  ExpectRestoresAgree(UpdatedCase<TypeParam>(5000, 1 << 16, 11));
}

TYPED_TEST(TypedCrackerTest, RestorePiecesAtOnePivot) {
  auto c = UpdatedCase<TypeParam>(5000, 1 << 16, 12);
  c.pivots = {static_cast<TypeParam>(1 << 15)};
  ExpectRestoresAgree(c);
}

TYPED_TEST(TypedCrackerTest, RestorePiecesAtManyPivotsAcrossMorsels) {
  // Over two 64Ki-row morsels, so the parallel passes really split work.
  auto c = UpdatedCase<TypeParam>(140000, 1 << 20, 13);
  c.pivots = SortedDistinctPivots<TypeParam>(256, 1 << 20, 14);
  ExpectRestoresAgree(c);
}

TYPED_TEST(TypedCrackerTest, RestorePiecesWithPivotsOutsideTheDomain) {
  using KT = KeyTraits<TypeParam>;
  auto c = UpdatedCase<TypeParam>(3000, 1000, 15);
  c.pivots = {KT::Lowest(), static_cast<TypeParam>(-5),
              static_cast<TypeParam>(500), static_cast<TypeParam>(5000),
              KT::Highest()};
  ExpectRestoresAgree(c);
}

TYPED_TEST(TypedCrackerTest, RestorePiecesOfAnAllEqualColumn) {
  RestoreCase<TypeParam> c;
  c.base.assign(4000, static_cast<TypeParam>(7));
  c.inserts = {{static_cast<TypeParam>(7), 4000},
               {static_cast<TypeParam>(8), 4001}};
  c.deletes = {{static_cast<TypeParam>(7), 17},
               {static_cast<TypeParam>(7), 4000}};
  c.pivots = {static_cast<TypeParam>(5), static_cast<TypeParam>(7),
              static_cast<TypeParam>(8)};
  ExpectRestoresAgree(c);
}

TYPED_TEST(TypedCrackerTest, RestorePiecesOfAnEmptyBase) {
  RestoreCase<TypeParam> c;
  c.inserts = {{static_cast<TypeParam>(3), 0}, {static_cast<TypeParam>(1), 1}};
  c.deletes = {{static_cast<TypeParam>(3), 0}, {static_cast<TypeParam>(9), 7}};
  c.pivots = {static_cast<TypeParam>(2), static_cast<TypeParam>(4)};
  ExpectRestoresAgree(c);
  RestoreCase<TypeParam> nothing;
  nothing.pivots = c.pivots;
  ExpectRestoresAgree(nothing);
}

TYPED_TEST(TypedCrackerTest, RestorePiecesRejectsBadPreconditions) {
  CrackerColumn<TypeParam> col("a", this->MakeUniform(1000, 1000, 16));
  const std::vector<TypeParam> unsorted = {static_cast<TypeParam>(5),
                                           static_cast<TypeParam>(3)};
  EXPECT_THROW(col.RestorePieces(unsorted), std::invalid_argument);
  col.SelectRange(100, 200);
  EXPECT_THROW(col.RestorePieces({static_cast<TypeParam>(50)}),
               std::logic_error);
}

// --- The 32-bit rowid lane ------------------------------------------------

/// Rowid i at the edges of the cracker's 32-bit lane: even i count down
/// from its last value, 2^32 - 1; odd i count up from 2^31 - 1, across the
/// sign bit of an epi32 lane. Distinct for i < 2^30.
RowId LaneEdgeRowId(size_t i) {
  return i % 2 == 0 ? kRowIdLimit - 1 - i / 2 : (RowId{1} << 31) - 1 + i / 2;
}

/// Sorted (rank, rowid) pairs of rows.
template <typename T>
std::vector<std::pair<uint64_t, RowId>> Ranked(
    const std::vector<std::pair<T, RowId>>& rows) {
  std::vector<std::pair<uint64_t, RowId>> out;
  for (const auto& [v, r] : rows) out.emplace_back(KeyTraits<T>::ToRank(v), r);
  std::sort(out.begin(), out.end());
  return out;
}

/// The rows \p range of \p col hands out, as widened 64-bit rowids.
template <typename T>
std::vector<std::pair<T, RowId>> ScannedRows(const CrackerColumn<T>& col,
                                             PositionRange range) {
  std::vector<std::pair<T, RowId>> out;
  col.ScanRange(range, [&](T v, RowId r) { out.emplace_back(v, r); });
  return out;
}

/// The oracle: the rows of \p live with lo <= value < hi.
template <typename T>
std::vector<std::pair<T, RowId>> RowsIn(
    const std::vector<std::pair<T, RowId>>& live, T lo, T hi) {
  std::vector<std::pair<T, RowId>> out;
  for (const auto& row : live) {
    if (!KeyTraits<T>::Less(row.first, lo) &&
        KeyTraits<T>::Less(row.first, hi)) {
      out.push_back(row);
    }
  }
  return out;
}

// Rowids from 2^31 - 1 up to 2^32 - 1 come back whole through every crack
// tier, FetchRowIds and Ripple inserts and deletes.
TYPED_TEST(TypedCrackerTest, LaneEdgeRowIdsSurviveCracksAndRippleMerges) {
  using T = TypeParam;
  const size_t n = 3 * kCrackMorselRows + 5;
  const auto values = this->MakeUniform(n, 1 << 16, 21);
  std::vector<RowId> rowids(n);
  std::vector<std::pair<T, RowId>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rowids[i] = LaneEdgeRowId(i);
    rows[i] = {values[i], rowids[i]};
  }
  const T lo = static_cast<T>(1000), hi = static_cast<T>(20000);
  ThreadPool pool(3);
  for (const CrackAlgo algo : {CrackAlgo::kScalar, CrackAlgo::kOutOfPlace,
                               CrackAlgo::kSimd, CrackAlgo::kParallel}) {
    SCOPED_TRACE(CrackAlgoName(algo));
    CrackerColumn<T> col("a", values, rowids);
    CrackConfig cfg;
    cfg.algo = algo;
    cfg.pool = &pool;
    cfg.parallel_threads = 4;
    auto live = rows;
    // The first select: both bounds in the one piece.
    PositionRange r = col.SelectRange(lo, hi, cfg);
    EXPECT_EQ(Ranked(ScannedRows(col, r)), Ranked(RowsIn(live, lo, hi)));
    PositionList fetched = col.FetchRowIds(r);
    std::sort(fetched.begin(), fetched.end());
    PositionList expected;
    for (const auto& row : RowsIn(live, lo, hi)) expected.push_back(row.second);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fetched, expected);

    // Ripple: inserts with fresh rowids between the two edge runs, and
    // deletes of edge rows from both runs.
    for (size_t k = 0; k < 40; ++k) {
      const T v = static_cast<T>(500 + 997 * k);
      const RowId rid = (RowId{1} << 31) + n + k;
      col.pending().AddInsert(v, rid);
      live.emplace_back(v, rid);
    }
    for (const size_t i : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           n / 2, n - 1}) {
      col.pending().AddDelete(values[i], rowids[i]);
      live.erase(std::find(live.begin(), live.end(), rows[i]));
    }
    const T top = static_cast<T>(1 << 16);
    r = col.SelectRange(static_cast<T>(0), top, cfg);
    EXPECT_EQ(col.pending().PendingInserts(), 0u);
    EXPECT_EQ(col.pending().PendingDeletes(), 0u);
    EXPECT_EQ(Ranked(ScannedRows(col, r)), Ranked(live));
    // A select whose bounds span pieces after the merge.
    r = col.SelectRange(static_cast<T>(300), static_cast<T>(30000), cfg);
    EXPECT_EQ(Ranked(ScannedRows(col, r)),
              Ranked(RowsIn(live, static_cast<T>(300), static_cast<T>(30000))));
    EXPECT_TRUE(col.CheckInvariants());
  }
}

// RestorePieces narrows pending inserts into the lane and widens them back
// whole; deletes of edge rowids remove exactly their rows.
TYPED_TEST(TypedCrackerTest, RestorePiecesKeepsLaneEdgeRowIds) {
  using T = TypeParam;
  RestoreCase<T> c;
  c.base = this->MakeUniform(5000, 1 << 16, 22);
  Rng rng(23);
  for (size_t k = 0; k < 64; ++k) {
    c.inserts.emplace_back(static_cast<T>(rng.Below(1 << 16)),
                           LaneEdgeRowId(k));
  }
  c.deletes = {{c.base[7], 7},
               {c.inserts[4].first, c.inserts[4].second},
               {c.inserts[5].first, c.inserts[5].second},
               {c.inserts[0].first, c.inserts[0].second}};
  c.pivots = SortedDistinctPivots<T>(16, 1 << 16, 24);
  ExpectRestoresAgree(c);

  std::vector<std::pair<T, RowId>> live;
  for (size_t i = 0; i < c.base.size(); ++i) {
    if (i != 7) live.emplace_back(c.base[i], i);
  }
  for (size_t k = 0; k < c.inserts.size(); ++k) {
    if (k != 0 && k != 4 && k != 5) live.push_back(c.inserts[k]);
  }
  const auto col = RestoreInOnePass(c, nullptr);
  EXPECT_EQ(Ranked(ScannedRows(*col, {0, col->size()})), Ranked(live));
}

TEST(CrackerLane, ExplicitRowIdsPastTheLaneAreRejected) {
  EXPECT_THROW(CrackerColumn<int64_t>("a", {1, 2}, {0, kRowIdLimit}),
               std::out_of_range);
  CrackerColumn<int64_t> col("a", {1, 2}, {0, kRowIdLimit - 1});
  EXPECT_EQ(col.RowIdAtUnsafe(1), kRowIdLimit - 1);
  EXPECT_EQ(col.FetchRowIds({0, 2}), (PositionList{0, kRowIdLimit - 1}));
}

TEST(DoubleCrackerRestore, NaNNegZeroAndInfinitiesRestoreLikeCracks) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RestoreCase<double> c;
  Rng rng(17);
  for (size_t i = 0; i < 3000; ++i) {
    switch (i % 7) {
      case 0: c.base.push_back(nan); break;
      case 1: c.base.push_back(-0.0); break;
      case 2: c.base.push_back(kInf); break;
      case 3: c.base.push_back(-kInf); break;
      default: c.base.push_back(static_cast<double>(rng.Below(1000)) - 500.25);
    }
  }
  c.inserts = {{nan, 3000}, {0.0, 3001}, {-kInf, 3002}, {-0.0, 3003}};
  c.deletes = {{nan, 0},  {0.0, 1},     {kInf, 2},   {-kInf, 3},
               {nan, 3000}, {-0.0, 3001}, {nan, 4}};  // row 4 holds a number
  c.pivots = {-kInf, -100.5, 0.0, 250.0, kInf, nan};
  ExpectRestoresAgree(c);
  c.pivots = {-0.0};
  ExpectRestoresAgree(c);
}

// --- double-only total-order semantics at the cracking layer -------------

TEST(DoubleCrackerSemantics, SpecialKeysOrderAndSelect) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> base = {nan, -kInf, -0.0, 0.0, 1.5, kInf, 3.25};
  CrackerColumn<double> col("d", base);
  // -0.0 and +0.0 are the same key.
  EXPECT_EQ(col.SelectRange(0.0, 1.0).size(), 2u);
  // A half-open high at the NaN key selects everything below it.
  EXPECT_EQ(col.SelectRange(-kInf, KeyTraits<double>::Highest()).size(), 6u);
  // The closed tail reaches the NaN key itself.
  EXPECT_EQ(col.SelectRange(-kInf, std::nullopt).size(), 7u);
  EXPECT_EQ(col.SelectRange(nan, std::nullopt).size(), 1u);
  // +inf is an ordinary orderable key just below NaN.
  EXPECT_EQ(col.SelectRange(kInf, KeyTraits<double>::Highest()).size(), 1u);
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(DoubleCrackerSemantics, NaNRowsNeverWedgeTheKernels) {
  // A column salted with NaNs must crack to a consistent piece structure
  // with every kernel (with raw `<` the Hoare kernel would spin or tear).
  Rng rng(7);
  std::vector<double> base(20000);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = (i % 97 == 0) ? std::numeric_limits<double>::quiet_NaN()
                            : static_cast<double>(rng.Below(1 << 16)) + 0.25;
  }
  const size_t nans = (base.size() + 96) / 97;
  for (CrackAlgo algo :
       {CrackAlgo::kScalar, CrackAlgo::kOutOfPlace, CrackAlgo::kParallel}) {
    CrackerColumn<double> col("d", base);
    CrackConfig cfg;
    cfg.algo = algo;
    for (int i = 0; i < 60; ++i) {
      const double lo = static_cast<double>(rng.Below(1 << 16));
      const double hi = lo + 1.0 + static_cast<double>(rng.Below(1 << 12));
      size_t naive = 0;
      for (double x : base) {
        if (!(x != x) && x >= lo && x < hi) ++naive;
      }
      ASSERT_EQ(col.SelectRange(lo, hi, cfg).size(), naive);
    }
    // All NaNs sit in the closed tail above +inf.
    EXPECT_EQ(
        col.SelectRange(std::numeric_limits<double>::infinity(), std::nullopt)
            .size(),
        nans);
    EXPECT_TRUE(col.CheckInvariants());
  }
}

}  // namespace
}  // namespace holix

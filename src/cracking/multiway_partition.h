/// \file multiway_partition.h
/// \brief Stable multi-way partition of (value, rowid) rows over a sorted
/// pivot array, in one histogram pass and one scatter pass (Polychroniou &
/// Ross, SIGMOD 2014). Warm restore uses it to rebuild a cracker column in
/// its saved pieces at O(N log P) instead of P successive cracks at
/// O(N * P).
///
/// Rows are cut into morsels. Pass one counts, per morsel, how
/// many rows fall into each of the P + 1 buckets; a prefix sum over
/// (bucket, morsel) turns the counts into write cursors; pass two scatters
/// every row to its cursor. Both passes run morsels on a thread pool when
/// one is given. Rows keep their input order inside a bucket, so the
/// output is a pure function of the input: the same bytes at any thread
/// count.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "storage/types.h"
#include "util/thread_pool.h"

namespace holix {

/// A run of input rows: values[i] with rowids[i], or with rowid i when
/// rowids is null (a base column image).
template <typename T>
struct RowRun {
  const T* values = nullptr;
  const RowId* rowids = nullptr;
  size_t rows = 0;

  RowId RowIdAt(size_t i) const { return rowids != nullptr ? rowids[i] : i; }
};

/// Order-preserving integer image of a key: the key itself for integers,
/// its rank for doubles, so bucket searches are plain integer compares.
template <typename T>
using SearchKey = std::conditional_t<std::is_integral_v<T>, T, uint64_t>;

template <typename T>
SearchKey<T> ToSearchKey(T v) {
  if constexpr (std::is_integral_v<T>) {
    return v;
  } else {
    return KeyTraits<T>::ToRank(v);
  }
}

template <typename T>
T FromSearchKey(SearchKey<T> k) {
  if constexpr (std::is_integral_v<T>) {
    return k;
  } else {
    return KeyTraits<T>::FromRank(k);
  }
}

/// Number of \p pivots (ascending, \p n of them) that are <= \p key: the
/// bucket of \p key. Branch-free: the loop count depends on n alone and the
/// step compiles to a conditional move.
template <typename K>
inline size_t BucketOf(const K* pivots, size_t n, K key) {
  if (n == 0) return 0;
  const K* base = pivots;
  while (n > 1) {
    const size_t half = n / 2;
    base = base[half] <= key ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - pivots) + (*base <= key ? 1 : 0);
}

/// Outcome of MultiwayPartition.
template <typename T>
struct MultiwayPartitionResult {
  /// cuts[b]: first output position whose value is >= pivots[b].
  std::vector<size_t> cuts;
  /// Smallest and largest input value, dead rows included (meaningful
  /// only when there was at least one input row).
  T min_value{};
  T max_value{};
};

/// Partitions the rows of \p runs, minus the rows at the ascending global
/// positions \p dead (positions count through the runs in order), into
/// \p out_values / \p out_rowids, which hold room for exactly the live
/// rows. Bucket b receives the values in [pivots[b-1], pivots[b]) under
/// the KeyTraits total order; \p pivots must be strictly ascending. Uses
/// \p pool's threads plus the caller when \p pool is non-null.
template <typename T>
MultiwayPartitionResult<T> MultiwayPartition(
    const std::vector<RowRun<T>>& runs, const std::vector<size_t>& dead,
    const std::vector<T>& pivots, T* out_values, RowId* out_rowids,
    ThreadPool* pool) {
  using K = SearchKey<T>;
  std::vector<K> keys(pivots.size());
  for (size_t i = 0; i < pivots.size(); ++i) keys[i] = ToSearchKey(pivots[i]);
  const K* piv = keys.data();
  const size_t p = keys.size();
  const size_t buckets = p + 1;
  // Histograms take morsels * buckets words; morsels of at least 4 rows per
  // bucket bound that by a quarter word per input row plus one histogram
  // per run, however many pivots there are.
  const size_t morsel_rows = std::max<size_t>(size_t{1} << 16, 4 * buckets);

  struct Morsel {
    const RowRun<T>* run;
    size_t lo, hi;                 // rows [lo, hi) of *run
    size_t dead_lo, dead_hi;       // its slice of `dead`
    size_t global_lo;              // global position of row lo
  };
  std::vector<Morsel> morsels;
  size_t global = 0;
  for (const RowRun<T>& run : runs) {
    for (size_t lo = 0; lo < run.rows; lo += morsel_rows) {
      const size_t hi = std::min(run.rows, lo + morsel_rows);
      const size_t g0 = global + lo, g1 = global + hi;
      const size_t d0 = static_cast<size_t>(
          std::lower_bound(dead.begin(), dead.end(), g0) - dead.begin());
      const size_t d1 = static_cast<size_t>(
          std::lower_bound(dead.begin() + d0, dead.end(), g1) - dead.begin());
      morsels.push_back({&run, lo, hi, d0, d1, g0});
    }
    global += run.rows;
  }

  // Pass 1: per-morsel bucket histograms (dead rows subtracted) and the
  // per-morsel key range.
  std::vector<size_t> hist(morsels.size() * buckets, 0);
  std::vector<K> mins(morsels.size(), std::numeric_limits<K>::max());
  std::vector<K> maxs(morsels.size(), std::numeric_limits<K>::lowest());
  auto count = [&](size_t m) {
    const Morsel& ms = morsels[m];
    const T* v = ms.run->values;
    size_t* h = hist.data() + m * buckets;
    K mn = mins[m], mx = maxs[m];
    for (size_t i = ms.lo; i < ms.hi; ++i) {
      const K k = ToSearchKey(v[i]);
      ++h[BucketOf(piv, p, k)];
      mn = std::min(mn, k);
      mx = std::max(mx, k);
    }
    for (size_t d = ms.dead_lo; d < ms.dead_hi; ++d) {
      const size_t i = ms.lo + (dead[d] - ms.global_lo);
      --h[BucketOf(piv, p, ToSearchKey(v[i]))];
    }
    mins[m] = mn;
    maxs[m] = mx;
  };

  // Pass 2: every live row to its morsel's cursor in its bucket.
  auto scatter = [&](size_t m) {
    const Morsel& ms = morsels[m];
    const T* v = ms.run->values;
    size_t* cursor = hist.data() + m * buckets;
    size_t i = ms.lo;
    for (size_t d = ms.dead_lo; d <= ms.dead_hi; ++d) {
      const size_t stop =
          d < ms.dead_hi ? ms.lo + (dead[d] - ms.global_lo) : ms.hi;
      for (; i < stop; ++i) {
        const size_t pos = cursor[BucketOf(piv, p, ToSearchKey(v[i]))]++;
        out_values[pos] = v[i];
        out_rowids[pos] = ms.run->RowIdAt(i);
      }
      ++i;  // skip the dead row at `stop`
    }
  };

  auto for_each_morsel = [&](const auto& body) {
    if (pool != nullptr && morsels.size() > 1) {
      pool->ParallelForMorsels(0, morsels.size(), body);
    } else {
      for (size_t m = 0; m < morsels.size(); ++m) body(m);
    }
  };

  for_each_morsel(count);
  // Prefix sum in (bucket, morsel) order: each histogram cell becomes the
  // morsel's first write position inside that bucket.
  MultiwayPartitionResult<T> out;
  out.cuts.resize(p);
  size_t pos = 0;
  for (size_t b = 0; b < buckets; ++b) {
    for (size_t m = 0; m < morsels.size(); ++m) {
      const size_t n = hist[m * buckets + b];
      hist[m * buckets + b] = pos;
      pos += n;
    }
    if (b < p) out.cuts[b] = pos;
  }
  for_each_morsel(scatter);

  if (!morsels.empty()) {
    out.min_value =
        FromSearchKey<T>(*std::min_element(mins.begin(), mins.end()));
    out.max_value =
        FromSearchKey<T>(*std::max_element(maxs.begin(), maxs.end()));
  }
  return out;
}

}  // namespace holix

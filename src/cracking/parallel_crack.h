/// \file parallel_crack.h
/// \brief Morsel-wise crack-in-two (refined partition & merge, [44] §4.2):
/// the one entry point of every out-of-place cracking tier.
///
/// The paper's parallel vectorized cracking splits the to-be-cracked piece
/// into independent slices, cracks them independently, and merges the
/// partial results into one contiguously partitioned piece (Figure 4).
/// MorselCrackInTwo does this for every out-of-place tier — kOutOfPlace,
/// kSimd and kParallel — with fixed `kCrackMorselRows`-row morsels:
///  * each morsel is cracked by the single-pass kernel (CrackInTwoSimd at
///    the requested level, which on the portable tier is
///    CrackInTwoOutOfPlace), so a thread's scratch never exceeds one morsel;
///  * morsels run in order on the caller, or on a work-stealing deque
///    (ThreadPool::ParallelForMorsels) when more than one thread is asked
///    for, so a straggler only loses its remaining morsels to thieves;
///  * the global cut is the sum of morsel cuts, and the (provably
///    equal-sized) runs of misplaced highs before the cut and misplaced lows
///    after it are swapped as blocks (neutralization).
///
/// Layout contract: the result is a function of the input, the pivot and
/// the morsel size only — every tier, dispatch level, thread count and host
/// produces the same bytes. A piece of at most one morsel is one kernel
/// call (lows in input order, highs reversed); a larger piece is that
/// layout per morsel, followed by the neutralization pass.

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cracking/crack_kernels.h"
#include "cracking/crack_kernels_simd.h"
#include "obs/metrics.h"
#include "storage/types.h"
#include "util/thread_pool.h"

namespace holix {

/// Two-way partition of values+rowids in [lo, hi) at \p pivot, morsel by
/// morsel, with the single-pass kernel at level \p simd. Rowids are the
/// cracker's 32-bit lane, so the neutralization swaps move 4 bytes per
/// rowid. With a \p pool and \p threads > 1 the morsels run on up to
/// \p threads participants (including the caller).
/// \return the cut: first position whose value is >= pivot.
template <typename T>
size_t MorselCrackInTwo(T* v, CrackRowId* ids, size_t lo, size_t hi,
                        T pivot, SimdLevel simd, ThreadPool* pool = nullptr,
                        size_t threads = 1) {
  if (HasVectorCrack<T>(simd)) {
    static obs::Counter& simd_ops = obs::MetricsRegistry::Global().GetCounter(
        "holix_crack_simd_ops_total");
    simd_ops.Inc();
  }
  const size_t n = hi - lo;
  if (n <= kCrackMorselRows) {
    return CrackInTwoSimd(v, ids, lo, hi, pivot, ThreadLocalCrackScratch(),
                          simd);
  }

  const size_t morsels = (n + kCrackMorselRows - 1) / kCrackMorselRows;
  auto morsel_lo = [&](size_t m) { return lo + m * kCrackMorselRows; };
  auto morsel_hi = [&](size_t m) {
    return std::min(hi, morsel_lo(m) + kCrackMorselRows);
  };
  std::vector<size_t> cuts(morsels);
  auto crack_morsel = [&](size_t m) {
    cuts[m] = CrackInTwoSimd(v, ids, morsel_lo(m), morsel_hi(m), pivot,
                             ThreadLocalCrackScratch(), simd);
  };
  if (pool != nullptr && threads > 1) {
    const MorselRunStats stats =
        pool->ParallelForMorsels(0, morsels, crack_morsel, threads);
    static obs::Counter& executed = obs::MetricsRegistry::Global().GetCounter(
        "holix_crack_morsels_total");
    static obs::Counter& steals = obs::MetricsRegistry::Global().GetCounter(
        "holix_crack_morsel_steals_total");
    executed.Inc(stats.morsels);
    if (stats.steals != 0) steals.Inc(stats.steals);
  } else {
    for (size_t m = 0; m < morsels; ++m) crack_morsel(m);
  }

  size_t cut = lo;
  for (size_t m = 0; m < morsels; ++m) cut += cuts[m] - morsel_lo(m);

  // Neutralization: highs left before the global cut trade places with lows
  // left after it, pairing the k-th of each in position order. Both sides
  // hold the same number of rows, whatever the morsel count.
  struct Run {
    size_t begin;
    size_t end;
  };
  std::vector<Run> highs, lows;
  for (size_t m = 0; m < morsels; ++m) {
    const size_t high_end = std::min(morsel_hi(m), cut);
    if (cuts[m] < high_end) highs.push_back({cuts[m], high_end});
    const size_t low_begin = std::max(morsel_lo(m), cut);
    if (low_begin < cuts[m]) lows.push_back({low_begin, cuts[m]});
  }
  for (size_t h = 0, l = 0; h < highs.size() && l < lows.size();) {
    Run& a = highs[h];
    Run& b = lows[l];
    const size_t len = std::min(a.end - a.begin, b.end - b.begin);
    std::swap_ranges(v + a.begin, v + a.begin + len, v + b.begin);
    std::swap_ranges(ids + a.begin, ids + a.begin + len, ids + b.begin);
    a.begin += len;
    b.begin += len;
    h += a.begin == a.end;
    l += b.begin == b.end;
  }
  return cut;
}

}  // namespace holix

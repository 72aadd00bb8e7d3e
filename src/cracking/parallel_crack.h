/// \file parallel_crack.h
/// \brief Multi-threaded crack-in-two (refined partition & merge, [44] §4.2),
/// morsel-driven.
///
/// The paper's parallel vectorized cracking splits the to-be-cracked piece
/// into independent slices, cracks them independently, and merges the
/// partial results into one contiguously partitioned piece (Figure 4). We
/// implement the same contract but carve the piece into ~L2-sized *morsels*
/// scheduled on a work-stealing deque (ThreadPool::ParallelForMorsels)
/// instead of exactly-`threads` static slices: a straggler (page fault,
/// preemption, skewed memory node) no longer stalls the whole crack, it
/// just loses its remaining morsels to thieves. Each morsel is partitioned
/// by the SIMD out-of-place kernel; the global cut is the sum of morsel
/// cuts, and the (provably equal-sized) sets of misplaced highs before the
/// cut / misplaced lows after the cut are swapped pairwise (neutralization).
/// The outcome — a contiguous `< pivot | >= pivot` piece — is identical to
/// Figure 4(b).

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cracking/crack_config.h"
#include "cracking/crack_kernels.h"
#include "cracking/crack_kernels_simd.h"
#include "obs/metrics.h"
#include "storage/types.h"
#include "util/cache_info.h"
#include "util/thread_pool.h"

namespace holix {

namespace internal {

/// A maximal run of misplaced rows [begin, end) within one block.
struct MisplacedRun {
  size_t begin;
  size_t end;
};

}  // namespace internal

/// Rows per morsel so one morsel's (value, rowid) pairs fill about one L2.
template <typename T>
size_t DefaultMorselRows() {
  const size_t rows = L2CacheBytes() / (sizeof(T) + sizeof(RowId));
  return std::max<size_t>(rows, 1u << 12);
}

/// Per-call knobs for ParallelCrackInTwo.
struct ParallelCrackOptions {
  size_t threads = 1;                 ///< Max participants (incl. caller).
  size_t min_parallel_piece = 1u << 16;  ///< Below this: single-threaded.
  size_t morsel_rows = 0;             ///< 0 = DefaultMorselRows<T>().
  SimdLevel simd = DetectSimdLevel(); ///< Kernel tier for each block.
};

/// Parallel two-way partition of values+rowids in [lo, hi) using up to
/// `opts.threads` workers from \p pool. Falls back to the single-threaded
/// SIMD kernel for small pieces.
/// \return the cut: first position whose value is >= pivot.
template <typename T>
size_t ParallelCrackInTwo(T* v, RowId* ids, size_t lo, size_t hi, T pivot,
                          ThreadPool& pool, const ParallelCrackOptions& opts) {
  const size_t n = hi - lo;
  const size_t threads = std::min(opts.threads, pool.size() + 1);
  if (threads <= 1 || n < opts.min_parallel_piece) {
    return CrackInTwoSimd(v, ids, lo, hi, pivot, ThreadLocalCrackScratch<T>(),
                          opts.simd);
  }

  // Carve [lo, hi) into contiguous ~L2-sized morsels.
  const size_t block_rows = std::max<size_t>(
      opts.morsel_rows != 0 ? opts.morsel_rows : DefaultMorselRows<T>(), 1);
  const size_t blocks = (n + block_rows - 1) / block_rows;
  std::vector<size_t> block_lo(blocks), block_hi(blocks), block_cut(blocks);
  for (size_t s = 0; s < blocks; ++s) {
    block_lo[s] = lo + std::min(n, s * block_rows);
    block_hi[s] = lo + std::min(n, (s + 1) * block_rows);
  }
  const SimdLevel simd = opts.simd;
  auto crack_block = [&](size_t s) {
    block_cut[s] = CrackInTwoSimd(v, ids, block_lo[s], block_hi[s], pivot,
                                  ThreadLocalCrackScratch<T>(), simd);
  };
  const MorselRunStats stats =
      pool.ParallelForMorsels(0, blocks, crack_block, threads);
  static obs::Counter& morsels = obs::MetricsRegistry::Global().GetCounter(
      "holix_crack_morsels_total");
  static obs::Counter& steals = obs::MetricsRegistry::Global().GetCounter(
      "holix_crack_morsel_steals_total");
  morsels.Inc(stats.morsels);
  if (stats.steals != 0) steals.Inc(stats.steals);

  size_t lows = 0;
  for (size_t s = 0; s < blocks; ++s) lows += block_cut[s] - block_lo[s];
  const size_t cut = lo + lows;

  // Neutralization: highs that ended up before the global cut trade places
  // with lows that ended up after it. Both run sets have equal total size;
  // the argument is independent of the block count.
  std::vector<internal::MisplacedRun> highs_before, lows_after;
  for (size_t s = 0; s < blocks; ++s) {
    const size_t hb = std::min(block_hi[s], cut);
    if (block_cut[s] < hb) highs_before.push_back({block_cut[s], hb});
    const size_t la = std::max(block_lo[s], cut);
    if (la < block_cut[s]) lows_after.push_back({la, block_cut[s]});
  }
  size_t hi_idx = 0, hi_pos = highs_before.empty() ? 0 : highs_before[0].begin;
  size_t lo_idx = 0, lo_pos = lows_after.empty() ? 0 : lows_after[0].begin;
  while (hi_idx < highs_before.size() && lo_idx < lows_after.size()) {
    std::swap(v[hi_pos], v[lo_pos]);
    std::swap(ids[hi_pos], ids[lo_pos]);
    if (++hi_pos == highs_before[hi_idx].end && ++hi_idx < highs_before.size())
      hi_pos = highs_before[hi_idx].begin;
    if (++lo_pos == lows_after[lo_idx].end && ++lo_idx < lows_after.size())
      lo_pos = lows_after[lo_idx].begin;
  }
  return cut;
}

/// Legacy signature: morsel scheduling with default knobs.
template <typename T>
size_t ParallelCrackInTwo(T* v, RowId* ids, size_t lo, size_t hi, T pivot,
                          ThreadPool& pool, size_t threads,
                          size_t min_parallel_piece = (1u << 16)) {
  ParallelCrackOptions opts;
  opts.threads = threads;
  opts.min_parallel_piece = min_parallel_piece;
  return ParallelCrackInTwo(v, ids, lo, hi, pivot, pool, opts);
}

}  // namespace holix

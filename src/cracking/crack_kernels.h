/// \file crack_kernels.h
/// \brief Physical reorganization kernels for database cracking (§3.2).
///
/// Three kernels are provided:
///  * CrackInTwoScalar     — branchy in-place Hoare partition (the classic
///                           cracking kernel of [27]),
///  * CrackInThreeScalar   — single-pass three-way partition, used when both
///                           query bounds fall into the same piece,
///  * CrackInTwoOutOfPlace — the predicated out-of-place kernel in the
///                           spirit of the vectorized cracking of Pirk et
///                           al. [44]: one sequential read stream, two
///                           sequential write streams, no data-dependent
///                           branches in the hot loop. It cracks one
///                           morsel; MorselCrackInTwo runs whole pieces.
///
/// All kernels partition values and co-move an attached rowid array (and,
/// for the scalar kernels, arbitrary extra payload arrays via the swap
/// functor), because cracker columns are (value, rowid) pairs. The
/// out-of-place kernels take the cracker's 32-bit rowid lane (CrackRowId),
/// so a row they move is 12 bytes for an 8-byte key and 8 for int32.
///
/// Ordering goes through KeyTraits<T>::Less, never raw `<`: for integers it
/// compiles to the identical compare, for doubles it is the engine's total
/// order (NaN above +inf, -0.0 == +0.0) — with raw `<` a NaN would satisfy
/// neither `< pivot` nor `>= pivot` and the Hoare kernel would spin.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "obs/metrics.h"
#include "storage/types.h"

namespace holix {

/// In-place two-way partition of [lo, hi): values < pivot first.
/// \param swap  callable swap(i, j) exchanging full rows i and j.
/// \return the cut: first position whose value is >= pivot.
template <typename T, typename SwapFn>
size_t CrackInTwoScalar(T* v, size_t lo, size_t hi, T pivot, SwapFn&& swap) {
  size_t i = lo;
  size_t j = hi;
  while (i < j) {
    while (i < j && KeyTraits<T>::Less(v[i], pivot)) ++i;
    while (i < j && !KeyTraits<T>::Less(v[j - 1], pivot)) --j;
    if (i < j) {
      swap(i, j - 1);
      ++i;
      --j;
    }
  }
  return i;
}

/// In-place three-way partition of [lo_idx, hi_idx):
/// `< low` first, then `[low, high)`, then `>= high`. Requires low < high.
/// \return pair (a, b): [lo_idx,a) < low; [a,b) in range; [b,hi_idx) >= high.
template <typename T, typename SwapFn>
std::pair<size_t, size_t> CrackInThreeScalar(T* v, size_t lo_idx,
                                             size_t hi_idx, T low, T high,
                                             SwapFn&& swap) {
  size_t i = lo_idx;  // next slot for "< low"
  size_t k = lo_idx;  // scan cursor
  size_t j = hi_idx;  // first slot of ">= high"
  while (k < j) {
    if (KeyTraits<T>::Less(v[k], low)) {
      if (i != k) swap(i, k);
      ++i;
      ++k;
    } else if (!KeyTraits<T>::Less(v[k], high)) {
      --j;
      swap(k, j);
    } else {
      ++k;
    }
  }
  return {i, k};
}

/// Rows per crack morsel. Every out-of-place tier cracks a piece larger
/// than this as a sequence of morsels (MorselCrackInTwo, parallel_crack.h),
/// so a crack never needs more scratch than one morsel. A constant rather
/// than a cache-derived size: every tier, dispatch level, thread count and
/// host then produces the same bytes.
inline constexpr size_t kCrackMorselRows = size_t{1} << 16;

/// Slack rows past one morsel: the AVX2 compress emulation always stores a
/// full vector and advances the cursor by the popcount, so up to
/// lane-width - 1 garbage rows spill past the last valid slot.
inline constexpr size_t kCrackLanePad = 16;

/// One thread's crack scratch: a (value, rowid) stream of one morsel plus
/// kCrackLanePad rows, 64-byte aligned, allocated on first use and never
/// resized. Live scratch is summed over threads in the
/// holix_crack_scratch_bytes gauge.
class CrackScratch {
 public:
  static constexpr size_t kRows = kCrackMorselRows + kCrackLanePad;
  /// Both streams; the value stream is sized for the widest (8-byte) key,
  /// the rowid stream holds kRows lane rowids.
  static constexpr size_t kBytes =
      kRows * (sizeof(uint64_t) + sizeof(CrackRowId));

  CrackScratch() = default;
  CrackScratch(const CrackScratch&) = delete;
  CrackScratch& operator=(const CrackScratch&) = delete;
  ~CrackScratch() {
    if (data_ != nullptr) LiveBytes().Add(-static_cast<double>(kBytes));
  }

  /// The value stream as T. One scratch serves every key type, so each
  /// call re-types the stream: a fresh byte array implicitly creates the T
  /// objects (free at run time; the bytes are rewritten before any read).
  template <typename T>
  T* values() {
    static_assert(sizeof(T) <= sizeof(uint64_t));
    return std::launder(reinterpret_cast<T*>(
        ::new (Data()) std::byte[kRows * sizeof(uint64_t)]));
  }
  CrackRowId* rowids() {
    return reinterpret_cast<CrackRowId*>(Data() + kRows * sizeof(uint64_t));
  }

  /// Bytes held: 0 before the first crack, kBytes from then on.
  size_t bytes() const { return data_ != nullptr ? kBytes : 0; }

 private:
  static constexpr std::align_val_t kAlign{64};
  struct Free {
    void operator()(std::byte* p) const { ::operator delete[](p, kAlign); }
  };

  static obs::Gauge& LiveBytes() {
    static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
        "holix_crack_scratch_bytes");
    return g;
  }

  std::byte* Data() {
    if (data_ == nullptr) {
      data_.reset(static_cast<std::byte*>(::operator new[](kBytes, kAlign)));
      LiveBytes().Add(static_cast<double>(kBytes));
    }
    return data_.get();
  }

  std::unique_ptr<std::byte[], Free> data_;
};

/// The calling thread's crack scratch.
inline CrackScratch& ThreadLocalCrackScratch() {
  thread_local CrackScratch scratch;
  return scratch;
}

/// Out-of-place two-way partition of values+rowids in [lo, hi), at most one
/// morsel (hi - lo <= kCrackMorselRows).
///
/// Reads the morsel once sequentially, writes lows forward / highs backward
/// into scratch with predicated cursor updates (no mispredicted branches),
/// then copies back. This keeps the memory-access character of vectorized
/// cracking [44] — sequential streams instead of the random-ish swap
/// pattern of the Hoare kernel. Lows keep input order at the front, highs
/// land in reverse input order at the back.
/// \return the cut: first position whose value is >= pivot.
template <typename T>
size_t CrackInTwoOutOfPlace(T* v, CrackRowId* ids, size_t lo, size_t hi,
                            T pivot, CrackScratch& scratch) {
  const size_t n = hi - lo;
  assert(n <= kCrackMorselRows);
  if (n == 0) return lo;
  T* vb = scratch.values<T>();
  CrackRowId* ib = scratch.rowids();
  size_t f = 0;
  size_t b = n - 1;
  for (size_t k = lo; k < hi; ++k) {
    const T x = v[k];
    const CrackRowId r = ids[k];
    // Write to both candidate slots, advance exactly one cursor.
    vb[f] = x;
    ib[f] = r;
    vb[b] = x;
    ib[b] = r;
    const bool lt = KeyTraits<T>::Less(x, pivot);
    f += lt;
    b -= !lt;
  }
  std::copy_n(vb, n, v + lo);
  std::copy_n(ib, n, ids + lo);
  return lo + f;
}

}  // namespace holix

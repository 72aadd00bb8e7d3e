/// \file crack_kernels_simd.h
/// \brief SIMD crack-in-two kernels (the "vectorized cracking" tier, §5.1).
///
/// Runtime-dispatched AVX2 / AVX-512 implementations of the out-of-place
/// crack-in-two for the three indexable key types (int32, int64, double),
/// co-moving the cracker's 32-bit rowid lane (CrackRowId). The hot loop is
/// compare → movemask → compress-store: AVX2 emulates the compress with a
/// table-driven cross-lane permute (`vpermd`), AVX-512 uses native
/// `vcompress` stores.
///
/// One mask drives both streams. The int32 kernels move keys and rowids at
/// the same width, so one permute (AVX2, 8 lanes) or one epi32 compress
/// (AVX-512, 16 lanes) serves both. The int64/double kernels compress 4
/// rowids with an in-lane 4 x u32 permute (AVX2), or 8 rowids with a zmm
/// epi32 compress whose upper 8 lanes the mask switches off, stored with an
/// 8-lane masked store (AVX-512). That is plain AVX512F: dispatch never
/// reaches an AVX512VL instruction.
///
/// Layout contract — per morsel, the SIMD kernels produce *byte-identical*
/// output to `CrackInTwoOutOfPlace`: lows keep input order at the front of
/// the morsel, highs land in reverse input order at the back. A kernel call
/// covers at most one morsel (`kCrackMorselRows`); larger pieces go through
/// `MorselCrackInTwo` (parallel_crack.h), which cracks morsel by morsel and
/// then swaps the misplaced runs, identically for every out-of-place tier.
/// Internally each vector of keys+rowids is loaded into registers first,
/// then its lows are compressed *directly into the column* at the low
/// cursor — safe because the low cursor can never outrun the read cursor by
/// more than the vector already held in registers — while highs stream
/// forward into scratch and are copied back reversed (with a lane-reversing
/// vector loop) at the end. Writing highs straight to the back is
/// impossible under this contract: the tail of the morsel is exactly the
/// input that has not been read yet. Because the portable fallback *is*
/// `CrackInTwoOutOfPlace`, a `kSimd` crack returns the same array bytes on
/// every host regardless of the dispatched level — checksums never depend
/// on the ISA.
///
/// Ordering semantics: integer lanes compare with signed `<`, which equals
/// `KeyTraits<int>::Less`. Double lanes compare with IEEE `LT_OQ`, which
/// equals `KeyTraits<double>::Less` for every non-NaN pivot (NaN lanes
/// compare false on both sides; -0.0 == +0.0 under IEEE, matching the rank
/// order). A NaN pivot sits above +inf in the engine's total order, so for
/// that single case the predicate becomes "lane is ordered" (`ORD_Q`). The
/// scalar tail (n mod lane-width) goes through `KeyTraits<T>::Less` proper.
///
/// Dispatch: `DetectSimdLevel()` CPUID-probes once (cached); the
/// `HOLIX_SIMD` env var (`portable|avx2|avx512`) clamps the level down for
/// testing. Building with `-DHOLIX_NATIVE=ON` (-march=native) turns the
/// probe into a compile-time constant on hosts whose ISA is baked into the
/// binary.

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <type_traits>

#include "cracking/crack_kernels.h"
#include "storage/types.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HOLIX_SIMD_X86 1
#include <immintrin.h>
#else
#define HOLIX_SIMD_X86 0
#endif

namespace holix {

/// Instruction-set tier a crack kernel may use.
enum class SimdLevel : int {
  kPortable = 0,  ///< Scalar predicated kernel (CrackInTwoOutOfPlace).
  kAvx2 = 1,      ///< 256-bit compare/movemask + table-driven compress.
  kAvx512 = 2,    ///< 512-bit compare-into-mask + native vcompress stores.
};

inline const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
    default:
      return "portable";
  }
}

/// Parses a HOLIX_SIMD value; unknown strings yield nullopt (= no override).
inline std::optional<SimdLevel> ParseSimdLevel(std::string_view s) {
  if (s == "portable" || s == "scalar" || s == "off" || s == "0")
    return SimdLevel::kPortable;
  if (s == "avx2") return SimdLevel::kAvx2;
  if (s == "avx512") return SimdLevel::kAvx512;
  return std::nullopt;
}

/// The best tier this CPU supports (ignores the env override).
inline SimdLevel DetectHardwareSimdLevel() {
#if HOLIX_SIMD_X86
#if defined(__AVX512F__)
  // -march=native on an AVX-512 host: the whole binary already assumes the
  // ISA, so the probe folds to a constant.
  return SimdLevel::kAvx512;
#else
  if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
#if defined(__AVX2__)
  return SimdLevel::kAvx2;
#else
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kPortable;
#endif
#endif
#else
  return SimdLevel::kPortable;
#endif
}

/// Hardware level clamped by the HOLIX_SIMD env override; cached after the
/// first call. An override can only lower the tier — requesting avx512 on
/// an AVX2-only host still dispatches AVX2.
inline SimdLevel DetectSimdLevel() {
  static const SimdLevel level = [] {
    SimdLevel hw = DetectHardwareSimdLevel();
    if (const char* env = std::getenv("HOLIX_SIMD")) {
      if (auto forced = ParseSimdLevel(env)) {
        if (static_cast<int>(*forced) < static_cast<int>(hw)) hw = *forced;
      }
    }
    return hw;
  }();
  return level;
}

namespace simd_internal {

/// The forward high-side output stream carved out of the CrackScratch.
/// (Lows are compressed directly into the column; see the file comment.)
template <typename T>
struct Streams {
  T* high_v;
  CrackRowId* high_i;
};

/// The scratch streams for one morsel of \p n rows. The kernels' full-vector
/// compress stores spill up to lane-width - 1 garbage rows past the high
/// cursor; the scratch's kCrackLanePad rows absorb them.
template <typename T>
Streams<T> PrepareStreams(CrackScratch& scratch, size_t n) {
  assert(n <= kCrackMorselRows);
  (void)n;
  return Streams<T>{scratch.values<T>(), scratch.rowids()};
}

/// Finishes the remaining [k, n) rows through KeyTraits::Less. Lows append
/// in place at the low cursor (f <= k always, and v[lo+k] is read into x
/// before the store can land on it); highs keep streaming into scratch.
template <typename T>
void ScalarTail(T* v, CrackRowId* ids, size_t lo, size_t n, size_t k,
                T pivot, const Streams<T>& st, size_t& f, size_t& h) {
  for (; k < n; ++k) {
    const T x = v[lo + k];
    const CrackRowId r = ids[lo + k];
    if (KeyTraits<T>::Less(x, pivot)) {
      v[lo + f] = x;
      ids[lo + f] = r;
      ++f;
    } else {
      st.high_v[h] = x;
      st.high_i[h] = r;
      ++h;
    }
  }
}

#if HOLIX_SIMD_X86

/// Reversed copies: dst[h-1-i] = src[i]. Lane-reversing permute + backward
/// block stores; bitwise copies, so double NaN payloads survive intact.
/// Only reachable once dispatch has established AVX2 support.
__attribute__((target("avx2"))) inline void ReverseCopy64(
    const uint64_t* src, uint64_t* dst, size_t h) {
  size_t i = 0;
  for (; i + 4 <= h; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + h - 4 - i),
                        _mm256_permute4x64_epi64(x, 0x1B));
  }
  for (; i < h; ++i) dst[h - 1 - i] = src[i];
}

__attribute__((target("avx2"))) inline void ReverseCopy32(
    const uint32_t* src, uint32_t* dst, size_t h) {
  const __m256i rev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
  size_t i = 0;
  for (; i + 8 <= h; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + h - 8 - i),
                        _mm256_permutevar8x32_epi32(x, rev));
  }
  for (; i < h; ++i) dst[h - 1 - i] = src[i];
}

/// Copies the high stream back reversed into the piece tail — exactly the
/// layout CrackInTwoOutOfPlace leaves behind (lows are already in place).
template <typename T>
size_t CopyBack(T* v, CrackRowId* ids, size_t lo, size_t n,
                const Streams<T>& st, size_t f, size_t h) {
  static_assert(sizeof(CrackRowId) == 4);
  if constexpr (sizeof(T) == 8) {
    ReverseCopy64(reinterpret_cast<const uint64_t*>(st.high_v),
                  reinterpret_cast<uint64_t*>(v + lo + n - h), h);
  } else {
    static_assert(sizeof(T) == 4);
    ReverseCopy32(reinterpret_cast<const uint32_t*>(st.high_v),
                  reinterpret_cast<uint32_t*>(v + lo + n - h), h);
  }
  ReverseCopy32(st.high_i, ids + lo + n - h, h);
  return lo + f;
}

/// vpermd index table compressing the set lanes of an 8-bit mask to the
/// front (ascending lane order, i.e. stable).
struct CompressLut8 {
  alignas(32) uint32_t idx[256][8];
};
inline constexpr CompressLut8 kCompressLut8 = [] {
  CompressLut8 lut{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned out = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if (m & (1u << lane)) lut.idx[m][out++] = lane;
    }
    for (; out < 8; ++out) lut.idx[m][out] = 0;
  }
  return lut;
}();

/// Same, for four 64-bit elements addressed as epi32 pairs.
struct CompressLut4 {
  alignas(32) uint32_t idx[16][8];
};
inline constexpr CompressLut4 kCompressLut4 = [] {
  CompressLut4 lut{};
  for (unsigned m = 0; m < 16; ++m) {
    unsigned out = 0;
    for (unsigned lane = 0; lane < 4; ++lane) {
      if (m & (1u << lane)) {
        lut.idx[m][out++] = 2 * lane;
        lut.idx[m][out++] = 2 * lane + 1;
      }
    }
    for (; out < 8; ++out) lut.idx[m][out] = 0;
  }
  return lut;
}();

__attribute__((target("avx2"))) inline __m256i Lut8Perm(unsigned mask) {
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompressLut8.idx[mask]));
}
__attribute__((target("avx2"))) inline __m256i Lut4Perm(unsigned mask) {
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompressLut4.idx[mask]));
}

/// Compresses the rowids of a 4-key vector: a 4 x u32 in-lane permute
/// (vpermilps, bitwise) by the first four indices of the 8-lane table,
/// which for a 4-bit mask only name lanes 0-3.
__attribute__((target("avx2"))) inline __m128i CompressIds4(__m128i r,
                                                           unsigned mask) {
  const __m128i idx = _mm_load_si128(
      reinterpret_cast<const __m128i*>(kCompressLut8.idx[mask]));
  return _mm_castps_si128(_mm_permutevar_ps(_mm_castsi128_ps(r), idx));
}

// ---------------------------------------------------------------- AVX2 --

__attribute__((target("avx2"))) inline size_t CrackAvx2(
    int32_t* v, CrackRowId* ids, size_t lo, size_t hi, int32_t pivot,
    CrackScratch& scratch) {
  const size_t n = hi - lo;
  const Streams<int32_t> st = PrepareStreams<int32_t>(scratch, n);
  const __m256i pv = _mm256_set1_epi32(pivot);
  size_t f = 0, h = 0, k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m256i x = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(v + lo + k));
    const __m256i r = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ids + lo + k));
    // Lane i set iff v[i] < pivot (signed), == KeyTraits<int32_t>::Less.
    const unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(pv, x))));
    const unsigned mn = ~m & 0xFFu;
    // Keys and rowids are both 8 x 32 bits: one permute per side serves
    // both streams.
    const __m256i pl = Lut8Perm(m), ph = Lut8Perm(mn);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + lo + f),
                        _mm256_permutevar8x32_epi32(x, pl));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ids + lo + f),
                        _mm256_permutevar8x32_epi32(r, pl));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(st.high_v + h),
                        _mm256_permutevar8x32_epi32(x, ph));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(st.high_i + h),
                        _mm256_permutevar8x32_epi32(r, ph));
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    h += 8 - c;
  }
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

__attribute__((target("avx2"))) inline size_t CrackAvx2(
    int64_t* v, CrackRowId* ids, size_t lo, size_t hi, int64_t pivot,
    CrackScratch& scratch) {
  const size_t n = hi - lo;
  const Streams<int64_t> st = PrepareStreams<int64_t>(scratch, n);
  const __m256i pv = _mm256_set1_epi64x(pivot);
  size_t f = 0, h = 0, k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m256i x = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(v + lo + k));
    const __m128i r =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + lo + k));
    const unsigned m = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(pv, x))));
    const unsigned mn = ~m & 0xFu;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + lo + f),
                        _mm256_permutevar8x32_epi32(x, Lut4Perm(m)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ids + lo + f),
                     CompressIds4(r, m));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(st.high_v + h),
                        _mm256_permutevar8x32_epi32(x, Lut4Perm(mn)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(st.high_i + h),
                     CompressIds4(r, mn));
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    h += 4 - c;
  }
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

__attribute__((target("avx2"))) inline size_t CrackAvx2(
    double* v, CrackRowId* ids, size_t lo, size_t hi, double pivot,
    CrackScratch& scratch) {
  const size_t n = hi - lo;
  const Streams<double> st = PrepareStreams<double>(scratch, n);
  const __m256d pv = _mm256_set1_pd(pivot);
  // IEEE LT_OQ equals KeyTraits<double>::Less for every non-NaN pivot (NaN
  // lanes are never-less either way; -0.0 == +0.0). A NaN pivot ranks above
  // everything, so there "less" means "lane is not NaN" (ORD_Q vs itself).
  const bool nan_pivot = pivot != pivot;
  size_t f = 0, h = 0, k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m256d x = _mm256_loadu_pd(v + lo + k);
    const __m128i r =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + lo + k));
    const __m256d lt = nan_pivot ? _mm256_cmp_pd(x, x, _CMP_ORD_Q)
                                 : _mm256_cmp_pd(x, pv, _CMP_LT_OQ);
    const unsigned m = static_cast<unsigned>(_mm256_movemask_pd(lt));
    const unsigned mn = ~m & 0xFu;
    const __m256i xi = _mm256_castpd_si256(x);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + lo + f),
                        _mm256_permutevar8x32_epi32(xi, Lut4Perm(m)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ids + lo + f),
                     CompressIds4(r, m));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(st.high_v + h),
                        _mm256_permutevar8x32_epi32(xi, Lut4Perm(mn)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(st.high_i + h),
                     CompressIds4(r, mn));
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    h += 4 - c;
  }
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

// -------------------------------------------------------------- AVX-512 --

/// The low 8 lanes of a zmm: the rowids of one 8-key vector.
inline constexpr __mmask16 kLow8Lanes = 0x00FF;

/// Loads the 8 rowids of an 8-key vector into the low half of a zmm (a
/// masked load; the upper half reads as zero).
__attribute__((target("avx512f"))) inline __m512i LoadIds8(
    const CrackRowId* p) {
  return _mm512_maskz_loadu_epi32(kLow8Lanes, p);
}

/// Compresses the rowids of an 8-key vector under its 8-bit mask and
/// stores 8 lanes: a zmm epi32 compress whose zero-extended mask switches
/// the upper 8 lanes off, then a masked store of the low 8 lanes. Plain
/// AVX512F; the ymm compress would need AVX512VL.
__attribute__((target("avx512f"))) inline void CompressStoreIds8(
    CrackRowId* dst, __mmask8 mask, __m512i r) {
  _mm512_mask_storeu_epi32(
      dst, kLow8Lanes,
      _mm512_maskz_compress_epi32(static_cast<__mmask16>(mask), r));
}

__attribute__((target("avx512f"))) inline size_t CrackAvx512(
    int32_t* v, CrackRowId* ids, size_t lo, size_t hi, int32_t pivot,
    CrackScratch& scratch) {
  const size_t n = hi - lo;
  const Streams<int32_t> st = PrepareStreams<int32_t>(scratch, n);
  const __m512i pv = _mm512_set1_epi32(pivot);
  size_t f = 0, h = 0, k = 0;
  for (; k + 16 <= n; k += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m512i x = _mm512_loadu_si512(v + lo + k);
    const __m512i r = _mm512_loadu_si512(ids + lo + k);
    const __mmask16 m = _mm512_cmp_epi32_mask(x, pv, _MM_CMPINT_LT);
    const __mmask16 mn = static_cast<__mmask16>(~m);
    // Compress in registers and issue plain full-width stores: vcompress-
    // to-memory microcodes to a slow store on most Xeons. The garbage lanes
    // past each cursor are overwritten by the next store (see file comment).
    // 16 keys and 16 rowids share one mask.
    _mm512_storeu_si512(v + lo + f, _mm512_maskz_compress_epi32(m, x));
    _mm512_storeu_si512(ids + lo + f, _mm512_maskz_compress_epi32(m, r));
    _mm512_storeu_si512(st.high_v + h, _mm512_maskz_compress_epi32(mn, x));
    _mm512_storeu_si512(st.high_i + h, _mm512_maskz_compress_epi32(mn, r));
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    h += 16 - c;
  }
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

__attribute__((target("avx512f"))) inline size_t CrackAvx512(
    int64_t* v, CrackRowId* ids, size_t lo, size_t hi, int64_t pivot,
    CrackScratch& scratch) {
  const size_t n = hi - lo;
  const Streams<int64_t> st = PrepareStreams<int64_t>(scratch, n);
  const __m512i pv = _mm512_set1_epi64(pivot);
  size_t f = 0, h = 0, k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m512i x = _mm512_loadu_si512(v + lo + k);
    const __m512i r = LoadIds8(ids + lo + k);
    const __mmask8 m = _mm512_cmp_epi64_mask(x, pv, _MM_CMPINT_LT);
    const __mmask8 mn = static_cast<__mmask8>(~m);
    // Register-compress + full-width stores (see the int32 kernel note).
    _mm512_storeu_si512(v + lo + f, _mm512_maskz_compress_epi64(m, x));
    CompressStoreIds8(ids + lo + f, m, r);
    _mm512_storeu_si512(st.high_v + h, _mm512_maskz_compress_epi64(mn, x));
    CompressStoreIds8(st.high_i + h, mn, r);
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    h += 8 - c;
  }
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

__attribute__((target("avx512f"))) inline size_t CrackAvx512(
    double* v, CrackRowId* ids, size_t lo, size_t hi, double pivot,
    CrackScratch& scratch) {
  const size_t n = hi - lo;
  const Streams<double> st = PrepareStreams<double>(scratch, n);
  const __m512d pv = _mm512_set1_pd(pivot);
  const bool nan_pivot = pivot != pivot;
  size_t f = 0, h = 0, k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m512d x = _mm512_loadu_pd(v + lo + k);
    const __m512i r = LoadIds8(ids + lo + k);
    const __mmask8 m = nan_pivot ? _mm512_cmp_pd_mask(x, x, _CMP_ORD_Q)
                                 : _mm512_cmp_pd_mask(x, pv, _CMP_LT_OQ);
    const __mmask8 mn = static_cast<__mmask8>(~m);
    // Register-compress + full-width stores (see the int32 kernel note).
    _mm512_storeu_pd(v + lo + f, _mm512_maskz_compress_pd(m, x));
    CompressStoreIds8(ids + lo + f, m, r);
    _mm512_storeu_pd(st.high_v + h, _mm512_maskz_compress_pd(mn, x));
    CompressStoreIds8(st.high_i + h, mn, r);
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    h += 8 - c;
  }
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

#endif  // HOLIX_SIMD_X86

}  // namespace simd_internal

/// True when CrackInTwoSimd runs a vector kernel for key type T at \p level;
/// the portable tier and key types without one run CrackInTwoOutOfPlace.
template <typename T>
constexpr bool HasVectorCrack(SimdLevel level) {
  return HOLIX_SIMD_X86 && level != SimdLevel::kPortable &&
         (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t> ||
          std::is_same_v<T, double>);
}

/// SIMD out-of-place two-way partition of values+rowids in [lo, hi), at
/// most one morsel (hi - lo <= kCrackMorselRows). Key types without a
/// vector kernel — and the portable tier — fall back to
/// CrackInTwoOutOfPlace, whose output layout the vector kernels reproduce
/// exactly, so results are deterministic across dispatch levels.
/// \return the cut: first position whose value is >= pivot.
template <typename T>
size_t CrackInTwoSimd(T* v, CrackRowId* ids, size_t lo, size_t hi, T pivot,
                      CrackScratch& scratch,
                      SimdLevel level = DetectSimdLevel()) {
#if HOLIX_SIMD_X86
  if constexpr (HasVectorCrack<T>(SimdLevel::kAvx2)) {
    if (level == SimdLevel::kAvx512) {
      return simd_internal::CrackAvx512(v, ids, lo, hi, pivot, scratch);
    }
    if (level == SimdLevel::kAvx2) {
      return simd_internal::CrackAvx2(v, ids, lo, hi, pivot, scratch);
    }
  }
#endif
  (void)level;
  return CrackInTwoOutOfPlace(v, ids, lo, hi, pivot, scratch);
}

}  // namespace holix

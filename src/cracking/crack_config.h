/// \file crack_config.h
/// \brief Per-call configuration of cracking behaviour.
///
/// The out-of-place kernels (kOutOfPlace, kSimd, kParallel) crack a piece
/// morsel by morsel and then neutralize (MorselCrackInTwo,
/// parallel_crack.h). The morsel size is the constant kCrackMorselRows, not
/// a knob, so the three produce identical bytes; they differ only in the
/// kernel level and in how many threads run the morsels.

#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace holix {

/// Which physical reorganization kernel a crack should use.
enum class CrackAlgo {
  kScalar,      ///< Branchy in-place Hoare partition [27].
  kOutOfPlace,  ///< Predicated out-of-place kernel (vectorized cracking [44]).
  kParallel,    ///< kSimd with morsels spread across threads [44].
  kSimd,        ///< AVX2/AVX-512 compress-store tier (crack_kernels_simd.h);
                ///< falls back to kOutOfPlace below AVX2, same output bytes.
};

/// Canonical short name, as accepted by CrackAlgoFromString.
inline const char* CrackAlgoName(CrackAlgo algo) {
  switch (algo) {
    case CrackAlgo::kScalar:
      return "scalar";
    case CrackAlgo::kOutOfPlace:
      return "oop";
    case CrackAlgo::kParallel:
      return "parallel";
    case CrackAlgo::kSimd:
      return "simd";
  }
  return "scalar";
}

/// Parses a kernel name (server --kernel flag, HOLIX_KERNEL env var).
inline std::optional<CrackAlgo> CrackAlgoFromString(std::string_view s) {
  if (s == "scalar") return CrackAlgo::kScalar;
  if (s == "oop" || s == "out-of-place" || s == "outofplace")
    return CrackAlgo::kOutOfPlace;
  if (s == "parallel" || s == "morsel") return CrackAlgo::kParallel;
  if (s == "simd") return CrackAlgo::kSimd;
  return std::nullopt;
}

/// Options carried by select operators and holistic workers into the
/// cracker column. Plain value type: cheap to copy per call.
struct CrackConfig {
  /// Kernel choice; kParallel requires `pool`.
  CrackAlgo algo = CrackAlgo::kOutOfPlace;

  /// Pool used by kParallel cracks (not owned). May be shared.
  ThreadPool* pool = nullptr;

  /// Threads running one kParallel crack's morsels (Figure 4's slices).
  size_t parallel_threads = 1;

  /// Stochastic cracking (PVSDC [21,44]): before cracking the target piece
  /// at the query bound, repeatedly crack it at data-driven random pivots
  /// while it is larger than `stochastic_min_piece`.
  bool stochastic = false;

  /// RNG for stochastic pivots (not owned; required when stochastic).
  Rng* rng = nullptr;

  /// Stop stochastic pre-cracking below this piece size.
  size_t stochastic_min_piece = 1u << 14;
};

}  // namespace holix

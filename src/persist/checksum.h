/// \file checksum.h
/// \brief CRC32C (Castagnoli) over byte ranges — the integrity check of
/// every persisted artifact (WAL records, snapshot files, the manifest).
///
/// Two implementations of one function: the SSE4.2 `crc32` instruction
/// (8 bytes per step) where the CPU has it, probed once through CPUID as
/// the crack kernels do, and a portable table-driven bytewise loop as the
/// fallback. The polynomial is the iSCSI/ext4 Castagnoli polynomial
/// (reflected 0x82F63B78); the check value for "123456789" is 0xE3069283
/// (the standard CRC-32C known answer, pinned by persist_test for both
/// implementations).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HOLIX_CRC32C_X86 1
#include <nmmintrin.h>
#else
#define HOLIX_CRC32C_X86 0
#endif

namespace holix::persist {

namespace detail {

inline const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace detail

/// Portable table-driven CRC32C: the fallback, and the reference the
/// hardware path is tested against. Same contract as Crc32c.
inline uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0) {
  const auto& table = detail::Crc32cTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

/// True when this CPU executes the SSE4.2 `crc32` instruction (probed
/// once, then cached).
inline bool HasHardwareCrc32c() {
#if HOLIX_CRC32C_X86
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
#else
  return false;
#endif
}

#if HOLIX_CRC32C_X86
/// SSE4.2 CRC32C. Precondition: HasHardwareCrc32c(). Same contract as
/// Crc32c. Bytes run up to an 8-byte boundary, then 8 at a time.
__attribute__((target("sse4.2"))) inline uint32_t Crc32cSse42(
    const void* data, size_t n, uint32_t seed = 0) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; n > 0 && reinterpret_cast<uintptr_t>(p) % 8 != 0; --n) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  uint64_t crc64 = crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n) crc = _mm_crc32_u8(crc, *p++);
  return ~crc;
}
#endif

/// CRC32C of \p n bytes at \p data, continuing from \p seed (pass the
/// previous return value to checksum discontiguous ranges; the default
/// starts a fresh CRC).
inline uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0) {
#if HOLIX_CRC32C_X86
  if (HasHardwareCrc32c()) return Crc32cSse42(data, n, seed);
#endif
  return Crc32cPortable(data, n, seed);
}

}  // namespace holix::persist

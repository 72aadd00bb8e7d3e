/// \file serde.h
/// \brief Little-endian byte (de)serialization for the durability formats.
///
/// Every persisted integer is written little-endian byte-by-byte, so the
/// on-disk formats are identical across hosts regardless of the compiler's
/// layout choices; keys are persisted as their `KeyTraits<T>::ToRank`
/// u64 image (order-preserving, canonical-NaN, lossless), never as raw
/// floating-point bits.

#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace holix::persist {

/// Append-only byte buffer used to build records and snapshot bodies.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }

  void PutU16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
  }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  /// Length-prefixed (u16) string; throws when the name exceeds 64 KiB.
  void PutString(const std::string& s) {
    if (s.size() > UINT16_MAX) {
      throw std::length_error("persisted name too long: " + s.substr(0, 64));
    }
    PutU16(static_cast<uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t>& bytes() { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounded reader over a byte range. Every getter throws
/// std::out_of_range on underrun — callers treat that as corruption.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : p_(data), end_(data + n) {}

  uint8_t GetU8() {
    Need(1);
    return *p_++;
  }

  uint16_t GetU16() {
    Need(2);
    uint16_t v = static_cast<uint16_t>(p_[0]) |
                 static_cast<uint16_t>(p_[1]) << 8;
    p_ += 2;
    return v;
  }

  uint32_t GetU32() {
    Need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
  }

  uint64_t GetU64() {
    Need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
  }

  std::string GetString() {
    const uint16_t n = GetU16();
    Need(n);
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }

  /// Reads a u64 (or u32) element count and checks, before anything is
  /// allocated, that \p count elements of at least \p min_bytes each fit
  /// in the bytes that remain: a lying count in a CRC-valid file must read
  /// as truncation, not drive a huge allocation.
  size_t GetCount64(size_t min_bytes) {
    return CheckCount(GetU64(), min_bytes);
  }
  size_t GetCount32(size_t min_bytes) {
    return CheckCount(GetU32(), min_bytes);
  }

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool AtEnd() const { return p_ == end_; }

 private:
  void Need(size_t n) const {
    if (static_cast<size_t>(end_ - p_) < n) {
      throw std::out_of_range("persisted record truncated");
    }
  }

  size_t CheckCount(uint64_t count, size_t min_bytes) const {
    if (count > remaining() / min_bytes) {
      throw std::out_of_range("persisted count exceeds its record");
    }
    return static_cast<size_t>(count);
  }

  const uint8_t* p_;
  const uint8_t* end_;
};

}  // namespace holix::persist

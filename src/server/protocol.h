/// \file protocol.h
/// \brief The Holix wire protocol: versioned, length-prefixed binary frames
/// carrying the engine's §3.1 operator shapes over a byte stream.
///
/// Frame layout (all integers little-endian, explicitly serialized — the
/// encoder never memcpys structs, so the format is stable across ABIs):
///
///   u32  payload_len   (bounded by kMaxPayloadBytes BEFORE any allocation)
///   u8   msg_type      (MsgType; unknown values reject the frame)
///   u64  request_id    (echoed verbatim in the response frame, so clients
///                       may pipeline and match out-of-order completions)
///   u8[payload_len]    message payload
///
/// A connection opens with a Hello/HelloAck handshake carrying a magic
/// number and protocol version; a version mismatch is answered with an
/// Error frame and the connection closes. Strings are u16-length-prefixed
/// and bounded by kMaxStringBytes; a malformed or oversized frame can never
/// cause the decoder to over-allocate (lengths are validated against hard
/// caps and against the actual bytes available before any buffer grows).
///
/// Every query bound, update value and sum result travels as a *typed
/// scalar*: a u8 kind tag (0 = int64, 1 = double) followed by 8 payload
/// bytes (two's-complement LE, or IEEE-754 bits LE). A sum over a double
/// column therefore returns a genuine double over the wire, and clients can
/// express double predicates (including the NaN key and the infinities)
/// without loss. A kind tag above 1 rejects the frame.
///
/// Every read is one ExecuteQuery frame: a conjunction of
/// 1..kMaxQueryPredicates typed range predicates plus 1..kMaxQueryResults
/// result requests (count / per-column sums / rowids), so a
/// multi-predicate TPC-H-Q6-shaped query runs in one round trip and cracks
/// every predicate column server-side; a one-predicate frame is the §3.1
/// select. Predicate and result counts are validated against their caps
/// BEFORE any allocation, like every other length in the protocol.
///
/// Version history (the handshake is strict: a peer of any other version
/// is rejected at Hello with kVersionMismatch):
///  * v2: typed scalars in range bounds, update values and sum results.
///  * v3: the generic multi-predicate ExecuteQuery frame.
///  * v4: the GetStats telemetry frame (metrics snapshot + query traces).
///  * v5: the four per-primitive query frames of v1–v4 (count, sum,
///    projected sum, rowid select) and their four result frames, types
///    7–14, are gone; a one-predicate ExecuteQuery expresses each of
///    them. Their type bytes are retired: a frame carrying one is
///    rejected at the header like any unknown type, and the numbers are
///    never reused.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/types.h"

namespace holix::net {

using holix::KeyScalar;

/// Hello magic: the u32 value reads "HLXP" ('H'<<24|'L'<<16|'X'<<8|'P').
/// Like every wire scalar it serializes little-endian, so a packet capture
/// shows the bytes P X L H — peers compare the decoded u32, not the bytes.
inline constexpr uint32_t kMagic = 0x484C5850;
/// Protocol version spoken by this build. Bumped on any wire change (see
/// the version history in the file comment).
inline constexpr uint16_t kProtocolVersion = 5;
/// Hard cap on one frame's payload (validated before allocation). Large
/// enough for a 2M-rowid select result, small enough that a malformed
/// length can never balloon memory.
inline constexpr size_t kMaxPayloadBytes = size_t{1} << 24;  // 16 MiB
/// Hard cap on one wire string (table/column names, error messages).
inline constexpr size_t kMaxStringBytes = 1024;
/// Hard cap on an ExecuteQuery conjunction (validated before allocation).
inline constexpr size_t kMaxQueryPredicates = 16;
/// Hard cap on an ExecuteQuery result list (validated before allocation).
inline constexpr size_t kMaxQueryResults = 8;
/// Hard caps on one GetStatsResult snapshot (validated before allocation).
inline constexpr size_t kMaxStatsSeries = 16384;  ///< counters or gauges
inline constexpr size_t kMaxStatsHistograms = 1024;
inline constexpr size_t kMaxStatsTraces = 4096;
/// Bytes of the fixed frame header (len + type + request id).
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 8;

/// Message discriminator. Requests and responses share the numbering so a
/// trace reads naturally; responses echo the request's request_id.
enum class MsgType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kOpenSession = 3,
  kOpenSessionAck = 4,
  kCloseSession = 5,
  kCloseSessionAck = 6,
  // 7..14 are retired (v5): the per-primitive query frames and their
  // results, replaced by kExecuteQuery. Never reuse them.
  kInsert = 15,
  kInsertResult = 16,
  kDelete = 17,
  kDeleteResult = 18,
  kError = 19,
  kExecuteQuery = 20,        ///< v3: declarative multi-predicate query.
  kExecuteQueryResult = 21,  ///< v3: its typed values + optional rowids.
  kGetStats = 22,            ///< v4: request the server's metrics snapshot.
  kGetStatsResult = 23,      ///< v4: counters/gauges/histograms + traces.
};
inline constexpr uint8_t kMaxMsgType =
    static_cast<uint8_t>(MsgType::kGetStatsResult);
/// The retired type bytes [kFirstRetiredMsgType, kLastRetiredMsgType].
inline constexpr uint8_t kFirstRetiredMsgType = 7;
inline constexpr uint8_t kLastRetiredMsgType = 14;

/// Error frame codes.
enum class ErrorCode : uint16_t {
  kVersionMismatch = 1,  ///< Handshake version/magic rejected.
  kMalformedFrame = 2,   ///< Frame failed validation; connection closes.
  kUnknownMessage = 3,   ///< Valid frame, unexpected message type.
  kNoSuchColumn = 4,     ///< (table, column) did not resolve.
  kNoSuchSession = 5,    ///< session_id unknown to this connection.
  kQueryFailed = 6,      ///< Engine threw while executing the query.
  kShuttingDown = 7,     ///< Server is draining; retry elsewhere.
};

/// A decoded frame: type + correlation id + raw payload bytes.
struct Frame {
  MsgType type{};
  uint64_t request_id = 0;
  std::vector<uint8_t> payload;
};

// ---------------------------------------------------------------------------
// Bounded little-endian readers/writers
// ---------------------------------------------------------------------------

/// Appends explicitly little-endian scalars and length-prefixed strings.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  /// IEEE-754 bits, little-endian.
  void F64(double v) { AppendLe(std::bit_cast<uint64_t>(v)); }
  /// Typed scalar: u8 kind tag + 8 payload bytes.
  void Scalar(const KeyScalar& s);

  /// u16 length prefix + raw bytes. Throws std::length_error beyond
  /// kMaxStringBytes (server-side callers validate earlier; this is the
  /// backstop).
  void Str(const std::string& s);

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<uint8_t> buf_;
};

/// Reads bounded little-endian scalars from a byte span. Every accessor
/// returns false (and poisons the reader) instead of reading past the end.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* v) { return ReadLe(v); }
  bool U16(uint16_t* v) { return ReadLe(v); }
  bool U32(uint32_t* v) { return ReadLe(v); }
  bool U64(uint64_t* v) { return ReadLe(v); }
  bool I64(int64_t* v) {
    uint64_t u;
    if (!ReadLe(&u)) return false;
    std::memcpy(v, &u, sizeof(u));
    return true;
  }
  bool F64(double* v) {
    uint64_t u;
    if (!ReadLe(&u)) return false;
    *v = std::bit_cast<double>(u);
    return true;
  }
  /// Reads a typed scalar; a kind tag above 1 poisons the reader.
  bool Scalar(KeyScalar* out);

  /// Reads a u16-length-prefixed string; rejects lengths beyond
  /// kMaxStringBytes or beyond the remaining payload.
  bool Str(std::string* out);

  /// True when every byte was consumed and nothing failed — decoders
  /// require this so trailing garbage rejects the frame.
  bool AtEnd() const { return ok_ && off_ == size_; }
  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - off_; }

 private:
  template <typename T>
  bool ReadLe(T* v) {
    if (!ok_ || size_ - off_ < sizeof(T)) {
      ok_ = false;
      return false;
    }
    T out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      out |= static_cast<T>(static_cast<T>(data_[off_ + i]) << (8 * i));
    }
    *v = out;
    off_ += sizeof(T);
    return true;
  }
  const uint8_t* data_;
  size_t size_;
  size_t off_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

struct Hello {
  static constexpr MsgType kType = MsgType::kHello;
  uint32_t magic = kMagic;
  uint16_t version = kProtocolVersion;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

struct HelloAck {
  static constexpr MsgType kType = MsgType::kHelloAck;
  uint16_t version = kProtocolVersion;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

struct OpenSessionReq {
  static constexpr MsgType kType = MsgType::kOpenSession;
  void Encode(WireWriter&) const {}
  bool Decode(WireReader&) { return true; }
};

struct OpenSessionAck {
  static constexpr MsgType kType = MsgType::kOpenSessionAck;
  uint64_t session_id = 0;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

struct CloseSessionReq {
  static constexpr MsgType kType = MsgType::kCloseSession;
  uint64_t session_id = 0;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

struct CloseSessionAck {
  static constexpr MsgType kType = MsgType::kCloseSessionAck;
  void Encode(WireWriter&) const {}
  bool Decode(WireReader&) { return true; }
};

struct InsertReq {
  static constexpr MsgType kType = MsgType::kInsert;
  uint64_t session_id = 0;
  std::string table;
  std::string column;
  KeyScalar value;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

struct InsertResult {
  static constexpr MsgType kType = MsgType::kInsertResult;
  uint64_t rowid = 0;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

struct DeleteReq {
  static constexpr MsgType kType = MsgType::kDelete;
  uint64_t session_id = 0;
  std::string table;
  std::string column;
  KeyScalar value;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

struct DeleteResult {
  static constexpr MsgType kType = MsgType::kDeleteResult;
  bool found = false;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

struct ErrorMsg {
  static constexpr MsgType kType = MsgType::kError;
  ErrorCode code = ErrorCode::kQueryFailed;
  std::string message;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

/// One wire conjunct of an ExecuteQuery: low <= column < high with typed
/// scalar bounds (the engine's closed-bound degradation applies at the
/// order's top).
struct QueryPredicateWire {
  std::string column;
  KeyScalar low;
  KeyScalar high;
};

/// One wire result request: kind 0 = count, 1 = sum(column), 2 = rowids,
/// 3 = project-sum(column) (an alias of sum kept for operator-shape
/// symmetry). A kind above 3 rejects the frame; sum kinds require a
/// non-empty column name.
struct QueryResultSpecWire {
  uint8_t kind = 0;
  std::string column;
};

/// The declarative query: a conjunction of 1..kMaxQueryPredicates typed
/// range predicates over one table plus 1..kMaxQueryResults result
/// requests. Both counts are validated against their caps — and a zero
/// count is rejected — before any vector grows.
struct ExecuteQueryReq {
  static constexpr MsgType kType = MsgType::kExecuteQuery;
  uint64_t session_id = 0;
  std::string table;
  std::vector<QueryPredicateWire> predicates;
  std::vector<QueryResultSpecWire> results;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

/// The answer to an ExecuteQuery: one typed scalar per requested result
/// (counts as i64, sums in the summed column's carrier) plus the rowid
/// list when rowids were requested (empty otherwise). The u32 rowid count
/// is validated against the bytes actually present before any reserve.
struct ExecuteQueryResult {
  static constexpr MsgType kType = MsgType::kExecuteQueryResult;
  std::vector<KeyScalar> values;
  std::vector<uint64_t> rowids;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

/// v4: asks the server for its metrics snapshot. Served inline on the IO
/// loop without entering the request-counting path, so reading the stats
/// plane does not perturb the series it reports.
struct GetStatsReq {
  static constexpr MsgType kType = MsgType::kGetStats;
  void Encode(WireWriter&) const {}
  bool Decode(WireReader&) { return true; }
};

/// v4: the full metrics snapshot — name-sorted counters, gauges and
/// histograms plus the recent-query trace ring. Every count is validated
/// against its cap before any vector grows; the payload is bounded by
/// kMaxPayloadBytes like any other frame.
struct GetStatsResult {
  static constexpr MsgType kType = MsgType::kGetStatsResult;
  obs::MetricsSnapshot snapshot;
  void Encode(WireWriter& w) const;
  bool Decode(WireReader& r);
};

// ---------------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------------

/// Serializes a complete frame (header + payload) for message \p m.
template <typename M>
std::vector<uint8_t> EncodeMessage(uint64_t request_id, const M& m) {
  WireWriter payload;
  m.Encode(payload);
  const std::vector<uint8_t>& p = payload.bytes();
  WireWriter frame;
  frame.U32(static_cast<uint32_t>(p.size()));
  frame.U8(static_cast<uint8_t>(M::kType));
  frame.U64(request_id);
  std::vector<uint8_t> out = frame.Take();
  out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// Decodes frame \p f as message type M: the frame type must match and the
/// payload must parse with no trailing bytes.
template <typename M>
bool DecodeMessage(const Frame& f, M* out) {
  if (f.type != M::kType) return false;
  WireReader r(f.payload.data(), f.payload.size());
  return out->Decode(r) && r.AtEnd();
}

/// Outcome of TryDecodeFrame.
enum class DecodeStatus : uint8_t {
  kNeedMore,   ///< The buffer holds a frame prefix; read more bytes.
  kFrame,      ///< One frame decoded; *consumed bytes were used.
  kMalformed,  ///< Unrecoverable framing error; close the connection.
};

/// Attempts to peel one frame off \p data. Validates payload_len and
/// msg_type (unknown and retired types alike) BEFORE waiting for (or
/// allocating) the payload, so a malformed header can neither
/// over-allocate nor stall the connection forever.
DecodeStatus TryDecodeFrame(const uint8_t* data, size_t size, Frame* out,
                            size_t* consumed, std::string* error);

/// Printable name of a message type (diagnostics).
const char* MsgTypeName(MsgType t);

}  // namespace holix::net

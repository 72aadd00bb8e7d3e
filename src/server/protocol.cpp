#include "server/protocol.h"

#include <stdexcept>

namespace holix::net {

void WireWriter::Str(const std::string& s) {
  if (s.size() > kMaxStringBytes) {
    throw std::length_error("wire string exceeds kMaxStringBytes");
  }
  U16(static_cast<uint16_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

bool WireReader::Str(std::string* out) {
  uint16_t len = 0;
  if (!U16(&len)) return false;
  if (len > kMaxStringBytes || remaining() < len) {
    ok_ = false;
    return false;
  }
  out->assign(reinterpret_cast<const char*>(data_ + off_), len);
  off_ += len;
  return true;
}

void WireWriter::Scalar(const KeyScalar& s) {
  if (s.is_f64()) {
    U8(1);
    F64(s.d);
  } else {
    U8(0);
    I64(s.i);
  }
}

bool WireReader::Scalar(KeyScalar* out) {
  uint8_t kind = 0;
  if (!U8(&kind)) return false;
  if (kind > 1) {
    ok_ = false;
    return false;
  }
  if (kind == 1) {
    double d = 0;
    if (!F64(&d)) return false;
    *out = KeyScalar::F64(d);
  } else {
    int64_t i = 0;
    if (!I64(&i)) return false;
    *out = KeyScalar::I64(i);
  }
  return true;
}

// --- message bodies --------------------------------------------------------

void Hello::Encode(WireWriter& w) const {
  w.U32(magic);
  w.U16(version);
}
bool Hello::Decode(WireReader& r) { return r.U32(&magic) && r.U16(&version); }

void HelloAck::Encode(WireWriter& w) const { w.U16(version); }
bool HelloAck::Decode(WireReader& r) { return r.U16(&version); }

void OpenSessionAck::Encode(WireWriter& w) const { w.U64(session_id); }
bool OpenSessionAck::Decode(WireReader& r) { return r.U64(&session_id); }

void CloseSessionReq::Encode(WireWriter& w) const { w.U64(session_id); }
bool CloseSessionReq::Decode(WireReader& r) { return r.U64(&session_id); }

void InsertReq::Encode(WireWriter& w) const {
  w.U64(session_id);
  w.Str(table);
  w.Str(column);
  w.Scalar(value);
}
bool InsertReq::Decode(WireReader& r) {
  return r.U64(&session_id) && r.Str(&table) && r.Str(&column) &&
         r.Scalar(&value);
}

void InsertResult::Encode(WireWriter& w) const { w.U64(rowid); }
bool InsertResult::Decode(WireReader& r) { return r.U64(&rowid); }

void DeleteReq::Encode(WireWriter& w) const {
  w.U64(session_id);
  w.Str(table);
  w.Str(column);
  w.Scalar(value);
}
bool DeleteReq::Decode(WireReader& r) {
  return r.U64(&session_id) && r.Str(&table) && r.Str(&column) &&
         r.Scalar(&value);
}

void DeleteResult::Encode(WireWriter& w) const { w.U8(found ? 1 : 0); }
bool DeleteResult::Decode(WireReader& r) {
  uint8_t v = 0;
  if (!r.U8(&v)) return false;
  if (v > 1) return false;
  found = v != 0;
  return true;
}

void ExecuteQueryReq::Encode(WireWriter& w) const {
  // Backstop like WireWriter::Str: callers validate earlier (HolixClient
  // does), but a count that cannot fit its u8 must fail loudly at encode
  // time, never truncate on the wire.
  if (predicates.empty() || predicates.size() > kMaxQueryPredicates ||
      results.empty() || results.size() > kMaxQueryResults) {
    throw std::length_error(
        "ExecuteQueryReq: predicate/result count out of protocol bounds");
  }
  w.U64(session_id);
  w.Str(table);
  w.U8(static_cast<uint8_t>(predicates.size()));
  for (const QueryPredicateWire& p : predicates) {
    w.Str(p.column);
    w.Scalar(p.low);
    w.Scalar(p.high);
  }
  w.U8(static_cast<uint8_t>(results.size()));
  for (const QueryResultSpecWire& r : results) {
    w.U8(r.kind);
    w.Str(r.column);
  }
}
bool ExecuteQueryReq::Decode(WireReader& r) {
  uint8_t npred = 0;
  if (!r.U64(&session_id) || !r.Str(&table) || !r.U8(&npred)) return false;
  // Bounded before the vector grows: an empty conjunction is meaningless
  // and a lying count cannot reserve anything.
  if (npred == 0 || npred > kMaxQueryPredicates) return false;
  predicates.clear();
  predicates.reserve(npred);
  for (uint8_t i = 0; i < npred; ++i) {
    QueryPredicateWire p;
    if (!r.Str(&p.column) || !r.Scalar(&p.low) || !r.Scalar(&p.high)) {
      return false;
    }
    predicates.push_back(std::move(p));
  }
  uint8_t nres = 0;
  if (!r.U8(&nres)) return false;
  if (nres == 0 || nres > kMaxQueryResults) return false;
  results.clear();
  results.reserve(nres);
  for (uint8_t i = 0; i < nres; ++i) {
    QueryResultSpecWire res;
    if (!r.U8(&res.kind) || !r.Str(&res.column)) return false;
    if (res.kind > 3) return false;  // unknown result request
    // Sum kinds (1 = sum, 3 = project-sum) name the summed column; an
    // empty name can never resolve, so the frame rejects here instead of
    // bouncing off the registry later.
    if ((res.kind == 1 || res.kind == 3) && res.column.empty()) return false;
    results.push_back(std::move(res));
  }
  return true;
}

void ExecuteQueryResult::Encode(WireWriter& w) const {
  w.U8(static_cast<uint8_t>(values.size()));
  for (const KeyScalar& v : values) w.Scalar(v);
  w.U32(static_cast<uint32_t>(rowids.size()));
  for (uint64_t rid : rowids) w.U64(rid);
}
bool ExecuteQueryResult::Decode(WireReader& r) {
  uint8_t nvals = 0;
  if (!r.U8(&nvals)) return false;
  if (nvals == 0 || nvals > kMaxQueryResults) return false;
  values.clear();
  values.reserve(nvals);
  for (uint8_t i = 0; i < nvals; ++i) {
    KeyScalar v;
    if (!r.Scalar(&v)) return false;
    values.push_back(v);
  }
  uint32_t n = 0;
  if (!r.U32(&n)) return false;
  // The claimed count must match the bytes actually on the wire before
  // anything is reserved: a lying header cannot reserve gigabytes.
  if (r.remaining() != static_cast<size_t>(n) * sizeof(uint64_t)) {
    return false;
  }
  rowids.clear();
  rowids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t rid = 0;
    if (!r.U64(&rid)) return false;
    rowids.push_back(rid);
  }
  return true;
}

void GetStatsResult::Encode(WireWriter& w) const {
  w.U32(static_cast<uint32_t>(snapshot.counters.size()));
  for (const auto& [name, v] : snapshot.counters) {
    w.Str(name);
    w.U64(v);
  }
  w.U32(static_cast<uint32_t>(snapshot.gauges.size()));
  for (const auto& [name, v] : snapshot.gauges) {
    w.Str(name);
    w.F64(v);
  }
  w.U32(static_cast<uint32_t>(snapshot.histograms.size()));
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    w.Str(h.name);
    w.U8(static_cast<uint8_t>(h.bounds.size()));
    for (double b : h.bounds) w.F64(b);
    for (uint64_t c : h.counts) w.U64(c);
    w.F64(h.sum);
  }
  w.U32(static_cast<uint32_t>(snapshot.traces.size()));
  for (const obs::QueryTrace& t : snapshot.traces) {
    w.U64(t.seq);
    w.U8(t.mode);
    w.U16(t.predicates);
    w.U16(t.results);
    w.U32(t.probe_filters);
    w.U32(t.merge_intersects);
    w.U32(t.refine_hints);
    w.U32(t.pieces_created);
    w.U64(t.bytes_scanned);
    w.F64(t.latency_seconds);
    w.U8(t.slow ? 1 : 0);
  }
}
bool GetStatsResult::Decode(WireReader& r) {
  snapshot = obs::MetricsSnapshot{};
  uint32_t n = 0;
  if (!r.U32(&n) || n > kMaxStatsSeries) return false;
  // Each counter entry is at least a string length prefix + u64; the count
  // must be coverable by the bytes on the wire before any reserve.
  if (r.remaining() < static_cast<size_t>(n) * 10) return false;
  snapshot.counters.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t v = 0;
    if (!r.Str(&name) || !r.U64(&v)) return false;
    snapshot.counters.emplace_back(std::move(name), v);
  }
  if (!r.U32(&n) || n > kMaxStatsSeries) return false;
  if (r.remaining() < static_cast<size_t>(n) * 10) return false;
  snapshot.gauges.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    double v = 0;
    if (!r.Str(&name) || !r.F64(&v)) return false;
    snapshot.gauges.emplace_back(std::move(name), v);
  }
  if (!r.U32(&n) || n > kMaxStatsHistograms) return false;
  snapshot.histograms.reserve(
      std::min<size_t>(n, r.remaining() / 19));  // str + u8 + 2 F64 min
  for (uint32_t i = 0; i < n; ++i) {
    obs::HistogramSnapshot h;
    uint8_t nb = 0;
    if (!r.Str(&h.name) || !r.U8(&nb)) return false;
    if (nb >= obs::kMaxHistogramBins) return false;
    // nb bound doubles + (nb + 1) u64 counts + the sum double.
    if (r.remaining() < (static_cast<size_t>(nb) * 2 + 2) * 8) return false;
    h.bounds.resize(nb);
    for (uint8_t j = 0; j < nb; ++j) {
      if (!r.F64(&h.bounds[j])) return false;
    }
    h.counts.resize(static_cast<size_t>(nb) + 1);
    for (size_t j = 0; j < h.counts.size(); ++j) {
      if (!r.U64(&h.counts[j])) return false;
    }
    if (!r.F64(&h.sum)) return false;
    snapshot.histograms.push_back(std::move(h));
  }
  if (!r.U32(&n) || n > kMaxStatsTraces) return false;
  // Traces are the last section and fixed-size: the byte count must match
  // exactly (mirrors the ExecuteQueryResult rowid idiom).
  constexpr size_t kTraceBytes = 8 + 1 + 2 + 2 + 4 * 4 + 8 + 8 + 1;
  if (r.remaining() != static_cast<size_t>(n) * kTraceBytes) return false;
  snapshot.traces.resize(n);
  for (obs::QueryTrace& t : snapshot.traces) {
    uint8_t slow = 0;
    if (!r.U64(&t.seq) || !r.U8(&t.mode) || !r.U16(&t.predicates) ||
        !r.U16(&t.results) || !r.U32(&t.probe_filters) ||
        !r.U32(&t.merge_intersects) || !r.U32(&t.refine_hints) ||
        !r.U32(&t.pieces_created) || !r.U64(&t.bytes_scanned) ||
        !r.F64(&t.latency_seconds) || !r.U8(&slow)) {
      return false;
    }
    t.slow = slow != 0;
  }
  return true;
}

void ErrorMsg::Encode(WireWriter& w) const {
  w.U16(static_cast<uint16_t>(code));
  w.Str(message);
}
bool ErrorMsg::Decode(WireReader& r) {
  uint16_t c = 0;
  if (!r.U16(&c) || !r.Str(&message)) return false;
  code = static_cast<ErrorCode>(c);
  return true;
}

// --- framing ---------------------------------------------------------------

DecodeStatus TryDecodeFrame(const uint8_t* data, size_t size, Frame* out,
                            size_t* consumed, std::string* error) {
  *consumed = 0;
  if (size < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  WireReader header(data, kFrameHeaderBytes);
  uint32_t payload_len = 0;
  uint8_t type = 0;
  uint64_t request_id = 0;
  header.U32(&payload_len);
  header.U8(&type);
  header.U64(&request_id);
  // Validate the header before waiting for (or copying) the payload.
  if (payload_len > kMaxPayloadBytes) {
    if (error != nullptr) {
      *error = "frame payload length " + std::to_string(payload_len) +
               " exceeds cap " + std::to_string(kMaxPayloadBytes);
    }
    return DecodeStatus::kMalformed;
  }
  if (type == 0 || type > kMaxMsgType ||
      (type >= kFirstRetiredMsgType && type <= kLastRetiredMsgType)) {
    if (error != nullptr) {
      *error = "unknown message type " + std::to_string(type);
    }
    return DecodeStatus::kMalformed;
  }
  if (size < kFrameHeaderBytes + payload_len) return DecodeStatus::kNeedMore;
  out->type = static_cast<MsgType>(type);
  out->request_id = request_id;
  out->payload.assign(data + kFrameHeaderBytes,
                      data + kFrameHeaderBytes + payload_len);
  *consumed = kFrameHeaderBytes + payload_len;
  return DecodeStatus::kFrame;
}

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "Hello";
    case MsgType::kHelloAck: return "HelloAck";
    case MsgType::kOpenSession: return "OpenSession";
    case MsgType::kOpenSessionAck: return "OpenSessionAck";
    case MsgType::kCloseSession: return "CloseSession";
    case MsgType::kCloseSessionAck: return "CloseSessionAck";
    case MsgType::kInsert: return "Insert";
    case MsgType::kInsertResult: return "InsertResult";
    case MsgType::kDelete: return "Delete";
    case MsgType::kDeleteResult: return "DeleteResult";
    case MsgType::kError: return "Error";
    case MsgType::kExecuteQuery: return "ExecuteQuery";
    case MsgType::kExecuteQueryResult: return "ExecuteQueryResult";
    case MsgType::kGetStats: return "GetStats";
    case MsgType::kGetStatsResult: return "GetStatsResult";
  }
  return "?";
}

}  // namespace holix::net

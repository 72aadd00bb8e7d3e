/// \file client.h
/// \brief HolixClient: a small synchronous + pipelined client for the Holix
/// wire protocol (the socket-mode counterpart of an in-process Session).
///
/// The query surface mirrors Session: ExecuteQuery for every read (one
/// wire frame carrying a QuerySpec's predicates and result requests),
/// InsertScalar/DeleteScalar for updates, GetStats for telemetry.
///
/// Thread model mirrors Session too: one client object belongs to one
/// thread. The synchronous calls are send-then-await; the pipelined pair
/// (SendExecuteQuery / AwaitExecuteQuery) lets a client keep several
/// requests on the wire — responses may complete out of order on the
/// server and are matched back by request id, with unmatched frames
/// stashed until their Await.

#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"

namespace holix::net {

/// Thrown when the transport to the server fails (connection refused, peer
/// reset, EOF mid-response) — as opposed to a server-reported Error frame,
/// which surfaces as a plain std::runtime_error. With
/// ClientOptions::reconnect the synchronous read API retries through this
/// transparently; pipelined callers and update calls observe it directly.
class ConnectionLost : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Connection behavior of a HolixClient, set at Connect().
struct ClientOptions {
  /// Re-dial the original host:port when the transport drops. Synchronous
  /// *read* calls (ExecuteQuery, GetStats) are retried after a successful
  /// reconnect — they are idempotent, so a resend cannot double-apply.
  /// InsertScalar/DeleteScalar are never resent once their request bytes
  /// may have reached the server (the ack is ambiguous); a drop mid-update
  /// surfaces as ConnectionLost for the caller to resolve.
  /// Session ids handed out by OpenSession() stay valid across reconnects:
  /// they are client-side handles, re-bound to fresh server sessions on
  /// each re-dial.
  bool reconnect = false;

  /// Dial attempts (initial + retries) before a reconnect gives up.
  int max_attempts = 6;

  /// Exponential backoff between attempts: first wait, then doubling up to
  /// the cap.
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;
};

/// A connection to a HolixServer. Movable, not copyable.
class HolixClient {
 public:
  HolixClient() = default;
  ~HolixClient();

  HolixClient(HolixClient&& other) noexcept;
  HolixClient& operator=(HolixClient&& other) noexcept;
  HolixClient(const HolixClient&) = delete;
  HolixClient& operator=(const HolixClient&) = delete;

  /// Connects and performs the version handshake. Throws std::runtime_error
  /// on refusal (including a server version mismatch).
  void Connect(const std::string& host, uint16_t port,
               ClientOptions options = {});

  /// Closes the socket (idempotent).
  void Close();

  bool connected() const { return fd_ >= 0; }

  // --- Sessions ----------------------------------------------------------

  /// Opens a server-side session; returns a client-side handle for it.
  /// The handle survives reconnects (see ClientOptions::reconnect): the
  /// client re-opens a fresh server session for each live handle after
  /// re-dialing and keeps translating transparently.
  uint64_t OpenSession();
  void CloseSession(uint64_t session_id);

  // --- Telemetry ---------------------------------------------------------

  /// Fetches the server's full metrics snapshot (every holix_* counter,
  /// gauge and histogram, plus the recent-query trace ring) in one round
  /// trip. Needs no session: the server answers inline on its event loop.
  obs::MetricsSnapshot GetStats();

  // --- Query API ---------------------------------------------------------

  /// Executes a query in one round trip: a conjunction of
  /// 1..kMaxQueryPredicates typed range predicates over \p table plus
  /// 1..kMaxQueryResults result requests (QueryResultSpecWire kinds:
  /// 0 count, 1 sum, 2 rowids, 3 project-sum). Counts arrive as i64
  /// scalars, sums in the summed column's carrier. Throws
  /// std::invalid_argument, before anything is sent, when either list is
  /// empty or over its cap.
  ExecuteQueryResult ExecuteQuery(
      uint64_t session_id, const std::string& table,
      const std::vector<QueryPredicateWire>& predicates,
      const std::vector<QueryResultSpecWire>& results);

  /// Pending-queue insert; returns the new row's id.
  uint64_t InsertScalar(uint64_t session_id, const std::string& table,
                        const std::string& column, KeyScalar value);
  /// Pending-queue delete of one row holding \p value; true when found.
  bool DeleteScalar(uint64_t session_id, const std::string& table,
                    const std::string& column, KeyScalar value);

  // --- Pipelined query API ----------------------------------------------
  //
  // SendExecuteQuery writes the request and returns immediately with its
  // request id; AwaitExecuteQuery blocks until that id's response arrives
  // (stashing any other responses read along the way). Keeping a window of
  // requests in flight amortizes the per-message network latency — but
  // stay below the server's max_in_flight_per_connection or its
  // backpressure will park the stream anyway. Pipelined calls never
  // reconnect.

  uint64_t SendExecuteQuery(
      uint64_t session_id, const std::string& table,
      const std::vector<QueryPredicateWire>& predicates,
      const std::vector<QueryResultSpecWire>& results);
  ExecuteQueryResult AwaitExecuteQuery(uint64_t request_id);

  /// Responses read but not yet awaited.
  size_t StashedResponses() const { return stash_.size(); }

 private:
  uint64_t NextRequestId() { return next_request_id_++; }
  void SendBytes(const std::vector<uint8_t>& bytes);
  template <typename M>
  uint64_t SendMessage(const M& m) {
    const uint64_t id = NextRequestId();
    SendBytes(EncodeMessage(id, m));
    return id;
  }
  /// Validates the predicate/result counts against the protocol caps and
  /// builds the ExecuteQuery request (session_id left for the caller).
  static ExecuteQueryReq BuildQuery(
      const std::string& table,
      const std::vector<QueryPredicateWire>& predicates,
      const std::vector<QueryResultSpecWire>& results);
  /// Reads frames until \p request_id's response shows up; other frames
  /// are stashed for their own Await.
  Frame AwaitFrame(uint64_t request_id);
  /// Decodes \p f as M, converting a server Error frame into a thrown
  /// std::runtime_error.
  template <typename M>
  M Expect(const Frame& f);

  /// Dials host_:port_ and runs the version handshake (no session state).
  void Dial();
  /// Throws ConnectionLost when fd_ is down and reconnect is off;
  /// otherwise re-dials once and re-opens every tracked session handle.
  void EnsureConnected();
  /// Translates a client session handle to the current server session id
  /// (identity for ids the client did not hand out).
  uint64_t ServerSession(uint64_t handle) const;
  /// One synchronous round trip with the reconnect policy applied: read
  /// calls (idempotent) are retried with exponential backoff across
  /// reconnects; a request that may already have reached the server is
  /// never resent unless idempotent.
  template <typename Resp, typename Req>
  Resp Transact(Req req, uint64_t session_handle, bool idempotent);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  std::vector<uint8_t> acc_;
  std::unordered_map<uint64_t, Frame> stash_;

  std::string host_;
  uint16_t port_ = 0;
  ClientOptions opts_;
  uint64_t next_session_handle_ = 1;
  /// Client session handle -> current server session id (re-bound on
  /// every reconnect; ordered so re-opens happen in handle order).
  std::map<uint64_t, uint64_t> sessions_;
};

}  // namespace holix::net

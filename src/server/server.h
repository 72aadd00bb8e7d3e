/// \file server.h
/// \brief HolixServer: the TCP service layer over the engine's Session API
/// (§5.8's many-concurrent-clients model made real on a socket).
///
/// Thread model: an epoll event loop on a small fixed set of IO threads
/// (ServerOptions::io_threads), each owning a disjoint subset of
/// nonblocking connections — not a thread per connection, so thousands of
/// idle clients cost file descriptors, not stacks. Each IO thread decodes
/// length-prefixed frames incrementally out of a per-connection read
/// buffer (partial frames simply wait for the next readable event) and
/// resolves handles through the connection's sessions (each session's
/// handle cache stays single-threaded); every query frame is dispatched
/// through Session::SubmitRaw onto the database's client pool and answered
/// by Database::Execute, so each socket read is one engine query. Pool
/// threads never touch sockets: a finished query encodes its response
/// frame, parks it in the connection's outbox and wakes the owning loop
/// (eventfd), which moves it to the write queue and writes until EAGAIN,
/// keeping EPOLLOUT armed across partial writes.
///
/// Backpressure: a connection stops *decoding* — and drops EPOLLIN
/// interest, so the kernel receive buffer fills and TCP flow control
/// pushes back on the client — while it has
/// ServerOptions::max_in_flight_per_connection dispatched queries or more
/// than ServerOptions::max_queued_bytes_per_connection of undelivered
/// response bytes. Reads resume when the window reopens.
///
/// Shutdown: Stop() closes the listener, stops frame decoding, *drains*
/// every in-flight query (responses still go out), flushes write queues
/// (bounded by ServerOptions::drain_flush_seconds for peers that stopped
/// reading), then joins the IO threads and closes every socket.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/session.h"
#include "server/protocol.h"

namespace holix {
class Database;
}

namespace holix::net {

/// Construction-time options of a HolixServer.
struct ServerOptions {
  /// Address to bind; the default serves loopback only (the benchmarks'
  /// and tests' deployment). Use "0.0.0.0" to serve a network.
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 binds an ephemeral port (read the result from port()).
  uint16_t port = 0;

  /// listen(2) backlog. Connection storms (the 1k-connection sweep) burst
  /// far past the old per-thread pace, so the default is generous.
  int backlog = 256;

  /// Backpressure window: dispatched-but-unanswered queries one connection
  /// may have before its loop stops decoding further requests.
  size_t max_in_flight_per_connection = 32;

  /// Backpressure watermark on undelivered response bytes (outbox + write
  /// queue); past it the loop stops decoding the connection's requests
  /// until the peer drains.
  size_t max_queued_bytes_per_connection = 4u << 20;

  /// Cap on concurrently open sessions per connection; an OpenSession
  /// beyond it is answered with an Error frame (session management is not
  /// covered by the in-flight window, so this bounds it separately).
  size_t max_sessions_per_connection = 64;

  /// Number of epoll IO threads. Two saturate loopback comfortably; raise
  /// toward the physical core count for many active NIC-attached clients.
  size_t io_threads = 2;

  /// Serve a plain-HTTP `GET /metrics` endpoint (Prometheus text
  /// exposition) on the event loop. Enabled by metrics_http or a nonzero
  /// metrics_port; port 0 with metrics_http binds an ephemeral port (read
  /// the result from metrics_port()).
  bool metrics_http = false;
  uint16_t metrics_port = 0;

  /// Seconds Stop() keeps flushing response bytes to peers that read
  /// slowly; a peer that stopped reading entirely is cut off after this.
  double drain_flush_seconds = 5.0;
};

/// A TCP server exposing one Database over the Holix wire protocol.
class HolixServer {
 public:
  /// \p db must outlive the server.
  explicit HolixServer(Database& db, ServerOptions options = {});
  ~HolixServer();

  HolixServer(const HolixServer&) = delete;
  HolixServer& operator=(const HolixServer&) = delete;

  /// Binds, listens and starts the IO loops. Throws std::runtime_error
  /// when the socket cannot be set up.
  void Start();

  /// Stops accepting, stops decoding, drains in-flight queries (their
  /// responses are still written), flushes, joins every IO thread and
  /// closes every socket. Idempotent; also runs from the destructor.
  void Stop();

  /// The bound TCP port (valid after Start(); resolves ephemeral binds).
  uint16_t port() const { return port_; }

  /// The bound metrics-endpoint port (0 when the endpoint is disabled).
  uint16_t metrics_port() const { return metrics_port_; }

  /// True between successful Start() and Stop().
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Connections accepted over the server's lifetime.
  uint64_t TotalConnections() const {
    return total_connections_.load(std::memory_order_relaxed);
  }

  /// Request frames dispatched over the server's lifetime.
  uint64_t TotalRequests() const {
    return total_requests_.load(std::memory_order_relaxed);
  }

  /// High-water mark of concurrently open protocol connections.
  uint64_t PeakConnections() const {
    return peak_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct IoLoop;

  /// Per-connection state. The owning IO thread has exclusive use of the
  /// read buffer, session map and write queue; pool threads only park
  /// encoded responses in the outbox (under out_mu) and wake the loop.
  struct Connection {
    int fd = -1;
    IoLoop* loop = nullptr;

    // --- loop-thread-only ---------------------------------------------
    std::vector<uint8_t> rbuf;
    bool http = false;  ///< Accepted on the metrics port: speaks HTTP.
    bool handshaken = false;
    bool paused = false;    ///< EPOLLIN interest dropped (backpressure).
    bool draining = false;  ///< Stop(): no further frames are decoded.
    bool read_eof = false;  ///< Peer half-closed; close after flush.
    bool close_after_flush = false;  ///< Protocol error: close once flushed.
    uint32_t events = 0;    ///< Currently registered epoll interest.
    std::unordered_map<uint64_t, Session> sessions;
    std::deque<std::vector<uint8_t>> wq;  ///< Write queue, whole frames.
    size_t wq_off = 0;       ///< Partial-write offset into wq.front().
    size_t wq_bytes = 0;     ///< Bytes queued in wq.

    // --- shared with pool threads (under out_mu) ----------------------
    std::mutex out_mu;
    std::vector<std::vector<uint8_t>> outbox;  ///< Completed responses.
    size_t outbox_bytes = 0;
    size_t in_flight = 0;  ///< Dispatched, response not yet in outbox/wq.
    bool closed = false;   ///< fd gone; completions become no-ops.
  };

  /// One epoll loop: owns its connections, a wake eventfd, and a task /
  /// dirty-connection queue other threads post into.
  struct IoLoop {
    size_t index = 0;
    int epfd = -1;
    int wakefd = -1;
    std::thread th;
    std::atomic<bool> stop{false};
    std::mutex mu;
    std::vector<std::function<void()>> tasks;
    std::vector<std::shared_ptr<Connection>> dirty;
    /// Loop-thread-only registry (shared_ptr keeps closures' conn alive).
    std::unordered_map<Connection*, std::shared_ptr<Connection>> conns;
  };

  void LoopRun(IoLoop& loop);
  void Post(IoLoop& loop, std::function<void()> fn);
  static void Wake(IoLoop& loop);
  /// Called from pool threads after parking a response in the outbox.
  void NotifyDirty(const std::shared_ptr<Connection>& conn);

  void AcceptReady(IoLoop& loop, int listen_fd, bool http);
  void RegisterConn(IoLoop& loop, const std::shared_ptr<Connection>& conn);
  void ReadReady(IoLoop& loop, const std::shared_ptr<Connection>& conn);
  /// Serves `GET /metrics` (Prometheus text exposition) on a metrics-port
  /// connection; any other request is answered 404. One-shot HTTP/1.0:
  /// the response is flushed and the connection closed.
  void HandleHttp(IoLoop& loop, const std::shared_ptr<Connection>& conn);
  /// Decodes every complete frame in rbuf (until backpressure pauses).
  void DecodeFrames(IoLoop& loop, const std::shared_ptr<Connection>& conn);
  /// Moves the outbox into the write queue and writes until EAGAIN or
  /// empty; arms/disarms EPOLLOUT; may destroy the connection.
  void FlushWrites(IoLoop& loop, const std::shared_ptr<Connection>& conn);
  void UpdateInterest(IoLoop& loop, Connection& conn);
  bool ShouldPause(Connection& conn) const;
  void DestroyConn(IoLoop& loop, const std::shared_ptr<Connection>& conn);

  /// Handles one decoded frame; returns false when the connection must
  /// close (protocol violation).
  bool HandleFrame(IoLoop& loop, const std::shared_ptr<Connection>& conn,
                   const Frame& f);
  /// Dispatches one query frame: \p run resolves handles on the loop
  /// thread and returns a closure producing the encoded response frame,
  /// executed on the client pool.
  template <typename Req, typename Fn>
  bool DispatchQuery(IoLoop& loop, const std::shared_ptr<Connection>& conn,
                     const Frame& f, Fn&& run);
  /// Parks an encoded response and wakes the loop (pool threads).
  void CompleteRequest(const std::shared_ptr<Connection>& conn,
                       std::vector<uint8_t> frame);
  /// Counts a dispatch in the per-connection and global windows.
  void BeginRequest(Connection& conn);

  /// Loop-thread enqueue of a non-query frame (acks, errors).
  void EnqueueLoop(IoLoop& loop, const std::shared_ptr<Connection>& conn,
                   std::vector<uint8_t> bytes);
  void EnqueueError(IoLoop& loop, const std::shared_ptr<Connection>& conn,
                    uint64_t request_id, ErrorCode code,
                    const std::string& message);
  static std::vector<uint8_t> EncodeError(uint64_t request_id, ErrorCode code,
                                          const std::string& message);

  Database& db_;
  ServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int metrics_listen_fd_ = -1;
  uint16_t metrics_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::atomic<size_t> next_loop_{0};
  /// Dispatched-but-unanswered queries across all connections; Stop()
  /// waits for zero (pool closures never block on sockets, so this always
  /// drains).
  std::atomic<uint64_t> global_in_flight_{0};

  std::atomic<uint64_t> total_connections_{0};
  std::atomic<uint64_t> total_requests_{0};
  std::atomic<uint64_t> open_connections_{0};
  std::atomic<uint64_t> peak_connections_{0};
};

}  // namespace holix::net

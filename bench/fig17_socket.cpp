/// \file fig17_socket.cpp
/// \brief Figure 17 (§5.8) rerun over loopback TCP: the same concurrent-
/// client sweep as fig17_clients, but every client is a real HolixClient
/// on a socket talking to a HolixServer in front of the database. The
/// side-by-side in-process and socket columns expose the network tax on
/// the paper's robustness result; identical result checksums prove the
/// service layer returns exactly what the in-process session path returns.

#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "server/client.h"
#include "server/server.h"
#include "util/timer.h"

using namespace holix;
using namespace holix::bench;

namespace {

struct SocketRun {
  double seconds;
  uint64_t checksum;
};

/// Pipelines one count query: a one-predicate ExecuteQuery frame.
uint64_t SendCount(net::HolixClient& client, uint64_t session,
                   const std::string& column, const RangeQuery& q) {
  return client.SendExecuteQuery(session, "r", {{column, q.low, q.high}},
                                 {{0, ""}});
}

uint64_t AwaitCount(net::HolixClient& client, uint64_t request) {
  return static_cast<uint64_t>(client.AwaitExecuteQuery(request).values[0].i);
}

/// Drives \p clients socket clients against a fresh server over \p db:
/// each client thread consumes queries round-robin (same driver shape as
/// the in-process run), pipelining a small window of requests to keep the
/// wire busy. Connections, handshakes, and sessions are established
/// before the clock starts — mirroring the in-process run, whose sessions
/// and handles are also built outside the timed region — so the two
/// columns differ only by per-query transport cost.
SocketRun RunWorkloadOverSockets(Database& db,
                                 const std::vector<std::string>& columns,
                                 const std::vector<RangeQuery>& queries,
                                 size_t clients) {
  net::HolixServer server(db, net::ServerOptions{});
  server.Start();
  const uint16_t port = server.port();

  std::vector<net::HolixClient> conns(clients);
  std::vector<uint64_t> sessions(clients);
  for (size_t c = 0; c < clients; ++c) {
    conns[c].Connect("127.0.0.1", port);
    sessions[c] = conns[c].OpenSession();
  }

  constexpr size_t kWindow = 8;  // pipelined requests per client
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> checksum{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  Timer wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::HolixClient& client = conns[c];
      const uint64_t session = sessions[c];
      uint64_t local = 0;
      std::vector<uint64_t> window;  // in-flight request ids, oldest first
      window.reserve(kWindow);
      size_t head = 0;
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= queries.size()) break;
        const RangeQuery& q = queries[i];
        window.push_back(SendCount(client, session, columns[q.attr], q));
        if (window.size() - head >= kWindow) {
          local += AwaitCount(client, window[head++]);
        }
      }
      for (; head < window.size(); ++head) {
        local += AwaitCount(client, window[head]);
      }
      client.CloseSession(session);
      checksum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();
  server.Stop();
  return {seconds, checksum.load(std::memory_order_relaxed)};
}

/// The 1k-connection sweep: \p clients connections multiplexed across a
/// small fixed set of driver threads (mirroring the server's own
/// event-loop shape — neither side runs a thread per connection). Each
/// worker owns clients/workers pipelined connections and round-robins
/// between them; the query set, pipeline window and checksum are the same
/// as the thread-per-client driver, so rows are comparable.
SocketRun RunWorkloadMultiplexed(Database& db,
                                 const std::vector<std::string>& columns,
                                 const std::vector<RangeQuery>& queries,
                                 size_t clients, size_t workers) {
  net::HolixServer server(db, net::ServerOptions{});
  server.Start();
  const uint16_t port = server.port();

  struct ConnState {
    net::HolixClient cli;
    uint64_t sid = 0;
    std::deque<uint64_t> window;  // in-flight request ids, oldest first
  };
  // Connections and sessions open before the clock starts, as in the
  // thread-per-client driver.
  std::vector<std::vector<ConnState>> shards(workers);
  for (size_t w = 0; w < workers; ++w) {
    const size_t lo = w * clients / workers;
    const size_t hi = (w + 1) * clients / workers;
    shards[w] = std::vector<ConnState>(hi - lo);
    for (auto& cs : shards[w]) {
      cs.cli.Connect("127.0.0.1", port);
      cs.sid = cs.cli.OpenSession();
    }
  }

  constexpr size_t kWindow = 8;  // pipelined requests per connection
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> checksum{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  Timer wall;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<ConnState>& conns = shards[w];
      uint64_t local = 0;
      bool exhausted = false;
      while (!exhausted) {
        bool sent = false;
        for (auto& cs : conns) {
          if (cs.window.size() >= kWindow) {
            local += AwaitCount(cs.cli, cs.window.front());
            cs.window.pop_front();
          }
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= queries.size()) {
            exhausted = true;
            break;
          }
          const RangeQuery& q = queries[i];
          cs.window.push_back(SendCount(cs.cli, cs.sid, columns[q.attr], q));
          sent = true;
        }
        if (!sent) break;
      }
      for (auto& cs : conns) {
        while (!cs.window.empty()) {
          local += AwaitCount(cs.cli, cs.window.front());
          cs.window.pop_front();
        }
        cs.cli.CloseSession(cs.sid);
      }
      checksum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();
  server.Stop();
  return {seconds, checksum.load(std::memory_order_relaxed)};
}

}  // namespace

int main() {
  const BenchEnv env = ReadEnv(/*rows=*/1u << 21, /*queries=*/1024);
  const size_t attrs = 10;
  PrintScaleNote(env, attrs);

  WorkloadSpec spec;
  spec.num_queries = env.queries;
  spec.num_attributes = attrs;
  spec.domain = env.domain;
  spec.pattern = QueryPattern::kRandom;
  spec.seed = env.seed;
  const auto queries = GenerateWorkload(spec);
  const auto names = MakeAttributeNames(attrs);

  std::vector<size_t> client_counts;
  for (size_t c = 1; c < env.cores; c *= 2) client_counts.push_back(c);
  client_counts.push_back(env.cores);

  bool checksums_ok = true;
  ReportTable t(
      "Fig 17 over loopback TCP: total processing cost (s) vs #clients");
  t.SetHeader({"clients", "PVDC inproc", "PVDC socket", "HI inproc",
               "HI socket", "checksum", "match"});
  for (size_t clients : client_counts) {
    const size_t per_query = std::max<size_t>(1, env.cores / clients);
    // PVDC: in-process baseline and the socket rerun, each on a fresh
    // database (both pay first-touch cracking; only the transport differs).
    ConcurrentRunResult pvdc_inproc{};
    SocketRun pvdc_socket{};
    {
      Database db(PlainOptions(ExecMode::kAdaptive, per_query));
      LoadUniformTable(db, "r", attrs, env.rows, env.domain, env.seed);
      pvdc_inproc =
          RunWorkloadConcurrentChecked(db, "r", names, queries, clients);
    }
    {
      Database db(PlainOptions(ExecMode::kAdaptive, per_query));
      LoadUniformTable(db, "r", attrs, env.rows, env.domain, env.seed);
      pvdc_socket = RunWorkloadOverSockets(db, names, queries, clients);
    }
    // Holistic: same thread split as fig17_clients.
    const size_t u = std::max<size_t>(1, per_query / 2);
    const size_t w = std::max<size_t>(
        1, (env.cores - u * clients) / (2 * std::max<size_t>(1, clients)));
    const size_t z = 2;
    ConcurrentRunResult hi_inproc{};
    SocketRun hi_socket{};
    {
      Database db(HolisticOptions(u, w, z, env.cores));
      LoadUniformTable(db, "r", attrs, env.rows, env.domain, env.seed);
      hi_inproc =
          RunWorkloadConcurrentChecked(db, "r", names, queries, clients);
    }
    {
      Database db(HolisticOptions(u, w, z, env.cores));
      LoadUniformTable(db, "r", attrs, env.rows, env.domain, env.seed);
      hi_socket = RunWorkloadOverSockets(db, names, queries, clients);
    }
    const bool match = pvdc_inproc.result_checksum == pvdc_socket.checksum &&
                       hi_inproc.result_checksum == hi_socket.checksum &&
                       pvdc_inproc.result_checksum ==
                           hi_inproc.result_checksum;
    checksums_ok = checksums_ok && match;
    t.AddRow({std::to_string(clients), FormatSeconds(pvdc_inproc.seconds),
              FormatSeconds(pvdc_socket.seconds),
              FormatSeconds(hi_inproc.seconds),
              FormatSeconds(hi_socket.seconds),
              std::to_string(pvdc_inproc.result_checksum),
              match ? "yes" : "MISMATCH"});
  }
  t.Print();
  SaveBenchJson(t, "fig17_socket");

  // The 1k-connection sweep: way past a thread-per-client regime, driven
  // by a fixed worker pool multiplexing pipelined connections. The
  // in-process oracle checksum comes from one adaptive run (the checksum
  // is a property of the query set, not the client count); wall-clock per
  // row must stay flat as connections grow, since the query count is
  // fixed and idle connections cost the event loop nothing.
  uint64_t oracle_checksum = 0;
  {
    Database db(PlainOptions(ExecMode::kAdaptive, env.cores));
    LoadUniformTable(db, "r", attrs, env.rows, env.domain, env.seed);
    oracle_checksum =
        RunWorkloadConcurrentChecked(db, "r", names, queries, 1)
            .result_checksum;
  }
  const size_t sweep_workers = std::min<size_t>(8, 2 * env.cores);
  // Both socket ends live in this process: 1024 connections need ~2.2k
  // fds, over the common 1024 default soft limit.
  const size_t fd_limit = RaiseFdLimit(4096);
  ReportTable ts("Fig 17 socket sweep: 1k+ connections, fixed query count");
  ts.SetHeader({"clients", "PVDC socket", "HI socket", "checksum", "match"});
  for (size_t clients : {size_t{16}, size_t{64}, size_t{256}, size_t{1024}}) {
    if (fd_limit > 0 && 2 * clients + 128 > fd_limit) {
      std::printf("# skipping %zu clients: RLIMIT_NOFILE=%zu too low "
                  "(raise ulimit -n)\n",
                  clients, fd_limit);
      continue;
    }
    SocketRun pvdc{};
    {
      Database db(PlainOptions(ExecMode::kAdaptive, env.cores));
      LoadUniformTable(db, "r", attrs, env.rows, env.domain, env.seed);
      pvdc = RunWorkloadMultiplexed(db, names, queries, clients,
                                    sweep_workers);
    }
    const size_t u = std::max<size_t>(1, env.cores / 2);
    SocketRun hi{};
    {
      Database db(HolisticOptions(u, 1, 2, env.cores));
      LoadUniformTable(db, "r", attrs, env.rows, env.domain, env.seed);
      hi = RunWorkloadMultiplexed(db, names, queries, clients, sweep_workers);
    }
    const bool match =
        pvdc.checksum == oracle_checksum && hi.checksum == oracle_checksum;
    checksums_ok = checksums_ok && match;
    ts.AddRow({std::to_string(clients), FormatSeconds(pvdc.seconds),
               FormatSeconds(hi.seconds), std::to_string(pvdc.checksum),
               match ? "yes" : "MISMATCH"});
  }
  ts.Print();
  SaveBenchJson(ts, "fig17_socket_sweep");

  std::printf("\n# paper: Fig. 17's robustness story, now with the network "
              "tax; socket checksums must equal the in-process run\n");
  if (!checksums_ok) {
    std::fprintf(stderr, "# CHECKSUM MISMATCH between socket and in-process "
                         "runs\n");
    return 1;
  }
  return 0;
}

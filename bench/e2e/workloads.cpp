/// \file workloads.cpp
/// \brief The four workloads, each run timed (end-to-end metrics) or traced
/// (per-layer metrics). README.md gives the reason for each:
///  * cold_explore — the paper's setting: columns far larger than L3,
///    random ranges, two clients leaving two contexts to holistic workers.
///  * hot_serve — a converged, cache-resident index, so the server,
///    planner and encoding dominate and kernel changes should not move it.
///  * durable_mix — writes beside reads at fsync=always with checkpoints:
///    WAL group commit, the update barrier and Ripple merges do the work.
///  * restart — warm recovery (snapshot read, WAL replay, re-crack)
///    against the time spent re-learning the index afterwards.

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <thread>
#include <type_traits>

#include "cracking/cracker_column.h"
#include "e2e.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace holix::e2e {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// --- Per-layer metrics -------------------------------------------------------

/// Every per-layer metric with its unit, in BENCHMARK.json order. A
/// workload that does not exercise a layer reports 0 for its metrics.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"server.self_ms.p50", "ms"},
    {"server.self_ms.p99", "ms"},
    {"sharedscan.coalesced_frac", "ratio"},
    {"sharedscan.batches", "count"},
    {"sharedscan.admission_skips", "count"},
    {"server.requests", "count"},
    {"server.backpressure_toggles", "count"},
    {"server.outbox_bytes_per_request", "B/request"},
    {"engine.execute_ms.p50", "ms"},
    {"engine.execute_ms.p99", "ms"},
    {"engine.self_ms.p50", "ms"},
    {"planner.probes", "count"},
    {"planner.merges", "count"},
    {"planner.refine_hints", "count"},
    {"cracking.select_s", "s"},
    {"cracking.cracks", "count"},
    {"cracking.bytes_moved_per_query", "B/query"},
    {"cracking.simd_frac", "ratio"},
    {"cracking.morsel_steal_frac", "ratio"},
    {"cracking.scan_bytes_per_query", "B/query"},
    {"cracking.pieces_end", "count"},
    {"storage.ripple_inserts", "count"},
    {"storage.ripple_deletes", "count"},
    {"holistic.activations", "count"},
    {"holistic.refinements", "count"},
    {"holistic.worker_cracks", "count"},
    {"holistic.retirements", "count"},
    {"holistic.busy_s", "s"},
    {"holistic.worker_crack_frac", "ratio"},
    {"holistic.latch_fail_frac", "ratio"},
    {"holistic.distance_mib_end", "MiB"},
    {"wal.records", "count"},
    {"wal.fsyncs", "count"},
    {"wal.records_per_fsync", "ratio"},
    {"wal.bytes_per_record", "B/record"},
    {"write.p50_ms", "ms"},
    {"write.p99_ms", "ms"},
    {"checkpoint.count", "count"},
    {"checkpoint.busy_s", "s"},
    {"checkpoint.stall_p99_ms", "ms"},
    {"persist.write_amp", "ratio"},
    {"persist.disk_mib", "MiB"},
    {"recover.manifest_s", "s"},
    {"recover.snapshot_read_s", "s"},
    {"recover.begin_restore_s", "s"},
    {"recover.wal_read_s", "s"},
    {"recover.wal_apply_s", "s"},
    {"recover.finish_restore_s", "s"},
    {"recover.pivots", "count"},
    {"recover.replayed_records", "count"},
    {"recover.recovery_s", "s"},
    {"recover.catchup_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

class Layers {
 public:
  Layers() {
    for (const auto& m : kLayerMetrics) values_.emplace(m.first, 0.0);
  }
  /// at() rejects a name missing from kLayerMetrics.
  void Set(const std::string& name, double v) {
    values_.at(name) = std::isfinite(v) ? v : 0;
  }
  std::vector<Metric> Emit() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : kLayerMetrics) {
      out.push_back({name, values_.at(name), unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

// --- Shapes ------------------------------------------------------------------

/// What one workload runs.
struct Shape {
  size_t columns = 0;
  size_t rows = 0;
  size_t clients = 0;
  size_t window = 1;          ///< reads in flight per connection
  Mix mix;
  size_t converge = 0;        ///< in-process set-up queries (narrow counts)
  size_t templates = 0;
  size_t ops_per_client = 0;  ///< per round; 0 runs each round for window_s
  double window_s = 0;
  size_t rounds = 3;          ///< set-ups per run, each with one window
  bool durable = false;       ///< fsync=always data dir, 3 checkpoints
  bool crack_replay = false;  ///< trace replays the cracking layer too
  size_t build_queries = 0;   ///< restart: queries before the checkpoint
  size_t tail_updates = 0;    ///< restart: WAL records after it
};

Shape ShapeOf(const RunOptions& o) {
  const bool smoke = o.smoke;
  Shape s;
  s.rounds = smoke ? 1 : 5;
  s.window_s = smoke ? 1.0 : o.seconds / static_cast<double>(s.rounds);
  if (o.workload == "cold_explore") {
    s.columns = 8;
    s.rows = smoke ? size_t{1} << 17 : size_t{1} << 22;
    s.clients = 2;
    s.mix.columns = 8;
    // 20,000 queries a round at --seconds 20, each round from a fresh load.
    s.rounds = smoke ? 1 : 6;
    s.ops_per_client =
        smoke ? 1500 : static_cast<size_t>(500 * std::max(1.0, o.seconds));
    s.crack_replay = true;
  } else if (o.workload == "hot_serve") {
    s.columns = 4;
    s.rows = smoke ? size_t{1} << 16 : size_t{1} << 20;
    s.clients = 4;
    s.window = 8;
    s.mix.columns = 4;
    s.mix.width = 0.02;
    s.mix.conj = 0.2;
    s.converge = smoke ? 5000 : 50000;
    s.templates = smoke ? 256 : 4096;
    s.crack_replay = true;
  } else if (o.workload == "durable_mix") {
    s.columns = 4;
    s.rows = smoke ? size_t{1} << 16 : size_t{1} << 21;
    s.clients = 4;
    s.mix.columns = 4;
    s.mix.own_column = true;
    s.mix.width = 0.01;
    s.mix.fixed_width = true;
    s.mix.insert = 0.15;
    s.mix.del = 0.15;
    s.durable = true;
  } else if (o.workload == "restart") {
    s.columns = 2;
    s.rows = smoke ? size_t{1} << 16 : size_t{1} << 20;
    s.clients = 2;
    s.mix.columns = 2;
    s.ops_per_client = smoke ? 200 : 1000;  // 2,000 fresh queries a cycle
    s.rounds = smoke ? 1 : 12;
    s.build_queries = smoke ? 50 : 200;
    s.tail_updates = smoke ? 200 : 1000;
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  return s;
}

/// One workload's inputs, built once per run (outside set-up time).
struct Bench {
  RunOptions opt;
  Shape shape;
  BaseOracle base;
  std::vector<Op> converge_ops;
  std::string data_dir;
};

Bench MakeBench(const RunOptions& o) {
  Bench b{o, ShapeOf(o), {}, {}, o.out_dir + "/data"};
  const Shape& s = b.shape;
  b.base = BuildBaseOracle(o.seed, s.columns, s.rows);
  if (s.templates > 0) {
    b.base.templates = BuildTemplates(o.seed, s.rows, s.templates);
  }
  if (s.converge > 0) {
    Oracle unused(&b.base, s.columns);
    Mix narrow;
    narrow.columns = s.columns;
    narrow.width = s.mix.width;
    ClientModel g(narrow, &unused, 0, Derive(o.seed, Stream::kConverge, 0));
    for (size_t i = 0; i < s.converge; ++i) b.converge_ops.push_back(g.Next());
  }
  return b;
}

void ThrowIfWrong(const std::string& where, const ClientRun& run) {
  if (!run.wrong.empty()) throw WrongAnswer(where + " " + run.wrong);
}

/// A PersistenceManager on the run's data dir at fsync=always. It recovers
/// when the dir already holds a checkpoint.
void AttachDurability(const Bench& b, Instance& inst) {
  persist::PersistOptions p;
  p.data_dir = b.data_dir;
  p.fsync = persist::FsyncPolicy::kAlways;
  inst.pm = std::make_unique<persist::PersistenceManager>(*inst.db, p);
}

/// Load, converge, durability and (when \p serve) the server and its
/// connections: what every round pays before its window. \return seconds.
double SetUp(const Bench& b, Instance& inst, bool serve) {
  const Shape& s = b.shape;
  if (s.durable) std::filesystem::remove_all(b.data_dir);
  const double t0 = NowS();
  inst.Load(b.opt.seed, s.columns, s.rows);
  if (!b.converge_ops.empty()) {
    Oracle oracle(&b.base, s.columns);
    ClientModel model(s.mix, &oracle, 0, 0);
    Session session = inst.db->OpenSession();
    ClientRun run;
    DriveEngine(session, inst.Handles(s.columns), Replay(b.converge_ops),
                model, run, nullptr, 0);
    ThrowIfWrong("set-up", run);
  }
  if (s.durable) {
    AttachDurability(b, inst);
    inst.db->Checkpoint();
  }
  if (serve) inst.Serve(s.clients);
  return NowS() - t0;
}

struct Window {
  std::vector<ClientRun> runs;
  double wall_s = 0;     ///< window start to the last client's last answer
  std::vector<std::pair<double, double>> checkpoints;  // NowS intervals
};

/// One measured window: each client on its own thread, over the wire
/// (\p wire) or entering at the engine boundary, checked against a copy of
/// \p initial. A durable shape checkpoints at 1/4, 1/2 and 3/4 of the
/// window from one more thread. \p replay repeats an earlier window's ops;
/// \p spans (one log per thread) records them under \p root.
Window Measure(const Bench& b, Instance& inst, const Oracle& initial,
               uint64_t round, bool wire,
               const std::vector<std::vector<Op>>* replay,
               std::vector<SpanLog>* spans, uint64_t root) {
  const Shape& s = b.shape;
  Oracle oracle = initial;
  std::vector<ClientModel> models;
  models.reserve(s.clients);
  for (size_t c = 0; c < s.clients; ++c) {
    models.emplace_back(s.mix, &oracle, c,
                        Derive(b.opt.seed, Stream::kQueries, round * 64 + c));
  }
  std::vector<Session> sessions;
  std::vector<ColumnHandle> handles;
  if (!wire) {
    for (size_t c = 0; c < s.clients; ++c) {
      sessions.push_back(inst.db->OpenSession());
    }
    handles = inst.Handles(s.columns);
  }

  Window w;
  w.runs.resize(s.clients);
  std::atomic<size_t> done{0};
  std::vector<double> finished(s.clients, 0);
  const double start = NowS();
  const double deadline = start + s.window_s;
  RunThreads(s.clients + (s.durable ? 1 : 0), [&](size_t t) {
    if (t == s.clients) {  // the checkpointer
      for (int k = 1; k <= 3; ++k) {
        const double at = start + s.window_s * k / 4;
        while (NowS() < at && done.load() < s.clients) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (done.load() == s.clients) break;
        const double c0 = NowS();
        inst.db->Checkpoint();
        w.checkpoints.push_back({c0, NowS()});
        if (spans != nullptr) {
          (*spans)[t].Add("persist.checkpoint", root, k, c0, NowS());
        }
      }
      return;
    }
    NextOp next;
    if (replay != nullptr) {
      next = Replay((*replay)[t]);
    } else if (s.ops_per_client > 0) {
      next = FixedCount(models[t], s.ops_per_client);
    } else {
      next = UntilDeadline(models[t], deadline);
    }
    SpanLog* log = spans != nullptr ? &(*spans)[t] : nullptr;
    if (wire) {
      DriveWire(inst.clients[t], inst.sessions[t], s.window, next, models[t],
                w.runs[t], log, root);
    } else {
      DriveEngine(sessions[t], handles, next, models[t], w.runs[t], log, root);
    }
    finished[t] = NowS();
    done.fetch_add(1);
  });
  // The clients' span, not the join's: a checkpoint still running when the
  // clients stop is not time they were served in.
  w.wall_s = *std::max_element(finished.begin(), finished.end()) - start;
  for (size_t c = 0; c < s.clients; ++c) {
    ThrowIfWrong("round " + std::to_string(round) + " client " +
                     std::to_string(c),
                 w.runs[c]);
  }
  return w;
}

std::vector<std::vector<Op>> OpsOf(const Window& w) {
  std::vector<std::vector<Op>> ops;
  for (const ClientRun& r : w.runs) ops.push_back(r.ops);
  return ops;
}

std::vector<double> Latencies(const Window& w, bool reads, bool writes) {
  std::vector<double> ms;
  for (const ClientRun& r : w.runs) {
    for (size_t i = 0; i < r.ops.size(); ++i) {
      if (IsRead(r.ops[i].kind) ? reads : writes) ms.push_back(r.ms[i]);
    }
  }
  return ms;
}

/// \p n span logs numbered from \p first: each replay takes its own
/// range of thread numbers so span ids stay unique within one file.
std::vector<SpanLog> MakeLogs(size_t first, size_t n) {
  std::vector<SpanLog> logs;
  for (size_t t = 0; t < n; ++t) logs.emplace_back(first + t, t);
  return logs;
}

// --- Timed runs --------------------------------------------------------------

/// What one timed round measured. Plain data: each round runs in a process
/// of its own and sends this back through a pipe.
struct Round {
  double setup_s = 0;
  double throughput = 0;
  double read_p50 = 0;
  double read_p99 = 0;
  double rss_mib = 0;
  double write_p50 = 0;  // the rest is printed, not gated (see README.md)
  double write_p99 = 0;
  double disk_mib = 0;
  double recovery_s = 0;
  double catchup_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
};
static_assert(std::is_trivially_copyable_v<Round>);

/// The numbers of one window. \p seconds is what its throughput divides
/// by; \p rss_mib the round's peak resident memory above what the process
/// held when the round began.
Round Summarize(double setup_s, const Window& w, double seconds,
                double rss_mib) {
  Round r;
  r.setup_s = setup_s;
  r.rss_mib = rss_mib;
  uint64_t completed = 0;
  for (const ClientRun& c : w.runs) {
    r.attempted += c.ops.size();
    r.failed += c.failed;
    completed += c.ops.size() - c.failed;
  }
  r.throughput = static_cast<double>(completed) / seconds;
  const auto reads = Latencies(w, true, false);
  const auto writes = Latencies(w, false, true);
  r.reads = reads.size();
  r.writes = writes.size();
  r.read_p50 = Percentile(reads, 0.50);
  r.read_p99 = Percentile(reads, 0.99);
  r.write_p50 = Percentile(writes, 0.50);
  r.write_p99 = Percentile(writes, 0.99);
  return r;
}

void WriteAll(int fd, const std::string& bytes) {
  for (size_t off = 0; off < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

/// Runs \p body in a child process and returns its Round, so that every
/// round starts from the process as it stood once the oracle was built.
/// Rounds run one after another in one process inherit the heap earlier
/// rounds freed and glibc kept: later rounds then fault in less memory,
/// run faster and read a smaller peak. A wrong answer in the child is
/// rethrown here as WrongAnswer.
Round InChild(const std::function<Round()>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    // The child never outlives the run, even when the run's alarm ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(2);
    int code = 0;
    std::string bytes;
    try {
      const Round r = body();
      bytes.assign(reinterpret_cast<const char*>(&r), sizeof r);
    } catch (const WrongAnswer& e) {
      code = 1;
      bytes = e.what();
    } catch (const std::exception& e) {
      code = 2;
      bytes = e.what();
    }
    WriteAll(fds[1], bytes);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string bytes;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  if (code == 0 && bytes.size() == sizeof(Round)) {
    Round r;
    std::memcpy(&r, bytes.data(), sizeof r);
    return r;
  }
  if (code == 1) throw WrongAnswer(bytes);
  const std::string how =
      WIFSIGNALED(status)
          ? "killed by signal " + std::to_string(WTERMSIG(status))
          : "exited " + std::to_string(code);
  throw std::runtime_error("round process " + how + ": " + bytes);
}

/// A run's end-to-end metrics: per metric, the interquartile mean over its
/// rounds. A round disturbed by the host falls in the discarded quarters,
/// and averaging the rest is steadier than the median alone.
Outcome Report(const std::vector<Round>& rounds) {
  const auto iqm = [&](double Round::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.*field);
    return InterquartileMean(v);
  };
  Round total;
  for (const Round& r : rounds) {
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.reads += r.reads;
    total.writes += r.writes;
  }
  Outcome out;
  out.metrics = {
      {"setup_s", iqm(&Round::setup_s), "s"},
      {"throughput_ops", iqm(&Round::throughput), "ops/s"},
      {"read_p50_ms", iqm(&Round::read_p50), "ms"},
      {"read_p99_ms", iqm(&Round::read_p99), "ms"},
      {"peak_rss_mib", iqm(&Round::rss_mib), "MiB"},
  };
  out.extra = {
      {"rounds", static_cast<double>(rounds.size()), "count"},
      {"read_samples", static_cast<double>(total.reads), "count"},
      {"failed_frac",
       Ratio(static_cast<double>(total.failed),
             static_cast<double>(total.attempted)),
       "ratio"},
  };
  if (total.writes > 0) {
    out.extra.push_back(
        {"write_samples", static_cast<double>(total.writes), "count"});
    out.extra.push_back({"write_p50_ms", iqm(&Round::write_p50), "ms"});
    out.extra.push_back({"write_p99_ms", iqm(&Round::write_p99), "ms"});
  }
  if (iqm(&Round::disk_mib) > 0) {
    out.extra.push_back({"disk_mib", iqm(&Round::disk_mib), "MiB"});
  }
  if (iqm(&Round::recovery_s) > 0) {
    out.extra.push_back({"recovery_s", iqm(&Round::recovery_s), "s"});
    out.extra.push_back({"catchup_s", iqm(&Round::catchup_s), "s"});
  }
  out.attempted = total.attempted;
  out.failed = total.failed;
  return out;
}

Outcome TimedShape(const Bench& b) {
  const Shape& s = b.shape;
  std::vector<Round> rounds;
  for (size_t r = 0; r < s.rounds; ++r) {
    rounds.push_back(InChild([&] {
      ResetPeakRss();
      const double rss0 = RssMiB();
      Instance inst;
      const double setup_s = SetUp(b, inst, true);
      const Window w = Measure(b, inst, Oracle(&b.base, s.columns), r, true,
                               nullptr, nullptr, 0);
      Round out = Summarize(setup_s, w, w.wall_s, PeakRssMiB() - rss0);
      if (s.durable) out.disk_mib = DirBytes(b.data_dir) / kMiB;
      return out;
    }));
  }
  return Report(rounds);
}

// --- Traced runs -------------------------------------------------------------

/// Per-layer metrics read off the registry around one untraced window.
void FillCounters(Layers& L, const Readings& a, const Readings& z,
                  const Window& w, double holistic_busy_s) {
  const auto d = [&](const char* name) { return z.Get(name) - a.Get(name); };
  const double reads =
      static_cast<double>(Latencies(w, true, false).size());
  const double requests = d("holix_server_requests_total");
  const double ss_requests = d("holix_sharedscan_requests_total");
  const double ss_batches = d("holix_sharedscan_batches_total");
  L.Set("sharedscan.coalesced_frac",
        Ratio(ss_requests - ss_batches, ss_requests));
  L.Set("sharedscan.batches", ss_batches);
  L.Set("sharedscan.admission_skips", d("holix_batch_admission_skips_total"));
  L.Set("server.requests", requests);
  L.Set("server.backpressure_toggles",
        d("holix_server_backpressure_toggles_total"));
  L.Set("server.outbox_bytes_per_request",
        Ratio(d("holix_server_outbox_bytes_total"), requests));
  L.Set("planner.probes", d("holix_planner_probe_total"));
  L.Set("planner.merges", d("holix_planner_merge_total"));
  L.Set("planner.refine_hints", d("holix_planner_refine_hints_total"));
  const double cracks = d("holix_cracks_total");
  L.Set("cracking.cracks", cracks);
  L.Set("cracking.bytes_moved_per_query",
        Ratio(d("holix_crack_bytes_moved_total"), reads));
  L.Set("cracking.simd_frac", Ratio(d("holix_crack_simd_ops_total"), cracks));
  L.Set("cracking.morsel_steal_frac",
        Ratio(d("holix_crack_morsel_steals_total"),
              d("holix_crack_morsels_total")));
  L.Set("cracking.scan_bytes_per_query",
        Ratio(d("holix_scan_bytes_total"), reads));
  L.Set("cracking.pieces_end", z.Get("holix_index_pieces"));
  L.Set("storage.ripple_inserts", d("holix_ripple_merged_inserts_total"));
  L.Set("storage.ripple_deletes", d("holix_ripple_merged_deletes_total"));
  const double refinements = d("holix_holistic_refinements_total");
  const double worker_cracks = d("holix_holistic_worker_cracks_total");
  L.Set("holistic.activations", d("holix_holistic_activations_total"));
  L.Set("holistic.refinements", refinements);
  L.Set("holistic.worker_cracks", worker_cracks);
  L.Set("holistic.retirements", d("holix_holistic_retirements_total"));
  L.Set("holistic.busy_s", holistic_busy_s);
  L.Set("holistic.worker_crack_frac", Ratio(worker_cracks, cracks));
  // Worker crack attempts that found their piece latched.
  const double latch_failures = d("holix_latch_failures_total");
  L.Set("holistic.latch_fail_frac",
        Ratio(latch_failures, latch_failures + worker_cracks));
  L.Set("holistic.distance_mib_end",
        z.SumPrefix("holix_holistic_distance_bytes{") / kMiB);
  const double records = d("holix_wal_records_total");
  const double fsyncs = d("holix_wal_fsyncs_total");
  L.Set("wal.records", records);
  L.Set("wal.fsyncs", fsyncs);
  L.Set("wal.records_per_fsync", Ratio(records, fsyncs));
  L.Set("wal.bytes_per_record", Ratio(d("holix_wal_bytes_total"), records));
  L.Set("checkpoint.count", d("holix_checkpoints_total"));
  const auto writes = Latencies(w, false, true);
  L.Set("write.p50_ms", Percentile(writes, 0.50));
  L.Set("write.p99_ms", Percentile(writes, 0.99));
  // Bytes written to the data dir (WAL records plus snapshots) per byte of
  // acknowledged update payload (one int64 per update).
  L.Set("persist.write_amp",
        Ratio(d("holix_wal_bytes_total") + d("holix_checkpoint_bytes_total"),
              8.0 * static_cast<double>(writes.size())));
}

/// Seconds the holistic workers ran, over activations from index \p from.
double HolisticBusy(Database& db, size_t from) {
  double busy = 0;
  const auto acts = db.holistic()->Activations();
  for (size_t i = from; i < acts.size(); ++i) busy += acts[i].cycle_seconds;
  return busy;
}

/// Checkpoint time and the p99 of the foreground ops that overlapped one.
void FillCheckpoints(Layers& L, const Window& w) {
  double busy = 0;
  for (const auto& [c0, c1] : w.checkpoints) busy += c1 - c0;
  std::vector<double> stalled;
  for (const ClientRun& r : w.runs) {
    for (size_t i = 0; i < r.ops.size(); ++i) {
      const double s0 = r.start_s[i];
      const double s1 = s0 + r.ms[i] / 1e3;
      for (const auto& [c0, c1] : w.checkpoints) {
        if (s0 < c1 && s1 > c0) {
          stalled.push_back(r.ms[i]);
          break;
        }
      }
    }
  }
  L.Set("checkpoint.busy_s", busy);
  L.Set("checkpoint.stall_p99_ms", Percentile(stalled, 0.99));
}

/// Replays the recorded reads single-threaded on bare cracker columns,
/// after the same convergence queries the engine's set-up ran. \return
/// per-op milliseconds.
std::vector<double> CrackReplay(const Bench& b,
                                const std::vector<std::vector<Op>>& ops,
                                SpanLog& log, uint64_t root) {
  const Shape& s = b.shape;
  std::vector<std::unique_ptr<CrackerColumn<int64_t>>> cols;
  for (size_t c = 0; c < s.columns; ++c) {
    cols.push_back(std::make_unique<CrackerColumn<int64_t>>(
        ColumnName(c), GenColumn(b.opt.seed, c, s.rows)));
  }
  CrackConfig cfg;
  cfg.algo = CrackAlgo::kSimd;
  const auto select = [&](size_t c, int64_t lo, int64_t hi) {
    return cols[c]->SelectRange(lo, hi, cfg).size();
  };
  for (const Op& op : b.converge_ops) select(op.column, op.lo, op.hi);

  std::vector<double> ms;
  size_t longest = 0;
  for (const auto& v : ops) longest = std::max(longest, v.size());
  // Round-robin over clients: the serial order closest to the concurrent
  // stream.
  for (size_t i = 0; i < longest; ++i) {
    for (size_t c = 0; c < ops.size(); ++c) {
      if (i >= ops[c].size() || !IsRead(ops[c][i].kind)) continue;
      const Op& op = ops[c][i];
      const double t0 = NowS();
      if (op.kind == OpKind::kCount) {
        const size_t got = select(op.column, op.lo, op.hi);
        const uint64_t want = b.base.columns[op.column].Count(op.lo, op.hi);
        if (got != want) {
          throw WrongAnswer("cracking replay client " + std::to_string(c) +
                            " op " + std::to_string(i) + ": expected " +
                            std::to_string(want) + ", got " +
                            std::to_string(got));
        }
      } else {
        const Template& t = b.base.templates[op.tmpl];
        for (size_t k = 0; k < 3; ++k) select(k, t.lo[k], t.hi[k]);
      }
      const double t1 = NowS();
      ms.push_back((t1 - t0) * 1e3);
      log.Add("cracking.select", root, (uint64_t{c} << 32) | i, t0, t1);
    }
  }
  return ms;
}

/// Self times from adjacent replays of one op stream.
void FillSelfTimes(Layers& L, const std::vector<double>& wire_ms,
                   const std::vector<double>& engine_ms,
                   const std::vector<double>& crack_ms) {
  L.Set("server.self_ms.p50",
        Percentile(wire_ms, 0.50) - Percentile(engine_ms, 0.50));
  L.Set("server.self_ms.p99",
        Percentile(wire_ms, 0.99) - Percentile(engine_ms, 0.99));
  L.Set("engine.execute_ms.p50", Percentile(engine_ms, 0.50));
  L.Set("engine.execute_ms.p99", Percentile(engine_ms, 0.99));
  L.Set("engine.self_ms.p50",
        Percentile(engine_ms, 0.50) - Percentile(crack_ms, 0.50));
  double select_ms = 0;
  for (double m : crack_ms) select_ms += m;
  L.Set("cracking.select_s", select_ms / 1e3);
}

void CountOps(Outcome& out, const Window& w) {
  for (const ClientRun& r : w.runs) {
    out.attempted += r.ops.size();
    out.failed += r.failed;
  }
}

/// Writes every log of a traced run to the workload's spans file.
void SaveSpans(const RunOptions& o, const SpanLog& roots,
               std::initializer_list<const std::vector<SpanLog>*> groups) {
  std::vector<const SpanLog*> all{&roots};
  for (const auto* g : groups) {
    for (const SpanLog& l : *g) all.push_back(&l);
  }
  WriteSpans(o.out_dir + "/trace/" + o.workload + ".spans.jsonl", all);
}

Outcome TracedShape(const Bench& b) {
  const Shape& s = b.shape;
  const size_t threads = s.clients + (s.durable ? 1 : 0);
  const Oracle fresh(&b.base, s.columns);
  Layers L;
  Outcome out;

  // The untraced window: registry counters and the op stream the replays
  // repeat.
  std::vector<std::vector<Op>> ops;
  double untraced_s = 0;
  {
    Instance inst;
    SetUp(b, inst, true);
    const Readings before = Readings::Take(*inst.db);
    const size_t act0 = inst.db->holistic()->Activations().size();
    const Window w = Measure(b, inst, fresh, 0, true, nullptr, nullptr, 0);
    const Readings after = Readings::Take(*inst.db);
    FillCounters(L, before, after, w, HolisticBusy(*inst.db, act0));
    if (s.durable) {
      FillCheckpoints(L, w);
      L.Set("persist.disk_mib", DirBytes(b.data_dir) / kMiB);
    }
    ops = OpsOf(w);
    untraced_s = w.wall_s;
    CountOps(out, w);
  }

  SpanLog roots(0, 0);
  std::vector<SpanLog> wire_logs = MakeLogs(16, threads);
  std::vector<double> wire_ms, engine_ms, crack_ms;
  {
    Instance inst;
    SetUp(b, inst, true);
    const uint64_t root = roots.Open("replay.wire", 0);
    const Window w = Measure(b, inst, fresh, 0, true, &ops, &wire_logs, root);
    roots.Close(root);
    wire_ms = Latencies(w, true, true);
    L.Set("trace.overhead_frac", w.wall_s / untraced_s - 1);
    CountOps(out, w);
  }
  std::vector<SpanLog> engine_logs = MakeLogs(32, threads);
  {
    Instance inst;
    SetUp(b, inst, false);
    const uint64_t root = roots.Open("replay.engine", 0);
    const Window w =
        Measure(b, inst, fresh, 0, false, &ops, &engine_logs, root);
    roots.Close(root);
    engine_ms = Latencies(w, true, true);
    CountOps(out, w);
  }
  std::vector<SpanLog> crack_logs = MakeLogs(48, 1);
  if (s.crack_replay) {
    const uint64_t root = roots.Open("replay.cracking", 0);
    crack_ms = CrackReplay(b, ops, crack_logs.front(), root);
    roots.Close(root);
  }
  FillSelfTimes(L, wire_ms, engine_ms, crack_ms);

  SaveSpans(b.opt, roots, {&wire_logs, &engine_logs, &crack_logs});
  out.metrics = L.Emit();
  out.extra = {
      {"wire_samples", static_cast<double>(wire_ms.size()), "count"},
      {"engine_samples", static_cast<double>(engine_ms.size()), "count"},
      {"cracking_samples", static_cast<double>(crack_ms.size()), "count"},
  };
  return out;
}

// --- restart -----------------------------------------------------------------

/// Builds the data dir every cycle recovers from: load, cracking queries
/// with the holistic engine stopped (so the pivots are the query bounds
/// alone, a function of the seed), a checkpoint, then a WAL tail of
/// inserts and deletes. Fills \p oracle with the tail. \return set-up
/// seconds.
double BuildRestartDir(const Bench& b, Oracle& oracle) {
  const Shape& s = b.shape;
  std::filesystem::remove_all(b.data_dir);
  const double t0 = NowS();
  Instance inst;
  inst.db->holistic()->Stop();
  inst.Load(b.opt.seed, s.columns, s.rows);
  AttachDurability(b, inst);
  Session session = inst.db->OpenSession();
  const auto handles = inst.Handles(s.columns);
  ClientRun run;
  ClientModel queries(s.mix, &oracle, 0,
                      Derive(b.opt.seed, Stream::kBuild, 0));
  DriveEngine(session, handles, FixedCount(queries, s.build_queries),
              queries, run, nullptr, 0);
  inst.db->Checkpoint();
  Mix tail_mix;
  tail_mix.columns = s.columns;
  tail_mix.insert = 0.6;
  tail_mix.del = 0.4;
  ClientModel tail(tail_mix, &oracle, 0, Derive(b.opt.seed, Stream::kTail, 0));
  DriveEngine(session, handles, FixedCount(tail, s.tail_updates), tail,
              run, nullptr, 0);
  ThrowIfWrong("restart build", run);
  return NowS() - t0;
}

/// Recovers \p inst's empty database from the data dir.
void Recover(const Bench& b, Instance& inst) {
  AttachDurability(b, inst);
  if (!inst.pm->recovered()) {
    throw std::runtime_error("restart: nothing recovered from " + b.data_dir);
  }
}

/// Each round builds the data dir, then restarts from it once.
Outcome TimedRestart(const Bench& b) {
  const Shape& s = b.shape;
  std::vector<Round> rounds;
  for (size_t r = 0; r < s.rounds; ++r) {
    rounds.push_back(InChild([&] {
      ResetPeakRss();
      const double rss0 = RssMiB();
      Oracle oracle(&b.base, s.columns);
      const double setup_s = BuildRestartDir(b, oracle);
      const double t0 = NowS();
      Instance inst;
      Recover(b, inst);
      inst.Serve(s.clients);
      const double recovery_s = NowS() - t0;
      const Window w = Measure(b, inst, oracle, r, true, nullptr, nullptr, 0);
      const double catchup_s = NowS() - t0;
      // Answers per second of the whole restart cycle: recovery time is
      // time the server answered nothing.
      Round out = Summarize(setup_s, w, catchup_s, PeakRssMiB() - rss0);
      out.recovery_s = recovery_s;
      out.catchup_s = catchup_s;
      out.disk_mib = DirBytes(b.data_dir) / kMiB;
      return out;
    }));
  }
  return Report(rounds);
}

Outcome TracedRestart(const Bench& b) {
  const Shape& s = b.shape;
  Layers L;
  Outcome out;
  Oracle oracle(&b.base, s.columns);
  BuildRestartDir(b, oracle);

  std::vector<std::vector<Op>> ops;
  double untraced_s = 0;
  {
    const Readings before = Readings::Take();
    const double t0 = NowS();
    Instance inst;
    Recover(b, inst);
    inst.Serve(s.clients);
    L.Set("recover.recovery_s", NowS() - t0);
    const Window w = Measure(b, inst, oracle, 0, true, nullptr, nullptr, 0);
    untraced_s = NowS() - t0;
    L.Set("recover.catchup_s", untraced_s);
    FillCounters(L, before, Readings::Take(*inst.db), w,
                 HolisticBusy(*inst.db, 0));
    L.Set("persist.disk_mib", DirBytes(b.data_dir) / kMiB);
    ops = OpsOf(w);
    CountOps(out, w);
  }

  SpanLog roots(0, 0);
  std::vector<SpanLog> wire_logs = MakeLogs(16, s.clients);
  std::vector<double> wire_ms, engine_ms;
  {
    const uint64_t cycle = roots.Open("restart.cycle", 0);
    const uint64_t rec = roots.Open("restart.recover", cycle);
    const double t0 = NowS();
    Instance inst;
    Recover(b, inst);
    inst.Serve(s.clients);
    roots.Close(rec);
    const Window w = Measure(b, inst, oracle, 0, true, &ops, &wire_logs, cycle);
    roots.Close(cycle);
    L.Set("trace.overhead_frac", (NowS() - t0) / untraced_s - 1);
    wire_ms = Latencies(w, true, true);
    CountOps(out, w);
  }

  // Engine replay on a PersistenceManager recovery, then the same ops on a
  // recovery staged through the public steps; both must answer alike.
  std::vector<SpanLog> engine_logs = MakeLogs(32, s.clients);
  std::vector<std::vector<int64_t>> pm_counts;
  {
    Instance inst;
    Recover(b, inst);
    const uint64_t root = roots.Open("replay.engine", 0);
    const Window w =
        Measure(b, inst, oracle, 0, false, &ops, &engine_logs, root);
    roots.Close(root);
    engine_ms = Latencies(w, true, true);
    for (const ClientRun& r : w.runs) pm_counts.push_back(r.counts);
    CountOps(out, w);
  }
  std::vector<SpanLog> staged_logs = MakeLogs(48, s.clients);
  {
    Instance inst;
    const uint64_t root = roots.Open("recover.staged", 0);
    const auto stage = [&](const char* name, const std::function<void()>& fn) {
      const double t0 = NowS();
      fn();
      const double t1 = NowS();
      roots.Add(name, root, 0, t0, t1);
      return t1 - t0;
    };
    const std::string& dir = b.data_dir;
    persist::Manifest man;
    DurableDatabaseState state;
    std::vector<persist::WalRecord> records;
    L.Set("recover.manifest_s", stage("recover.manifest", [&] {
            man = persist::ReadManifest(dir);
          }));
    L.Set("recover.snapshot_read_s", stage("recover.snapshot_read", [&] {
            state = persist::ReadSnapshot(dir, man);
          }));
    L.Set("recover.begin_restore_s", stage("recover.begin_restore", [&] {
            inst.db->BeginRestore(state);
          }));
    L.Set("recover.wal_read_s", stage("recover.wal_read", [&] {
            for (uint64_t epoch : persist::ListWalEpochs(dir)) {
              if (epoch < man.wal_epoch) continue;
              const std::string path = persist::WalPath(dir, epoch);
              for (auto& rec : persist::ReadWalFile(path)) {
                if (rec.lsn > man.last_lsn) records.push_back(std::move(rec));
              }
            }
          }));
    L.Set("recover.wal_apply_s", stage("recover.wal_apply", [&] {
            for (const persist::WalRecord& rec : records) {
              if (rec.op == WalOp::kInsert) {
                inst.db->ApplyLoggedInsert(rec.table, rec.column, rec.type,
                                           rec.rank, rec.rowid);
              } else {
                inst.db->ApplyLoggedDelete(rec.table, rec.column, rec.type,
                                           rec.rank, rec.rowid);
              }
            }
          }));
    L.Set("recover.finish_restore_s", stage("recover.finish_restore", [&] {
            inst.db->FinishRestore(state);
          }));
    roots.Close(root);
    double pivots = 0;
    for (const DurableColumnState& c : state.columns) {
      pivots += static_cast<double>(c.pivot_ranks.size());
    }
    L.Set("recover.pivots", pivots);
    L.Set("recover.replayed_records", static_cast<double>(records.size()));

    const uint64_t answers = roots.Open("replay.staged", 0);
    const Window w =
        Measure(b, inst, oracle, 0, false, &ops, &staged_logs, answers);
    roots.Close(answers);
    for (size_t c = 0; c < w.runs.size(); ++c) {
      if (w.runs[c].counts != pm_counts[c]) {
        throw WrongAnswer("staged recovery answers differ from the "
                          "PersistenceManager recovery on client " +
                          std::to_string(c));
      }
    }
    CountOps(out, w);
  }
  FillSelfTimes(L, wire_ms, engine_ms, {});

  SaveSpans(b.opt, roots, {&wire_logs, &engine_logs, &staged_logs});
  out.metrics = L.Emit();
  out.extra = {
      {"wire_samples", static_cast<double>(wire_ms.size()), "count"},
      {"engine_samples", static_cast<double>(engine_ms.size()), "count"},
  };
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cold_explore", "hot_serve",
                                                 "durable_mix", "restart"};
  return names;
}

Outcome RunWorkload(const RunOptions& o) {
  const Bench b = MakeBench(o);
  Outcome out;
  if (o.workload == "restart") {
    out = o.trace ? TracedRestart(b) : TimedRestart(b);
    out.durable = true;
  } else {
    out = o.trace ? TracedShape(b) : TimedShape(b);
    out.durable = b.shape.durable;
  }
  return out;
}

}  // namespace holix::e2e

/// \file e2e.h
/// \brief Shared toolkit of the end-to-end benchmark: the seeded input
/// generator, the answer oracle, the op model every client runs, the
/// in-memory span log, and the product instance under test.
///
/// The benchmark drives the shipped path (HolixServer + holistic engine +
/// WAL) through the API surface that stays when the legacy per-primitive
/// calls go: ExecuteQuery / SendExecuteQuery / AwaitExecuteQuery,
/// InsertScalar / DeleteScalar, Session::Execute, PersistenceManager and
/// the public recovery steps.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "persist/persistence.h"
#include "server/client.h"
#include "server/server.h"

namespace holix::e2e {

// --- Inputs ------------------------------------------------------------------

/// splitmix64. Kept in the benchmark, not taken from src/, so a change to
/// the engine's own generators cannot change the traffic.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Independent random streams of one run, all derived from --seed.
enum class Stream : uint64_t {
  kData = 1,
  kQueries,
  kTemplates,
  kConverge,
  kBuild,
  kTail,
};

/// Seed of stream \p s, instance \p index.
uint64_t Derive(uint64_t seed, Stream s, uint64_t index);

/// Every column holds uniform int64 values in [0, kDomain).
inline constexpr int64_t kDomain = int64_t{1} << 30;
inline constexpr const char* kTable = "r";

/// Column \p column of the run's table ("a<column>"), \p rows values.
std::vector<int64_t> GenColumn(uint64_t seed, size_t column, size_t rows);
const std::string& ColumnName(size_t column);

// --- Oracle ------------------------------------------------------------------

/// Range counts over one base column, answered from a sorted copy.
class SortedColumn {
 public:
  explicit SortedColumn(std::vector<int64_t> values);
  uint64_t Count(int64_t lo, int64_t hi) const;

 private:
  std::vector<int64_t> sorted_;
};

/// Net inserted-minus-deleted rows on a grid of 4,096 values spread over
/// the domain (a Fenwick tree over the grid cells). Updates only ever use
/// grid values, so a range count is a prefix-sum difference.
class GridDeltas {
 public:
  static constexpr size_t kCells = 4096;
  static constexpr int64_t kStep = kDomain / static_cast<int64_t>(kCells);
  static int64_t Value(size_t cell) {
    return static_cast<int64_t>(cell) * kStep + kStep / 2;
  }

  void Add(size_t cell, int64_t delta);
  /// Net rows at grid values in [lo, hi).
  int64_t Count(int64_t lo, int64_t hi) const;

 private:
  int64_t Prefix(size_t cells) const;  // cells [0, cells)
  std::vector<int64_t> tree_ = std::vector<int64_t>(kCells + 1, 0);
};

/// One precomputed conjunction: a0 in [lo0,hi0) and a1 in [lo1,hi1) and
/// a2 in [lo2,hi2), answered as count and sum(a3).
struct Template {
  int64_t lo[3] = {0, 0, 0};
  int64_t hi[3] = {0, 0, 0};
  uint64_t count = 0;
  int64_t sum = 0;
};

/// Answers over the loaded base data, shared read-only by every client.
struct BaseOracle {
  std::vector<SortedColumn> columns;
  std::vector<Template> templates;
};

/// Sorted copies of the run's \p columns base columns (built on up to
/// nproc threads).
BaseOracle BuildBaseOracle(uint64_t seed, size_t columns, size_t rows);

/// \p n conjunction templates over a0..a3 with their answers. a0 is narrow
/// (at most 0.2% of the domain), a1 and a2 wide (25..75%), so each query
/// touches a few L1-sized pieces once the index has converged.
std::vector<Template> BuildTemplates(uint64_t seed, size_t rows, size_t n);

/// Base answers plus the update deltas a client has been acknowledged.
struct Oracle {
  const BaseOracle* base = nullptr;
  std::vector<GridDeltas> deltas;  // one per column

  Oracle(const BaseOracle* b, size_t columns) : base(b), deltas(columns) {}
  uint64_t Count(size_t column, int64_t lo, int64_t hi) const {
    return static_cast<uint64_t>(
        static_cast<int64_t>(base->columns[column].Count(lo, hi)) +
        deltas[column].Count(lo, hi));
  }
};

// --- Operations --------------------------------------------------------------

enum class OpKind : uint8_t { kCount, kConj, kInsert, kDelete };

inline bool IsRead(OpKind k) {
  return k == OpKind::kCount || k == OpKind::kConj;
}

/// One client operation. Counts carry [lo, hi) on `column`; conjunctions
/// name a template; inserts and deletes carry a grid cell in `lo`.
struct Op {
  OpKind kind = OpKind::kCount;
  uint32_t column = 0;
  uint32_t tmpl = 0;
  int64_t lo = 0;
  int64_t hi = 0;
};

/// What came back: count (inserts: 1, deletes: found) and sum.
struct Answer {
  int64_t count = 0;
  int64_t sum = 0;
};

/// A workload's traffic mix.
struct Mix {
  size_t columns = 1;       ///< reads pick uniformly among a0..a{columns-1}
  bool own_column = false;  ///< client c reads and writes only column c
  double width = 0;         ///< 0: random bounds; else max range width
  bool fixed_width = false; ///< every range exactly `width` wide
  double conj = 0;          ///< share of template conjunctions
  double insert = 0;        ///< share of inserts
  double del = 0;           ///< share of deletes of the client's own inserts
};

/// One client's op generator and answer checker.
class ClientModel {
 public:
  ClientModel(const Mix& mix, Oracle* oracle, size_t client, uint64_t seed);

  /// Draws the next op from the mix.
  Op Next();

  /// Checks \p a against the oracle; an acknowledged write also updates
  /// it. \return empty when right, else what was expected.
  std::string Check(const Op& op, const Answer& a);

  const Oracle& oracle() const { return *oracle_; }

 private:
  Mix mix_;
  Oracle* oracle_;
  size_t client_;
  SplitMix64 rng_;
  /// (column, grid cell) of inserts not yet deleted.
  std::vector<std::pair<uint32_t, uint32_t>> live_;
};

// --- Spans -------------------------------------------------------------------

/// Seconds on the steady clock since the process started.
double NowS();

/// One recorded span: name, request id, parent span, start and end.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t req = 0;
  const char* name = "";
  double start = 0;
  double end = 0;
};

/// In-memory spans of one thread; written out after the run. Span ids are
/// unique per \p id_space; a request id is (client << 32) | op index, so
/// one op carries the same request id through every replay.
class SpanLog {
 public:
  SpanLog(uint64_t id_space, uint64_t client)
      : client_(client), next_id_((id_space + 1) << 40) {}
  uint64_t Add(const char* name, uint64_t parent, uint64_t req, double start,
               double end) {
    spans_.push_back({++next_id_, parent, req, name, start, end});
    return next_id_;
  }
  /// Starts a span that parents others; Close(id) ends it.
  uint64_t Open(const char* name, uint64_t parent) {
    return Add(name, parent, 0, NowS(), 0);
  }
  void Close(uint64_t id) {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->id == id) {
        it->end = NowS();
        return;
      }
    }
  }
  /// Request id of op \p index of this log's client.
  uint64_t Req(size_t index) const { return (client_ << 32) | index; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t client_;
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Writes every span of \p logs to \p path as JSON lines.
void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

// --- Clients -----------------------------------------------------------------

/// What one client did during a measured phase.
struct ClientRun {
  std::vector<Op> ops;          ///< issued, in order
  std::vector<double> start_s;  ///< per op: when it was sent
  std::vector<double> ms;       ///< per op: client-observed latency
  std::vector<int64_t> counts;  ///< per op: the count that came back
  uint64_t failed = 0;          ///< errors, timeouts, lost connections
  std::string wrong;            ///< first wrong answer, with its op index
};

/// Yields the next op, or false when the phase is over.
using NextOp = std::function<bool(Op*)>;

/// Ops until \p deadline (NowS seconds), drawn from \p model.
NextOp UntilDeadline(ClientModel& model, double deadline);
/// Exactly \p n ops drawn from \p model.
NextOp FixedCount(ClientModel& model, size_t n);
/// The recorded ops of an earlier phase, in order.
NextOp Replay(const std::vector<Op>& ops);

/// Set on the first wrong answer; every client stops issuing.
extern std::atomic<bool> g_stop;

/// Runs one client over the wire: up to \p window reads in flight (a write
/// waits for them and goes alone), each answer checked on arrival.
void DriveWire(net::HolixClient& client, uint64_t session, size_t window,
               const NextOp& next, ClientModel& model, ClientRun& run,
               SpanLog* spans, uint64_t parent);

/// The same ops entering at the engine boundary (Session), synchronously.
void DriveEngine(Session& session, const std::vector<ColumnHandle>& handles,
                 const NextOp& next, ClientModel& model, ClientRun& run,
                 SpanLog* spans, uint64_t parent);

/// Runs body(0..n-1) on n threads and joins them all.
void RunThreads(size_t n, const std::function<void(size_t)>& body);

// --- The system under test ---------------------------------------------------

/// The product configuration: holistic mode, every hardware context
/// counted, one context per user query.
DatabaseOptions ProductOptions();

/// Database, optional durability, server and client connections. Torn
/// down clients first, database last.
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<persist::PersistenceManager> pm;
  std::unique_ptr<net::HolixServer> server;
  std::vector<net::HolixClient> clients;
  std::vector<uint64_t> sessions;

  Instance() : db(std::make_unique<Database>(ProductOptions())) {}
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Loads columns a0..a{columns-1} from the seed.
  void Load(uint64_t seed, size_t columns, size_t rows);
  /// Starts the server (default options) and opens \p connections clients.
  void Serve(size_t connections);
  std::vector<ColumnHandle> Handles(size_t columns) const;
};

// --- Measurement helpers -----------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of \p v; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
/// Mean of \p v without its lowest and highest quarter (n / 4 values each
/// side); the median when fewer than 4 values.
double InterquartileMean(std::vector<double> v);

/// VmRSS / VmHWM of this process, MiB.
double RssMiB();
double PeakRssMiB();
/// Hands freed heap memory back to the kernel, then restarts VmHWM from
/// the current VmRSS (/proc/self/clear_refs "5"), so each round's peak is
/// its own and starts from the same floor. Without kernel support the
/// peak runs from process start.
void ResetPeakRss();

/// Apparent bytes of every regular file under \p dir.
uint64_t DirBytes(const std::string& dir);

/// Counter and gauge readings of the engine's metrics registry.
struct Readings {
  std::map<std::string, double> values;
  /// Through \p db, which refreshes the lazily computed gauges first.
  static Readings Take(const Database& db);
  /// The registry as it stands (counters only are current).
  static Readings Take();
  double Get(const std::string& name) const;
  /// Sum over every series whose name starts with \p prefix.
  double SumPrefix(const std::string& prefix) const;
};

// --- Workloads ---------------------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;   ///< measured time of the whole run
  bool trace = false;    ///< per-layer run instead of the timed run
  bool smoke = false;    ///< every workload scaled to about two seconds
  std::string out_dir;   ///< build-e2e: data/, trace/ and results/ live here
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;  ///< end-to-end (timed) or per-layer (trace)
  std::vector<Metric> extra;    ///< sample counts and context, printed only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool durable = false;         ///< ran with a data dir at fsync=always
};

/// Thrown on the first answer that disagrees with the oracle.
struct WrongAnswer : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Throws WrongAnswer on a wrong answer and
/// std::invalid_argument on an unknown name.
Outcome RunWorkload(const RunOptions& options);

}  // namespace holix::e2e

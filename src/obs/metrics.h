/// \file metrics.h
/// \brief Process-wide telemetry: lock-free counters/gauges/histograms, a
/// bounded per-query trace ring, and one snapshot type served three ways
/// (protocol v4 `GetStats`, the `/metrics` Prometheus endpoint, and
/// `Database::MetricsSnapshot()`).
///
/// ## Write path
///
/// Increments must be safe inside crack kernels and the server event loop:
/// `Counter::Inc` is a relaxed `fetch_add` on one of 16 cacheline-aligned
/// stripes picked by thread — no lock, no allocation, no contention between
/// worker threads. Gauges are a single CAS on double bits. Histograms are a
/// short linear scan over fixed bin bounds plus one relaxed `fetch_add`.
/// Registration (`GetCounter` et al.) takes a mutex once; hot call sites
/// cache the returned reference in a function-local static.
///
/// Snapshots sum the stripes. Each stripe is monotone under relaxed
/// ordering (per-variable read coherence), so a counter observed across two
/// snapshots never steps backwards even while writers race.
///
/// ## Naming convention (stable; the wire and /metrics print these verbatim)
///
/// Every series carries the `holix_` prefix. Counters end in `_total`;
/// gauges and histograms do not. Label-shaped series embed Prometheus label
/// syntax directly in the registered name, e.g.
/// `holix_queries_total{mode="adaptive"}`. The families:
///
/// | family                                      | kind      | source |
/// |---------------------------------------------|-----------|--------|
/// | holix_cracks_total                          | counter   | crack-in-two/three kernel invocations |
/// | holix_crack_bytes_moved_total               | counter   | bytes partitioned by crack kernels |
/// | holix_crack_simd_ops_total                  | counter   | cracks served by the SIMD tier (vs fallback) |
/// | holix_crack_morsels_total                   | counter   | morsels executed by parallel cracks |
/// | holix_crack_morsel_steals_total             | counter   | morsels stolen from another worker's deque |
/// | holix_crack_scratch_bytes                   | gauge     | live crack scratch, summed over threads (one morsel each at most) |
/// | holix_pieces_created_total                  | counter   | piece boundaries inserted |
/// | holix_scan_bytes_total                      | counter   | bytes read by piece scans |
/// | holix_ripple_merged_inserts_total           | counter   | pending inserts merged (Ripple) |
/// | holix_ripple_merged_deletes_total           | counter   | pending deletes merged (Ripple) |
/// | holix_latch_failures_total                  | counter   | worker try-latch misses |
/// | holix_holistic_activations_total            | counter   | workers activated by the tuning loop |
/// | holix_holistic_refinements_total            | counter   | worker refinement steps |
/// | holix_holistic_worker_cracks_total          | counter   | cracks done by workers |
/// | holix_holistic_retirements_total            | counter   | indices retired into C_optimal |
/// | holix_holistic_{actual,potential,optimal}_indices | gauge | store configuration sizes |
/// | holix_holistic_store_bytes / _budget_bytes  | gauge     | stats-store usage vs budget |
/// | holix_holistic_distance_bytes{column="..."} | gauge     | Equation-1 distance remaining |
/// | holix_queries_total{mode="..."}             | counter   | queries per ExecMode |
/// | holix_query_seconds{mode="..."}             | histogram | query latency per ExecMode |
/// | holix_slow_queries_total                    | counter   | queries over the slow threshold |
/// | holix_planner_{probe,merge}_total           | counter   | conjunction probe-vs-merge choices |
/// | holix_planner_refine_hints_total            | counter   | accesses run for probed conjuncts |
/// | holix_index_pieces / holix_adaptive_indices | gauge     | registry-wide piece/index counts |
/// | holix_server_connections_total              | counter   | accepted sockets |
/// | holix_server_requests_total                 | counter   | request frames entering execution |
/// | holix_server_decode_errors_total            | counter   | malformed frames / bad handshakes |
/// | holix_server_backpressure_toggles_total     | counter   | EPOLLIN pause/resume transitions |
/// | holix_server_outbox_bytes_total             | counter   | response bytes parked for write |
/// | holix_server_open_connections               | gauge     | currently open sockets |
/// | holix_server_peak_connections               | gauge     | high-water open sockets |
/// | holix_server_in_flight                      | gauge     | requests submitted, not completed |
/// | holix_wal_records_total                     | counter   | update records appended to the WAL |
/// | holix_wal_bytes_total                       | counter   | record bytes appended to the WAL |
/// | holix_wal_fsyncs_total                      | counter   | fsync calls issued by the WAL writer |
/// | holix_wal_append_seconds                    | histogram | latency of one durable WAL append |
/// | holix_wal_replayed_records_total            | counter   | WAL records re-applied during recovery |
/// | holix_checkpoints_total                     | counter   | snapshots cut (manual + background) |
/// | holix_checkpoint_bytes_total                | counter   | snapshot bytes written by checkpoints |
/// | holix_checkpoint_seconds                    | histogram | wall time per checkpoint |
/// | holix_recovery_columns_total                | counter   | columns restored from snapshot |
/// | holix_recovery_pivots_total                 | counter   | cracker pivots re-applied at warm start |
/// | holix_recovery_seconds                      | histogram | wall time per recovery |
/// | holix_recovery_stage_seconds{stage="..."}   | histogram | one recovery stage: snapshot_read, begin_restore, wal_replay, restore_pieces, check_invariants, register |

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace holix::obs {

inline constexpr size_t kCounterStripes = 16;
inline constexpr size_t kMaxHistogramBins = 64;
inline constexpr size_t kTraceRingCapacity = 128;

/// Stripe index for the calling thread (stable per thread, assigned
/// round-robin at first use).
size_t ThreadStripe();

/// Monotone counter striped across cachelines. Inc is wait-free.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
    cells_[ThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kCounterStripes> cells_;
};

/// Double-valued gauge (Set / Add / Max) stored as atomic bits.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) {
    bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
  }

  void Add(double d) {
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        cur, std::bit_cast<uint64_t>(std::bit_cast<double>(cur) + d),
        std::memory_order_relaxed)) {
    }
  }

  /// Raises the gauge to \p v if larger (high-water mark).
  void Max(double v) {
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (std::bit_cast<double>(cur) < v &&
           !bits_.compare_exchange_weak(cur, std::bit_cast<uint64_t>(v),
                                        std::memory_order_relaxed)) {
    }
  }

  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{0};  // bit pattern of 0.0
};

/// Fixed-bin histogram with Prometheus `le` semantics: an observation lands
/// in the first bucket whose upper bound is >= the value (bounds are
/// inclusive); values above the last bound land in the overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v) {
    size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
    while (!sum_bits_.compare_exchange_weak(
        cur, std::bit_cast<uint64_t>(std::bit_cast<double>(cur) + v),
        std::memory_order_relaxed)) {
    }
  }

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t BinCount(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  double Sum() const {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }

 private:
  std::vector<double> bounds_;  // ascending upper bounds
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds.size() + 1
  std::atomic<uint64_t> sum_bits_{0};
};

// --- Snapshot types (also the wire payload of GetStatsResult) ---------------

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;    ///< finite upper bounds, ascending
  std::vector<uint64_t> counts;  ///< bounds.size() + 1 (last = overflow)
  double sum = 0;

  uint64_t Total() const {
    uint64_t t = 0;
    for (uint64_t c : counts) t += c;
    return t;
  }
  bool operator==(const HistogramSnapshot&) const = default;
};

/// One completed query, as recorded by the executor funnel. Doubles as the
/// live accumulation struct while the query runs (via TraceScope).
struct QueryTrace {
  uint64_t seq = 0;          ///< assigned by the ring at push
  uint8_t mode = 0;          ///< ExecMode ordinal
  uint16_t predicates = 0;   ///< conjunction width
  uint16_t results = 0;      ///< result requests
  uint32_t probe_filters = 0;     ///< planner chose base-probe
  uint32_t merge_intersects = 0;  ///< planner chose sorted-intersect
  uint32_t refine_hints = 0;      ///< accesses run for probed conjuncts
  uint32_t pieces_created = 0;    ///< boundaries inserted by this query
  uint64_t bytes_scanned = 0;     ///< piece-scan bytes
  double latency_seconds = 0;
  bool slow = false;  ///< latency >= the slow-query threshold

  bool operator==(const QueryTrace&) const = default;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;      // name-sorted
  std::vector<HistogramSnapshot> histograms;               // name-sorted
  std::vector<QueryTrace> traces;                          // oldest first

  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Bounded ring of recently completed queries (mutex-guarded; pushed once
/// per query, never from kernel inner loops).
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = kTraceRingCapacity)
      : capacity_(capacity) {}

  void Push(QueryTrace t);
  void SnapshotInto(std::vector<QueryTrace>* out) const;  // oldest first

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<QueryTrace> ring_;  // ring_[seq % capacity_]
  uint64_t next_seq_ = 0;
};

// --- Registry ---------------------------------------------------------------

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the series named \p name, creating it on first use. The
  /// reference is stable for the process lifetime — cache it at hot sites:
  ///   static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(...);
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// \p bounds is used only on first registration; later calls with a
  /// different shape return the existing histogram unchanged.
  Histogram& GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  TraceRing& traces() { return traces_; }

  /// Queries at or above this latency are flagged slow and counted in
  /// holix_slow_queries_total. Default 0.1s; env HOLIX_SLOW_QUERY_MS
  /// overrides at startup.
  double slow_query_seconds() const {
    return std::bit_cast<double>(slow_bits_.load(std::memory_order_relaxed));
  }
  void set_slow_query_seconds(double s) {
    slow_bits_.store(std::bit_cast<uint64_t>(s), std::memory_order_relaxed);
  }

  MetricsSnapshot Snapshot() const;

 private:
  MetricsRegistry();

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  TraceRing traces_;
  std::atomic<uint64_t> slow_bits_;
};

// --- Per-query trace scope ---------------------------------------------------

/// The query currently executing on this thread, or nullptr. Instrumented
/// layers below the executor add to it without knowing who is asking.
QueryTrace* CurrentQueryTrace();

/// RAII: publishes \p t as the thread's current trace for its lifetime.
class TraceScope {
 public:
  explicit TraceScope(QueryTrace* t);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  QueryTrace* prev_;
};

inline void TraceAddBytesScanned(uint64_t n) {
  if (QueryTrace* t = CurrentQueryTrace()) t->bytes_scanned += n;
}
inline void TraceAddPiecesCreated(uint32_t n) {
  if (QueryTrace* t = CurrentQueryTrace()) t->pieces_created += n;
}

/// Finalizes a query: per-mode counter + latency histogram, slow flag and
/// counter, trace-ring push. \p mode_name is the stable ExecMode label.
void RecordQueryDone(QueryTrace& t, const char* mode_name);

/// `holix_recovery_stage_seconds{stage="<stage>"}`: wall time of one
/// recovery stage, observed once per recovery.
Histogram& RecoveryStageSeconds(const std::string& stage);

// --- Formatters --------------------------------------------------------------

/// Prometheus text exposition (counters, gauges, histograms; traces are a
/// wire/CLI concern and are not exported here).
std::string PrometheusText(const MetricsSnapshot& snap);

/// One-page human-readable dump (SIGUSR1, `holix_cli stats`).
std::string HumanText(const MetricsSnapshot& snap);

/// Flat JSON {counters:{...}, gauges:{...}, histograms:{name:{count,sum}}}.
std::string MetricsJson(const MetricsSnapshot& snap);

}  // namespace holix::obs

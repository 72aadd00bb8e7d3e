#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "e2e.h"

namespace holix::e2e {

std::atomic<bool> g_stop{false};

namespace {

/// An op slower than this counts as failed (a timeout), answer or not.
constexpr double kTimeoutMs = 5000;

const char* const kWireNames[] = {"wire.count", "wire.conj", "wire.insert",
                                  "wire.delete"};
const char* const kEngineNames[] = {"engine.count", "engine.conj",
                                    "engine.insert", "engine.delete"};

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

std::string RangeText(const Op& op) {
  return ColumnName(op.column) + " [" + std::to_string(op.lo) + ", " +
         std::to_string(op.hi) + ")";
}

/// Records the outcome of op \p i of \p run; \p a is null when it failed.
void Complete(ClientRun& run, size_t i, const Answer* a, ClientModel& model,
              SpanLog* spans, const char* const* names, uint64_t parent) {
  const double end = NowS();
  run.ms[i] = (end - run.start_s[i]) * 1e3;
  if (a == nullptr || run.ms[i] > kTimeoutMs) ++run.failed;
  if (a == nullptr) return;
  run.counts[i] = a->count;
  const std::string why = model.Check(run.ops[i], *a);
  if (!why.empty() && run.wrong.empty()) {
    run.wrong = "op " + std::to_string(i) + ": " + why;
    g_stop.store(true);
  }
  if (spans != nullptr) {
    spans->Add(names[static_cast<int>(run.ops[i].kind)], parent,
               spans->Req(i), run.start_s[i], end);
  }
}

size_t BeginOp(ClientRun& run, const Op& op) {
  run.ops.push_back(op);
  run.start_s.push_back(NowS());
  run.ms.push_back(0);
  run.counts.push_back(0);
  return run.ops.size() - 1;
}

uint64_t SendRead(net::HolixClient& c, uint64_t session, const Op& op,
                  const BaseOracle& base) {
  if (op.kind == OpKind::kCount) {
    return c.SendExecuteQuery(
        session, kTable,
        {{ColumnName(op.column), KeyScalar::I64(op.lo), KeyScalar::I64(op.hi)}},
        {{0, ""}});
  }
  const Template& t = base.templates[op.tmpl];
  std::vector<net::QueryPredicateWire> preds;
  for (size_t k = 0; k < 3; ++k) {
    preds.push_back(
        {ColumnName(k), KeyScalar::I64(t.lo[k]), KeyScalar::I64(t.hi[k])});
  }
  return c.SendExecuteQuery(session, kTable, preds, {{0, ""}, {1, "a3"}});
}

Answer FromWire(const Op& op, const net::ExecuteQueryResult& r) {
  const size_t want = op.kind == OpKind::kConj ? 2 : 1;
  if (r.values.size() != want) {
    throw std::runtime_error("result has " + std::to_string(r.values.size()) +
                             " values, expected " + std::to_string(want));
  }
  Answer a;
  a.count = r.values[0].i;
  if (want == 2) a.sum = r.values[1].i;
  return a;
}

}  // namespace

// --- Inputs ------------------------------------------------------------------

uint64_t Derive(uint64_t seed, Stream s, uint64_t index) {
  SplitMix64 a(seed);
  SplitMix64 b(a.Next() ^ (static_cast<uint64_t>(s) * 0xD1B54A32D192ED03ULL) ^
               (index * 0x9E3779B97F4A7C15ULL));
  b.Next();
  return b.Next();
}

std::vector<int64_t> GenColumn(uint64_t seed, size_t column, size_t rows) {
  SplitMix64 g(Derive(seed, Stream::kData, column));
  std::vector<int64_t> v(rows);
  for (int64_t& x : v) x = static_cast<int64_t>(g.Next() >> 34);  // 30 bits
  return v;
}

const std::string& ColumnName(size_t column) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (size_t i = 0; i < 16; ++i) {
      n.push_back(std::string("a").append(std::to_string(i)));
    }
    return n;
  }();
  return names.at(column);
}

// --- Oracle ------------------------------------------------------------------

SortedColumn::SortedColumn(std::vector<int64_t> values)
    : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
}

uint64_t SortedColumn::Count(int64_t lo, int64_t hi) const {
  if (lo >= hi) return 0;
  return static_cast<uint64_t>(
      std::lower_bound(sorted_.begin(), sorted_.end(), hi) -
      std::lower_bound(sorted_.begin(), sorted_.end(), lo));
}

void GridDeltas::Add(size_t cell, int64_t delta) {
  for (size_t i = cell + 1; i <= kCells; i += i & (~i + 1)) tree_[i] += delta;
}

int64_t GridDeltas::Prefix(size_t cells) const {
  int64_t s = 0;
  for (size_t i = cells; i > 0; i -= i & (~i + 1)) s += tree_[i];
  return s;
}

int64_t GridDeltas::Count(int64_t lo, int64_t hi) const {
  if (lo >= hi) return 0;
  // First cell whose grid value is >= x.
  const auto first = [](int64_t x) -> size_t {
    const int64_t off = kStep / 2;
    if (x <= off) return 0;
    const int64_t c = (x - off + kStep - 1) / kStep;
    return static_cast<size_t>(std::min<int64_t>(c, kCells));
  };
  return Prefix(first(hi)) - Prefix(first(lo));
}

BaseOracle BuildBaseOracle(uint64_t seed, size_t columns, size_t rows) {
  std::vector<std::vector<int64_t>> sorted(columns);
  std::atomic<size_t> next{0};
  const size_t threads = std::min<size_t>(
      columns, std::max(1u, std::thread::hardware_concurrency()));
  RunThreads(threads, [&](size_t) {
    for (size_t c; (c = next.fetch_add(1)) < columns;) {
      sorted[c] = GenColumn(seed, c, rows);
    }
  });
  BaseOracle base;
  for (auto& v : sorted) base.columns.emplace_back(std::move(v));
  return base;
}

std::vector<Template> BuildTemplates(uint64_t seed, size_t rows, size_t n) {
  std::vector<std::vector<int64_t>> col;
  for (size_t c = 0; c < 4; ++c) col.push_back(GenColumn(seed, c, rows));
  std::vector<uint32_t> by_a0(rows);
  for (size_t i = 0; i < rows; ++i) by_a0[i] = static_cast<uint32_t>(i);
  std::sort(by_a0.begin(), by_a0.end(),
            [&](uint32_t x, uint32_t y) { return col[0][x] < col[0][y]; });

  SplitMix64 g(Derive(seed, Stream::kTemplates, 0));
  const auto range = [&](double min_frac, double max_frac, int64_t* lo,
                         int64_t* hi) {
    const double frac = min_frac + (max_frac - min_frac) * g.Unit();
    const int64_t w =
        std::max<int64_t>(1, static_cast<int64_t>(frac * kDomain));
    *lo = static_cast<int64_t>(g.Below(static_cast<uint64_t>(kDomain - w)));
    *hi = *lo + w;
  };
  std::vector<Template> out(n);
  for (Template& t : out) {
    range(0, 0.002, &t.lo[0], &t.hi[0]);
    range(0.25, 0.75, &t.lo[1], &t.hi[1]);
    range(0.25, 0.75, &t.lo[2], &t.hi[2]);
    auto it = std::lower_bound(
        by_a0.begin(), by_a0.end(), t.lo[0],
        [&](uint32_t r, int64_t v) { return col[0][r] < v; });
    for (; it != by_a0.end() && col[0][*it] < t.hi[0]; ++it) {
      const uint32_t r = *it;
      if (col[1][r] >= t.lo[1] && col[1][r] < t.hi[1] &&
          col[2][r] >= t.lo[2] && col[2][r] < t.hi[2]) {
        ++t.count;
        t.sum += col[3][r];
      }
    }
  }
  return out;
}

// --- Operations --------------------------------------------------------------

ClientModel::ClientModel(const Mix& mix, Oracle* oracle, size_t client,
                         uint64_t seed)
    : mix_(mix), oracle_(oracle), client_(client), rng_(seed) {}

Op ClientModel::Next() {
  Op op;
  op.column = static_cast<uint32_t>(mix_.own_column ? client_
                                                    : rng_.Below(mix_.columns));
  double u = rng_.Unit();
  if (u < mix_.conj) {
    op.kind = OpKind::kConj;
    op.tmpl =
        static_cast<uint32_t>(rng_.Below(oracle_->base->templates.size()));
    return op;
  }
  u -= mix_.conj;
  const bool del = u >= mix_.insert && u < mix_.insert + mix_.del;
  if (u < mix_.insert || (del && live_.empty())) {
    const uint32_t cell = static_cast<uint32_t>(rng_.Below(GridDeltas::kCells));
    live_.push_back({op.column, cell});
    op.kind = OpKind::kInsert;
    op.lo = cell;
    return op;
  }
  if (del) {
    const size_t i = rng_.Below(live_.size());
    op.kind = OpKind::kDelete;
    op.column = live_[i].first;
    op.lo = live_[i].second;
    live_[i] = live_.back();
    live_.pop_back();
    return op;
  }
  op.kind = OpKind::kCount;
  if (mix_.width == 0) {
    const int64_t a = static_cast<int64_t>(rng_.Below(kDomain));
    const int64_t b = static_cast<int64_t>(rng_.Below(kDomain));
    op.lo = std::min(a, b);
    op.hi = std::max(a, b) + 1;
  } else {
    const uint64_t max_w = static_cast<uint64_t>(mix_.width * kDomain);
    const uint64_t w = mix_.fixed_width ? max_w : 1 + rng_.Below(max_w);
    op.lo = static_cast<int64_t>(rng_.Below(kDomain - w));
    op.hi = op.lo + static_cast<int64_t>(w);
  }
  return op;
}

std::string ClientModel::Check(const Op& op, const Answer& a) {
  switch (op.kind) {
    case OpKind::kCount: {
      const uint64_t want = oracle_->Count(op.column, op.lo, op.hi);
      if (static_cast<uint64_t>(a.count) == want) return {};
      return "count " + RangeText(op) + " expected " + std::to_string(want) +
             ", got " + std::to_string(a.count);
    }
    case OpKind::kConj: {
      const Template& t = oracle_->base->templates[op.tmpl];
      if (static_cast<uint64_t>(a.count) == t.count && a.sum == t.sum) {
        return {};
      }
      return "conjunction #" + std::to_string(op.tmpl) + " expected count " +
             std::to_string(t.count) + " sum " + std::to_string(t.sum) +
             ", got " + std::to_string(a.count) + " / " +
             std::to_string(a.sum);
    }
    case OpKind::kInsert:
      oracle_->deltas[op.column].Add(static_cast<size_t>(op.lo), +1);
      return {};
    case OpKind::kDelete:
      if (a.count != 1) {
        return "delete of " + ColumnName(op.column) + " value " +
               std::to_string(GridDeltas::Value(static_cast<size_t>(op.lo))) +
               " found no row";
      }
      oracle_->deltas[op.column].Add(static_cast<size_t>(op.lo), -1);
      return {};
  }
  return "unknown op";
}

// --- Spans -------------------------------------------------------------------

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"req\":%llu,\"name\":\"%s\","
                   "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req), s.name,
                   s.start * 1e6, s.end * 1e6);
    }
  }
  std::fclose(f);
}

// --- Clients -----------------------------------------------------------------

NextOp UntilDeadline(ClientModel& model, double deadline) {
  return [&model, deadline](Op* op) {
    if (NowS() >= deadline) return false;
    *op = model.Next();
    return true;
  };
}

NextOp FixedCount(ClientModel& model, size_t n) {
  return [&model, n, i = size_t{0}](Op* op) mutable {
    if (i++ >= n) return false;
    *op = model.Next();
    return true;
  };
}

NextOp Replay(const std::vector<Op>& ops) {
  return [&ops, i = size_t{0}](Op* op) mutable {
    if (i >= ops.size()) return false;
    *op = ops[i++];
    return true;
  };
}

void DriveWire(net::HolixClient& client, uint64_t session, size_t window,
               const NextOp& next, ClientModel& model, ClientRun& run,
               SpanLog* spans, uint64_t parent) {
  struct InFlight {
    size_t index;
    uint64_t request;
  };
  std::deque<InFlight> q;
  const auto await_one = [&] {
    const InFlight f = q.front();
    q.pop_front();
    try {
      const Answer a =
          FromWire(run.ops[f.index], client.AwaitExecuteQuery(f.request));
      Complete(run, f.index, &a, model, spans, kWireNames, parent);
    } catch (const std::exception&) {
      Complete(run, f.index, nullptr, model, spans, kWireNames, parent);
    }
  };
  Op op;
  while (!g_stop.load(std::memory_order_relaxed) && next(&op)) {
    if (IsRead(op.kind)) {
      const size_t i = BeginOp(run, op);
      try {
        q.push_back({i, SendRead(client, session, op, *model.oracle().base)});
      } catch (const std::exception&) {
        Complete(run, i, nullptr, model, spans, kWireNames, parent);
        continue;
      }
      if (q.size() >= window) await_one();
      continue;
    }
    while (!q.empty()) await_one();
    const size_t i = BeginOp(run, op);
    try {
      const KeyScalar v =
          KeyScalar::I64(GridDeltas::Value(static_cast<size_t>(op.lo)));
      Answer a;
      if (op.kind == OpKind::kInsert) {
        client.InsertScalar(session, kTable, ColumnName(op.column), v);
        a.count = 1;
      } else {
        a.count =
            client.DeleteScalar(session, kTable, ColumnName(op.column), v) ? 1
                                                                           : 0;
      }
      Complete(run, i, &a, model, spans, kWireNames, parent);
    } catch (const std::exception&) {
      Complete(run, i, nullptr, model, spans, kWireNames, parent);
    }
  }
  while (!q.empty()) await_one();
}

void DriveEngine(Session& session, const std::vector<ColumnHandle>& handles,
                 const NextOp& next, ClientModel& model, ClientRun& run,
                 SpanLog* spans, uint64_t parent) {
  Op op;
  while (!g_stop.load(std::memory_order_relaxed) && next(&op)) {
    const size_t i = BeginOp(run, op);
    try {
      Answer a;
      switch (op.kind) {
        case OpKind::kCount: {
          QuerySpec spec;
          spec.Where(handles[op.column], op.lo, op.hi).Count();
          a.count = session.Execute(spec).values.at(0).i;
          break;
        }
        case OpKind::kConj: {
          const Template& t = model.oracle().base->templates[op.tmpl];
          QuerySpec spec;
          for (size_t k = 0; k < 3; ++k) {
            spec.Where(handles[k], t.lo[k], t.hi[k]);
          }
          spec.Count().Sum(handles[3]);
          const QueryResult r = session.Execute(spec);
          a.count = r.values.at(0).i;
          a.sum = r.values.at(1).i;
          break;
        }
        case OpKind::kInsert:
          session.InsertScalar(handles[op.column],
                               GridDeltas::Value(static_cast<size_t>(op.lo)));
          a.count = 1;
          break;
        case OpKind::kDelete:
          a.count = session.DeleteScalar(
                        handles[op.column],
                        GridDeltas::Value(static_cast<size_t>(op.lo)))
                        ? 1
                        : 0;
          break;
      }
      Complete(run, i, &a, model, spans, kEngineNames, parent);
    } catch (const std::exception&) {
      Complete(run, i, nullptr, model, spans, kEngineNames, parent);
    }
  }
}

void RunThreads(size_t n, const std::function<void(size_t)>& body) {
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      try {
        body(t);
      } catch (...) {
        errors[t] = std::current_exception();
        g_stop.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// --- The system under test ---------------------------------------------------

DatabaseOptions ProductOptions() {
  DatabaseOptions o;
  o.mode = ExecMode::kHolistic;
  o.total_cores = std::max(1u, std::thread::hardware_concurrency());
  o.user_threads = 1;
  return o;
}

Instance::~Instance() {
  clients.clear();
  server.reset();
  pm.reset();
  db.reset();
}

void Instance::Load(uint64_t seed, size_t columns, size_t rows) {
  for (size_t c = 0; c < columns; ++c) {
    db->LoadColumn<int64_t>(kTable, ColumnName(c), GenColumn(seed, c, rows));
  }
}

void Instance::Serve(size_t connections) {
  server = std::make_unique<net::HolixServer>(*db, net::ServerOptions{});
  server->Start();
  clients.resize(connections);
  for (auto& c : clients) {
    c.Connect("127.0.0.1", server->port());
    sessions.push_back(c.OpenSession());
  }
}

std::vector<ColumnHandle> Instance::Handles(size_t columns) const {
  std::vector<ColumnHandle> h;
  for (size_t c = 0; c < columns; ++c) {
    h.push_back(db->Resolve(kTable, ColumnName(c)));
  }
  return h;
}

// --- Measurement helpers -----------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double InterquartileMean(std::vector<double> v) {
  const size_t cut = v.size() / 4;
  if (cut == 0) return Median(std::move(v));
  std::sort(v.begin(), v.end());
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

namespace {
double StatusMiB(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // kB
    }
  }
  return 0;
}
}  // namespace

double RssMiB() { return StatusMiB("VmRSS"); }
double PeakRssMiB() { return StatusMiB("VmHWM"); }

void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

namespace {
Readings FromSnapshot(const obs::MetricsSnapshot& snap) {
  Readings r;
  for (const auto& [name, v] : snap.counters) {
    r.values[name] = static_cast<double>(v);
  }
  for (const auto& [name, v] : snap.gauges) r.values[name] = v;
  return r;
}
}  // namespace

Readings Readings::Take(const Database& db) {
  return FromSnapshot(db.MetricsSnapshot());
}

Readings Readings::Take() {
  return FromSnapshot(obs::MetricsRegistry::Global().Snapshot());
}

double Readings::Get(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

double Readings::SumPrefix(const std::string& prefix) const {
  double s = 0;
  for (auto it = values.lower_bound(prefix);
       it != values.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    s += it->second;
  }
  return s;
}

}  // namespace holix::e2e

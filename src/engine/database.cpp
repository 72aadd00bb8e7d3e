#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "engine/scalar_convert.h"

namespace holix {

namespace {

/// Rank image of an applied update value: the exact KeyFromScalar
/// conversion the executor performed, then ToRank. Only called for values
/// the executor already accepted.
template <typename T>
uint64_t AppliedRank(KeyScalar value) {
  T v{};
  KeyFromScalar<T>(value, &v);
  return KeyTraits<T>::ToRank(v);
}

/// Installs (or returns) a column's cracker for the restore path. Mirrors
/// the executors' EnsureCracker minus the mode hooks: saved pivots already
/// encode any pre-cracking, and holistic registration happens at the end
/// of FinishRestore. The cracker starts without rows: only its pending
/// queues fill during recovery, and FinishRestore builds its arrays once,
/// straight from the base image, instead of copying the base here.
template <typename T>
std::shared_ptr<CrackerColumn<T>> EnsureRestoredCracker(ColumnEntry& e) {
  auto& rt = e.runtime<T>();
  auto cracker = rt.cracker.load(std::memory_order_acquire);
  if (cracker == nullptr) {
    std::lock_guard<std::mutex> lk(e.build_mu);
    cracker = rt.cracker.load(std::memory_order_acquire);
    if (cracker == nullptr) {
      cracker = std::make_shared<CrackerColumn<T>>(
          e.key(), std::vector<T>{}, std::vector<RowId>{});
      rt.cracker.store(cracker, std::memory_order_release);
    }
  }
  return cracker;
}

/// Recovery refuses a durable rowid the cracker's 32-bit lane cannot
/// hold: such a record was never written by this engine, and narrowing it
/// would silently alias another row.
void CheckLoggedRowId(const std::string& key, RowId rid) {
  if (rid >= kRowIdLimit) {
    throw std::runtime_error("recovery: rowid " + std::to_string(rid) +
                             " of " + key + " is at or above 2^32");
  }
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

StoreState StoreStateOf(ConfigKind kind) {
  switch (kind) {
    case ConfigKind::kActual:
      return StoreState::kActual;
    case ConfigKind::kPotential:
      return StoreState::kPotential;
    case ConfigKind::kOptimal:
      return StoreState::kOptimal;
  }
  return StoreState::kUnregistered;
}

}  // namespace

const char* ExecModeName(ExecMode m) {
  switch (m) {
    case ExecMode::kScan:
      return "scan";
    case ExecMode::kOffline:
      return "offline";
    case ExecMode::kOnline:
      return "online";
    case ExecMode::kAdaptive:
      return "adaptive";
    case ExecMode::kStochastic:
      return "stochastic";
    case ExecMode::kCCGI:
      return "ccgi";
    case ExecMode::kHolistic:
      return "holistic";
  }
  return "?";
}

Database::Database(DatabaseOptions options) : options_(options) {
  if (options_.total_cores == 0) {
    options_.total_cores = std::max<unsigned>(
        1, std::thread::hardware_concurrency());
  }
  options_.user_threads = std::max<size_t>(1, options_.user_threads);
  // The calling (client) thread counts as one context; the pool supplies
  // the rest of the query's thread budget.
  query_pool_ = std::make_unique<ThreadPool>(options_.user_threads - 1 == 0
                                                 ? 1
                                                 : options_.user_threads - 1);
  if (options_.mode == ExecMode::kHolistic) {
    std::unique_ptr<CpuMonitor> monitor;
    if (options_.use_proc_stat_monitor) {
      monitor = std::make_unique<ProcStatCpuMonitor>(
          options_.holistic.monitor_interval_seconds);
    } else {
      auto slot = std::make_unique<SlotCpuMonitor>(
          options_.total_cores, options_.holistic.monitor_interval_seconds);
      slot_monitor_ = slot.get();
      monitor = std::move(slot);
    }
    holistic_ =
        std::make_unique<HolisticEngine>(options_.holistic, std::move(monitor));
    holistic_->Start();
  }
  engine_ctx_.options = &options_;
  engine_ctx_.registry = &registry_;
  engine_ctx_.query_pool = query_pool_.get();
  engine_ctx_.holistic = holistic_.get();
  engine_ctx_.slot_monitor = slot_monitor_;
  engine_ctx_.next_rowid = &next_insert_rowid_;
  executor_ = MakeQueryExecutor(options_.mode, engine_ctx_);
}

Database::~Database() {
  if (holistic_ != nullptr) holistic_->Stop();
}

void Database::RaiseRowIdFloor(uint64_t rows) {
  uint64_t expected = next_insert_rowid_.load(std::memory_order_relaxed);
  while (expected < rows && !next_insert_rowid_.compare_exchange_weak(
                                expected, rows, std::memory_order_relaxed)) {
  }
}

void Database::DropTable(const std::string& table) {
  // Unique barrier: a checkpoint's state export never reads a base array
  // while it is being freed.
  std::unique_lock<std::shared_mutex> barrier(update_barrier_);
  for (const auto& entry : registry_.DropTable(table)) {
    if (holistic_ != nullptr) holistic_->store().Remove(entry->key());
    entry->ResetIndexRuntime();
    entry->ReleaseBase();
  }
}

Session Database::OpenSession(SessionOptions options) {
  const uint64_t id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  // Distinct deterministic per-session seed unless the caller pins one.
  const uint64_t seed = options.seed != 0
                            ? options.seed
                            : options_.seed ^ (0x9E3779B97F4A7C15ULL * (id + 1));
  return Session(this, id, seed);
}

// --- Declarative core -------------------------------------------------------

QueryResult Database::Execute(const QuerySpec& spec,
                              const QueryContext& qctx) {
  SlotLease lease(slot_monitor_, options_.user_threads);
  return executor_->Execute(spec, qctx);
}

// --- Updates ----------------------------------------------------------------

RowId Database::InsertScalar(const ColumnHandle& column, KeyScalar value,
                             const QueryContext& qctx) {
  // Shared barrier around apply+log: a checkpoint's state cut (unique
  // barrier) can never observe an applied-but-unlogged update.
  std::shared_lock<std::shared_mutex> barrier(update_barrier_);
  const RowId rid = executor_->Insert(column, value, qctx);
  if (DurabilityHook* hook = durability_.load(std::memory_order_acquire)) {
    DispatchIndexableType(column.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      hook->LogUpdate(WalOp::kInsert, column.entry()->table(),
                      column.entry()->column(), column.type(),
                      AppliedRank<T>(value), rid);
    });
  }
  return rid;
}

bool Database::DeleteScalar(const ColumnHandle& column, KeyScalar value,
                            const QueryContext& qctx) {
  std::shared_lock<std::shared_mutex> barrier(update_barrier_);
  RowId rid = 0;
  const bool found = executor_->Delete(column, value, qctx, &rid);
  if (found) {
    if (DurabilityHook* hook = durability_.load(std::memory_order_acquire)) {
      DispatchIndexableType(column.type(), [&](auto tag) {
        using T = typename decltype(tag)::type;
        hook->LogUpdate(WalOp::kDelete, column.entry()->table(),
                        column.entry()->column(), column.type(),
                        AppliedRank<T>(value), rid);
      });
    }
  }
  return found;
}

// --- Durability -------------------------------------------------------------

void Database::SetDurabilityHook(DurabilityHook* hook) {
  // Unique barrier: no update is mid-apply while the hook flips, so the
  // logged stream has no half-covered prefix.
  std::unique_lock<std::shared_mutex> barrier(update_barrier_);
  durability_.store(hook, std::memory_order_release);
}

uint64_t Database::Checkpoint() {
  DurabilityHook* hook = durability_.load(std::memory_order_acquire);
  if (hook == nullptr) {
    throw std::logic_error("Checkpoint requires an attached durability hook");
  }
  return hook->Checkpoint();
}

DurableDatabaseState Database::ExportDurableState(
    const std::function<void()>& under_barrier) {
  std::unique_lock<std::shared_mutex> barrier(update_barrier_);
  DurableDatabaseState st;
  st.next_rowid = next_insert_rowid_.load(std::memory_order_relaxed);
  registry_.ForEach([&](ColumnEntry& e) {
    DispatchIndexableType(e.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      using KT = KeyTraits<T>;
      auto& rt = e.runtime<T>();
      DurableColumnState cs;
      cs.table = e.table();
      cs.column = e.column();
      cs.type = e.type();
      cs.base_ranks.reserve(rt.base.size());
      for (const T& v : rt.base) cs.base_ranks.push_back(KT::ToRank(v));
      if (auto cracker = rt.cracker.load(std::memory_order_acquire)) {
        // Drain the queues into the cracker first, so the appended /
        // deleted-base registries carry the column's full update history
        // and recovery has nothing queue-shaped to reconstruct.
        cracker->MergePendingInRange(KT::Lowest(), std::nullopt);
        cs.has_cracker = true;
        for (const auto& [rid, v] : cracker->pending().AppendedEntries()) {
          cs.appended.emplace_back(rid, KT::ToRank(v));
        }
        for (const auto& [rid, v] : cracker->pending().DeletedBaseEntries()) {
          cs.deleted_base.emplace_back(rid, KT::ToRank(v));
        }
        for (const auto& [v, pos] : cracker->ExportBoundaries()) {
          (void)pos;  // re-derived on restore from the multiset
          cs.pivot_ranks.push_back(KT::ToRank(v));
        }
        const CrackStats& s = cracker->stats();
        cs.stats[0] = s.accesses.load(std::memory_order_relaxed);
        cs.stats[1] = s.exact_hits.load(std::memory_order_relaxed);
        cs.stats[2] = s.query_cracks.load(std::memory_order_relaxed);
        cs.stats[3] = s.worker_cracks.load(std::memory_order_relaxed);
        cs.stats[4] = s.worker_skips.load(std::memory_order_relaxed);
        cs.stats[5] = s.merged_inserts.load(std::memory_order_relaxed);
        cs.stats[6] = s.merged_deletes.load(std::memory_order_relaxed);
      }
      cs.store_state =
          static_cast<uint8_t>(e.store_state.load(std::memory_order_acquire));
      st.columns.push_back(std::move(cs));
    });
  });
  std::sort(st.columns.begin(), st.columns.end(),
            [](const DurableColumnState& a, const DurableColumnState& b) {
              return std::tie(a.table, a.column) <
                     std::tie(b.table, b.column);
            });
  // Tables come from the same snapshot: one per run of equal table names.
  for (const DurableColumnState& cs : st.columns) {
    if (st.tables.empty() || st.tables.back().name != cs.table) {
      st.tables.push_back({cs.table, cs.base_ranks.size(), {}});
    }
    st.tables.back().columns.push_back(cs.column);
  }
  if (under_barrier) under_barrier();
  return st;
}

void Database::BeginRestore(const DurableDatabaseState& state) {
  if (registry_.size() != 0) {
    throw std::logic_error("BeginRestore requires an empty database");
  }
  // The manifest and the column images must agree before anything loads:
  // each listed column has one image, holding its table's base_rows rows.
  std::unordered_map<std::string, uint64_t> unmatched;  // key -> base_rows
  for (const DurableTableState& ts : state.tables) {
    for (const std::string& cname : ts.columns) {
      unmatched.emplace(ColumnRegistry::Key(ts.name, cname), ts.base_rows);
    }
  }
  for (const DurableColumnState& cs : state.columns) {
    const std::string key = ColumnRegistry::Key(cs.table, cs.column);
    const auto it = unmatched.find(key);
    if (it == unmatched.end()) {
      throw std::runtime_error("snapshot column " + key +
                               " is listed by no table");
    }
    if (cs.base_ranks.size() != it->second) {
      throw std::runtime_error(
          "snapshot column " + key + " has " +
          std::to_string(cs.base_ranks.size()) + " rows, its table lists " +
          std::to_string(it->second));
    }
    unmatched.erase(it);
  }
  if (!unmatched.empty()) {
    throw std::runtime_error("snapshot misses column " +
                             unmatched.begin()->first);
  }
  for (const DurableColumnState& cs : state.columns) {
    DispatchIndexableType(cs.type, [&](auto tag) {
      using T = typename decltype(tag)::type;
      std::vector<T> vals;
      vals.reserve(cs.base_ranks.size());
      for (uint64_t r : cs.base_ranks) {
        vals.push_back(KeyTraits<T>::FromRank(r));
      }
      LoadColumn<T>(cs.table, cs.column, std::move(vals));
      // The checkpointed update history re-enters through the pending
      // queues; FinishRestore merges it after WAL replay has stacked the
      // tail on top.
      if (!cs.has_cracker && cs.appended.empty() && cs.deleted_base.empty()) {
        return;
      }
      ColumnHandle h = registry_.Resolve(cs.table, cs.column);
      auto cracker = EnsureRestoredCracker<T>(*h.entry());
      for (const auto& [rid, rank] : cs.appended) {
        CheckLoggedRowId(h.entry()->key(), rid);
        cracker->pending().AddInsert(KeyTraits<T>::FromRank(rank), rid);
      }
      for (const auto& [rid, rank] : cs.deleted_base) {
        CheckLoggedRowId(h.entry()->key(), rid);
        cracker->pending().AddDelete(KeyTraits<T>::FromRank(rank), rid);
      }
    });
  }
  RaiseRowIdFloor(state.next_rowid);
}

void Database::ApplyLoggedInsert(const std::string& table,
                                 const std::string& column, ValueType type,
                                 uint64_t rank, RowId rid) {
  ApplyLoggedUpdate(WalOp::kInsert, table, column, type, rank, rid);
}

void Database::ApplyLoggedDelete(const std::string& table,
                                 const std::string& column, ValueType type,
                                 uint64_t rank, RowId rid) {
  ApplyLoggedUpdate(WalOp::kDelete, table, column, type, rank, rid);
}

void Database::ApplyLoggedUpdate(WalOp op, const std::string& table,
                                 const std::string& column, ValueType type,
                                 uint64_t rank, RowId rid) {
  ColumnHandle h = registry_.Resolve(table, column);
  ColumnEntry& e = *h.entry();
  if (e.type() != type) {
    throw std::runtime_error("wal record type mismatch for " + e.key());
  }
  CheckLoggedRowId(e.key(), rid);
  DispatchIndexableType(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    auto cracker = EnsureRestoredCracker<T>(e);
    const T v = KeyTraits<T>::FromRank(rank);
    if (op == WalOp::kInsert) {
      cracker->pending().AddInsert(v, rid);
    } else {
      cracker->pending().AddDelete(v, rid);
    }
  });
  if (op == WalOp::kInsert) RaiseRowIdFloor(rid + 1);
}

void Database::FinishRestore(const DurableDatabaseState& state) {
  // Nothing else runs during recovery, so the rebuild may use every core.
  std::unique_ptr<ThreadPool> pool;
  if (options_.total_cores > 1) {
    pool = std::make_unique<ThreadPool>(options_.total_cores - 1);
  }
  double restore_s = 0, check_s = 0, register_s = 0;
  for (const DurableColumnState& cs : state.columns) {
    ColumnHandle h = registry_.Resolve(cs.table, cs.column);
    ColumnEntry& e = *h.entry();
    DispatchIndexableType(cs.type, [&](auto tag) {
      using T = typename decltype(tag)::type;
      using KT = KeyTraits<T>;
      auto& rt = e.runtime<T>();
      auto cracker = rt.cracker.load(std::memory_order_acquire);
      if (cracker == nullptr) return;
      // One multi-way partition rebuilds the saved pieces from the base
      // image plus the merged updates. Boundary positions come out
      // bit-identical: pos(w) = #{x : x < w} over the restored multiset.
      auto t0 = std::chrono::steady_clock::now();
      std::vector<T> pivots;
      pivots.reserve(cs.pivot_ranks.size());
      for (uint64_t rank : cs.pivot_ranks) {
        const T w = KT::FromRank(rank);
        if (!pivots.empty() && !KT::Less(pivots.back(), w)) {
          throw std::runtime_error("restored pivots out of order: " +
                                   e.key());
        }
        pivots.push_back(w);
      }
      cracker->RestorePieces(pivots, rt.base, pool.get());
      // Life counters restore LAST: the bulk merge above ticked them.
      CrackStats& s = cracker->stats();
      s.accesses.store(cs.stats[0], std::memory_order_relaxed);
      s.exact_hits.store(cs.stats[1], std::memory_order_relaxed);
      s.query_cracks.store(cs.stats[2], std::memory_order_relaxed);
      s.worker_cracks.store(cs.stats[3], std::memory_order_relaxed);
      s.worker_skips.store(cs.stats[4], std::memory_order_relaxed);
      s.merged_inserts.store(cs.stats[5], std::memory_order_relaxed);
      s.merged_deletes.store(cs.stats[6], std::memory_order_relaxed);
      restore_s += SecondsSince(t0);
      t0 = std::chrono::steady_clock::now();
      if (!cracker->CheckInvariants()) {
        throw std::runtime_error("restored cracker violates invariants: " +
                                 e.key());
      }
      check_s += SecondsSince(t0);
      t0 = std::chrono::steady_clock::now();
      // Holistic store membership — registration goes last so no worker
      // can refine the column before its pivots are back.
      if (holistic_ != nullptr && cs.store_state != 0) {
        auto adapter = std::make_shared<CrackerAdaptiveIndex<T>>(cracker);
        e.adapter.store(adapter, std::memory_order_release);
        const StoreState saved = static_cast<StoreState>(cs.store_state);
        const ConfigKind kind = saved == StoreState::kPotential
                                    ? ConfigKind::kPotential
                                    : ConfigKind::kActual;
        std::vector<std::string> evicted;
        holistic_->store().Register(adapter, kind, &evicted);
        if (saved == StoreState::kOptimal) {
          // A converged index retires straight back into C_optimal.
          holistic_->store().UpdateAfterRefinement(e.key());
        }
        for (const std::string& victim : evicted) {
          if (victim == e.key()) continue;
          if (ColumnHandle vh = registry_.FindByKey(victim); vh.entry()) {
            vh.entry()->ResetIndexRuntime();
          }
        }
        const auto now = holistic_->store().TryKindOf(e.key());
        e.store_state.store(
            now.has_value() ? StoreStateOf(*now) : StoreState::kUnregistered,
            std::memory_order_release);
      }
      register_s += SecondsSince(t0);
    });
  }
  obs::RecoveryStageSeconds("restore_pieces").Observe(restore_s);
  obs::RecoveryStageSeconds("check_invariants").Observe(check_s);
  obs::RecoveryStageSeconds("register").Observe(register_s);
}

size_t Database::TotalIndexPieces() const {
  size_t pieces = 0;
  registry_.ForEach([&](ColumnEntry& e) {
    DispatchIndexableType(e.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      if (auto c = e.runtime<T>().cracker.load(std::memory_order_acquire)) {
        pieces += c->NumPieces();
      }
    });
  });
  return pieces;
}

obs::MetricsSnapshot Database::MetricsSnapshot() const {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("holix_index_pieces")
      .Set(static_cast<double>(TotalIndexPieces()));
  reg.GetGauge("holix_adaptive_indices")
      .Set(static_cast<double>(NumAdaptiveIndices()));
  if (holistic_ != nullptr) {
    const StatsStore& store = holistic_->store();
    reg.GetGauge("holix_holistic_actual_indices")
        .Set(static_cast<double>(store.Count(ConfigKind::kActual)));
    reg.GetGauge("holix_holistic_potential_indices")
        .Set(static_cast<double>(store.Count(ConfigKind::kPotential)));
    reg.GetGauge("holix_holistic_optimal_indices")
        .Set(static_cast<double>(store.Count(ConfigKind::kOptimal)));
    reg.GetGauge("holix_holistic_store_bytes")
        .Set(static_cast<double>(store.TotalBytes()));
    reg.GetGauge("holix_holistic_budget_bytes")
        .Set(static_cast<double>(store.budget_bytes()));
    // Equation-1 distance remaining, one gauge per registered column; a
    // retired index reads 0, so the family shows the burn-down directly.
    for (const ConfigKind kind :
         {ConfigKind::kActual, ConfigKind::kPotential, ConfigKind::kOptimal}) {
      for (const std::string& name : store.Names(kind)) {
        if (auto index = store.Find(name)) {
          reg.GetGauge("holix_holistic_distance_bytes{column=\"" + name +
                       "\"}")
              .Set(static_cast<double>(index->DistanceToOptimal()));
        }
      }
    }
  }
  return reg.Snapshot();
}

size_t Database::NumAdaptiveIndices() const {
  size_t n = 0;
  registry_.ForEach([&](ColumnEntry& e) {
    DispatchIndexableType(e.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      if (e.runtime<T>().cracker.load(std::memory_order_acquire) != nullptr) {
        ++n;
      }
    });
  });
  return n;
}

ThreadPool& Database::client_pool(size_t min_threads) {
  std::lock_guard<std::mutex> lk(client_pool_mu_);
  const size_t want = std::max<size_t>(
      min_threads, std::max<size_t>(2, options_.total_cores));
  if (client_pool_ == nullptr) {
    client_pool_ = std::make_unique<ThreadPool>(want);
  } else if (client_pool_->size() < min_threads) {
    // Grow by retiring the old pool, never destroying it: references and
    // in-flight submissions on the old pool stay valid (its queue drains
    // on its own threads); only new callers see the bigger pool.
    retired_client_pools_.push_back(std::move(client_pool_));
    client_pool_ = std::make_unique<ThreadPool>(want);
  }
  return *client_pool_;
}

}  // namespace holix

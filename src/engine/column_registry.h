/// \file column_registry.h
/// \brief The engine's one name map: (table, column) -> the entry that owns
/// the attribute's base data and its per-column runtime state.
///
/// The store is DSM (§3.1): one dense array per attribute, the i-th value
/// of every array of a table belonging to tuple i. Each ColumnEntry owns
/// its array; there is no separate catalog. The registry resolves
/// `(table, column)` ONCE into a cheap, copyable ColumnHandle; every later
/// query through the handle touches no global mutex and hashes no strings.
/// Lookups go through an RCU-style snapshot: readers atomically load a
/// `shared_ptr` to an immutable name->entry map, while mutations
/// (LoadColumn, DropTable) build a new map under a writer mutex and swap it
/// in. Entries themselves are stable heap objects, so a resolved handle
/// stays valid across snapshot swaps; dropping a table flips the entry's
/// `dropped` flag, which executors check before touching base data, and
/// frees the base array.
///
/// Each entry carries the *typed* runtime of its attribute — the base
/// array plus lazily built CrackerColumn<T> / SortedIndex<T>, published
/// through atomic shared_ptr slots — which is what makes the engine layer
/// generic over the element type (int32_t, int64_t and double; doubles
/// order through the KeyTraits<double> total order).

#pragma once

#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "baselines/sorted_index.h"
#include "cracking/cracker_column.h"
#include "holistic/adaptive_index.h"
#include "storage/types.h"

namespace holix {

/// Where an entry's adaptive index currently sits in the holistic
/// statistics store. Mirrored on the entry so the query hot path can skip
/// the store mutex whenever no configuration transition is due.
enum class StoreState : uint8_t {
  kUnregistered,  ///< No adaptive index registered (or it was evicted).
  kActual,        ///< Registered in C_actual.
  kPotential,     ///< Registered in C_potential (seeded, not yet queried).
  kOptimal,       ///< Retired into C_optimal.
};

/// The typed per-attribute runtime: base storage plus the lazily built
/// index structures. Index slots are atomic shared_ptrs so the hot path
/// reads them lock-free; construction serializes on the entry's build_mu.
template <typename T>
struct TypedColumnRuntime {
  /// Base data: the attribute's dense array, owned here. Set once by
  /// ColumnRegistry::Add and immutable until DropTable frees it (updates go
  /// to the cracker's pending queues, never to the base).
  std::vector<T> base;

  /// Adaptive (cracked) index; null until first cracked access.
  std::atomic<std::shared_ptr<CrackerColumn<T>>> cracker{};

  /// Sorted projection; null until offline/online indexing builds it.
  std::atomic<std::shared_ptr<SortedIndex<T>>> sorted{};

  /// Cached [min, max] of the base column, computed lazily (one O(N) pass
  /// under the entry's build_mu) for selectivity interpolation on columns
  /// that have no index yet. Read domain_min/domain_max only after an
  /// acquire-load of domain_ready observes true.
  std::atomic<bool> domain_ready{false};
  T domain_min{};
  T domain_max{};
};

/// One registered attribute. Stable in memory from LoadColumn until the
/// last handle dies; `dropped` turns stale handles into errors instead of
/// dangling base pointers.
class ColumnEntry {
 public:
  ColumnEntry(std::string table, std::string column, ValueType type)
      : table_(std::move(table)),
        column_(std::move(column)),
        key_(table_ + "." + column_),
        type_(type) {
    DispatchIndexableType(type_, [this](auto tag) {
      using T = typename decltype(tag)::type;
      rt<T>().reset(new TypedColumnRuntime<T>());
    });
  }

  const std::string& table() const { return table_; }
  const std::string& column() const { return column_; }
  /// Unique "table.column" key (also the index name in the stats store).
  const std::string& key() const { return key_; }
  ValueType type() const { return type_; }

  /// The typed runtime slot. Only the slot matching type() is populated;
  /// callers dispatch on type() first (DispatchIndexableType).
  template <typename T>
  std::unique_ptr<TypedColumnRuntime<T>>& rt() {
    static_assert(std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t> ||
                      std::is_same_v<T, double>,
                  "no typed runtime for this element type");
    if constexpr (std::is_same_v<T, int32_t>) {
      return rt32_;
    } else if constexpr (std::is_same_v<T, int64_t>) {
      return rt64_;
    } else {
      return rtf64_;
    }
  }
  template <typename T>
  TypedColumnRuntime<T>& runtime() {
    auto& slot = rt<T>();
    assert(slot != nullptr && "typed runtime accessed with the wrong T");
    return *slot;
  }

  /// Drops every built index structure and forgets the store registration
  /// (storage-budget eviction, table drop). Queries holding the old
  /// shared_ptr finish safely; the next access rebuilds.
  void ResetIndexRuntime() {
    DispatchIndexableType(type_, [this](auto tag) {
      auto& r = runtime<typename decltype(tag)::type>();
      r.cracker.store(nullptr, std::memory_order_release);
      r.sorted.store(nullptr, std::memory_order_release);
    });
    adapter.store(nullptr, std::memory_order_release);
    store_state.store(StoreState::kUnregistered, std::memory_order_release);
  }

  /// Number of base rows (0 once DropTable has freed the base).
  size_t base_rows() {
    return DispatchIndexableType(type_, [this](auto tag) {
      return runtime<typename decltype(tag)::type>().base.size();
    });
  }

  /// Frees the base array (table drop). Callers have quiesced queries on
  /// the table, and `dropped` is already set, so no executor reads it.
  void ReleaseBase() {
    DispatchIndexableType(type_, [this](auto tag) {
      std::vector<typename decltype(tag)::type>().swap(
          runtime<typename decltype(tag)::type>().base);
    });
  }

  /// Serializes slow-path index construction for this attribute only.
  std::mutex build_mu;

  /// Accesses observed by the online (COLT-style) mode; this column's
  /// observation window closes once it reaches the configured window.
  std::atomic<uint64_t> online_observed{0};

  /// Set by DropTable; checked by executors before dereferencing base.
  std::atomic<bool> dropped{false};

  /// Holistic bookkeeping (meaningful only in kHolistic mode).
  std::atomic<StoreState> store_state{StoreState::kUnregistered};
  std::atomic<std::shared_ptr<AdaptiveIndex>> adapter{};
  std::atomic<uint32_t> access_tick{0};  ///< Throttles weight refreshes.

 private:
  std::string table_;
  std::string column_;
  std::string key_;
  ValueType type_;
  std::unique_ptr<TypedColumnRuntime<int32_t>> rt32_;
  std::unique_ptr<TypedColumnRuntime<int64_t>> rt64_;
  std::unique_ptr<TypedColumnRuntime<double>> rtf64_;
};

/// A resolved reference to one attribute: resolve once, query many times.
/// Cheap to copy (one shared_ptr); safe to cache per client/session. A
/// default-constructed handle is invalid; a handle whose table was dropped
/// reports !valid() and makes queries throw instead of touching freed data.
class ColumnHandle {
 public:
  ColumnHandle() = default;
  explicit ColumnHandle(std::shared_ptr<ColumnEntry> entry)
      : entry_(std::move(entry)) {}

  /// True when the handle resolves to a live (not dropped) attribute.
  bool valid() const {
    return entry_ != nullptr &&
           !entry_->dropped.load(std::memory_order_acquire);
  }
  explicit operator bool() const { return valid(); }

  /// "table.column" of the referenced attribute (handle must be non-null).
  const std::string& key() const { return entry_->key(); }
  /// Element type of the referenced attribute (handle must be non-null).
  ValueType type() const { return entry_->type(); }

  /// Engine-internal access to the entry (null for a default handle).
  ColumnEntry* entry() const { return entry_.get(); }
  const std::shared_ptr<ColumnEntry>& entry_ptr() const { return entry_; }

 private:
  std::shared_ptr<ColumnEntry> entry_;
};

/// The name -> entry registry with RCU-style snapshot lookups.
class ColumnRegistry {
 public:
  using Snapshot = std::unordered_map<std::string, std::shared_ptr<ColumnEntry>>;

  ColumnRegistry() { snapshot_.store(std::make_shared<const Snapshot>()); }

  ColumnRegistry(const ColumnRegistry&) = delete;
  ColumnRegistry& operator=(const ColumnRegistry&) = delete;

  /// The canonical "table.column" key.
  static std::string Key(const std::string& table, const std::string& column) {
    return table + "." + column;
  }

  /// Registers attribute (table, column) and moves \p base into its entry.
  /// The names of a dropped table are free again. Throws
  /// std::invalid_argument when the attribute is already registered or
  /// when \p base's length differs from the other columns of \p table,
  /// and std::length_error for kRowIdLimit rows or more (the cracker's
  /// 32-bit rowid lane could not address them).
  template <typename T>
  ColumnHandle Add(const std::string& table, const std::string& column,
                   std::vector<T> base) {
    if (base.size() >= kRowIdLimit) {
      throw std::length_error("column " + Key(table, column) + " has " +
                              std::to_string(base.size()) +
                              " rows; a table holds fewer than 2^32");
    }
    auto entry =
        std::make_shared<ColumnEntry>(table, column, ValueTypeOf<T>::value);
    const size_t rows = base.size();
    entry->template runtime<T>().base = std::move(base);
    std::lock_guard<std::mutex> lk(mutate_mu_);
    const auto snap = snapshot_.load();
    if (snap->count(entry->key()) != 0) {
      throw std::invalid_argument("column already registered: " +
                                  entry->key());
    }
    for (const auto& [_, other] : *snap) {
      if (other->table() == table && other->base_rows() != rows) {
        throw std::invalid_argument("column length mismatch in table " +
                                    table);
      }
    }
    auto next = std::make_shared<Snapshot>(*snap);
    next->emplace(entry->key(), entry);
    snapshot_.store(std::shared_ptr<const Snapshot>(std::move(next)),
                    std::memory_order_release);
    return ColumnHandle(std::move(entry));
  }

  /// Resolves (table, column) to a handle, or a null handle when absent.
  /// One snapshot load + one hash; no global mutex.
  ColumnHandle TryResolve(const std::string& table,
                          const std::string& column) const {
    return FindByKey(Key(table, column));
  }

  /// Resolves (table, column); throws std::out_of_range when absent.
  ColumnHandle Resolve(const std::string& table,
                       const std::string& column) const {
    ColumnHandle h = TryResolve(table, column);
    if (h.entry() == nullptr) {
      throw std::out_of_range("no column " + Key(table, column));
    }
    return h;
  }

  /// Lookup by pre-built "table.column" key (eviction callbacks).
  ColumnHandle FindByKey(const std::string& key) const {
    const auto snap = snapshot_.load(std::memory_order_acquire);
    const auto it = snap->find(key);
    return it == snap->end() ? ColumnHandle() : ColumnHandle(it->second);
  }

  /// Removes every attribute of \p table from the namespace and marks the
  /// entries dropped (outstanding handles turn invalid). Returns the
  /// removed entries so the owner can deregister indices.
  std::vector<std::shared_ptr<ColumnEntry>> DropTable(
      const std::string& table) {
    std::vector<std::shared_ptr<ColumnEntry>> removed;
    std::lock_guard<std::mutex> lk(mutate_mu_);
    auto next = std::make_shared<Snapshot>();
    const auto snap = snapshot_.load();
    next->reserve(snap->size());
    for (const auto& [key, entry] : *snap) {
      if (entry->table() == table) {
        entry->dropped.store(true, std::memory_order_release);
        removed.push_back(entry);
      } else {
        next->emplace(key, entry);
      }
    }
    snapshot_.store(std::shared_ptr<const Snapshot>(std::move(next)),
                    std::memory_order_release);
    return removed;
  }

  /// Applies \p fn to every entry of one snapshot (one atomic load), so
  /// the walk is consistent: a concurrent Add or DropTable is either wholly
  /// in it or wholly out.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const auto snap = snapshot_.load(std::memory_order_acquire);
    for (const auto& [_, entry] : *snap) fn(*entry);
  }

  /// Number of registered attributes.
  size_t size() const { return snapshot_.load()->size(); }

 private:
  mutable std::mutex mutate_mu_;  ///< Writers only; readers never take it.
  std::atomic<std::shared_ptr<const Snapshot>> snapshot_;
};

}  // namespace holix

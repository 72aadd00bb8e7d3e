/// \file query_executor.h
/// \brief Per-mode query execution strategies over resolved column handles.
///
/// Each ExecMode is one strategy object behind a small interface: Execute
/// answers every read (a QuerySpec, query_spec.h), Insert/Delete queue
/// updates, Prepare and SeedPotential carry the mode-specific extras. All
/// of it runs over ColumnHandles — the facade resolves names once and the
/// executors never hash a string or take a global mutex on the query hot
/// path. Executors are type-generic: they dispatch on the handle's element
/// type (int32_t, int64_t and double) once per predicate.
///
/// Bounds and values cross this interface as KeyScalar (a tagged
/// int64-or-double), the same shape the wire protocol carries. The typed
/// path clamps each predicate's bound pair into one KeyRange<T>
/// (util/key_traits.h) with exact semantics — an int64 bound against a
/// double column goes through the "smallest double >= v" conversion, a
/// double bound against an integer column through exact ceil/floor
/// arithmetic — and an exclusive high beyond the type's total-order
/// maximum becomes the range's closed tail (no `hi`), which keeps rows
/// holding max(T) or the double NaN key selectable.
///
/// Inside the executor each mode has exactly one access path: the range
/// goes to the mode's index (a cracker select, a sorted-index binary
/// search, or nothing for a base scan), and one visitor turns that answer
/// into a count, a sum, rowids or a projected sum. Sums add in the
/// access's native order — cracker, sorted or base order — which fixes the
/// bits of a double sum per mode.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "engine/column_registry.h"
#include "engine/engine_options.h"
#include "engine/query_spec.h"
#include "storage/position_list.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace holix {

/// Shared engine state the executors operate on. Plain pointers; the
/// Database facade owns everything and outlives its executor.
struct EngineContext {
  const DatabaseOptions* options = nullptr;
  ColumnRegistry* registry = nullptr;
  ThreadPool* query_pool = nullptr;
  HolisticEngine* holistic = nullptr;       ///< Null unless kHolistic.
  SlotCpuMonitor* slot_monitor = nullptr;   ///< Null unless slot-monitored.
  std::atomic<uint64_t>* next_rowid = nullptr;
};

/// Per-call execution context. Sessions pass their private RNG so
/// stochastic pivots are deterministic per client; a null rng falls back to
/// a thread-local generator.
struct QueryContext {
  Rng* rng = nullptr;
};

/// One execution strategy (one ExecMode). Thread-safe: many clients may
/// call into the same executor concurrently.
class QueryExecutor {
 public:
  virtual ~QueryExecutor() = default;

  /// Executes a declarative QuerySpec (see query_spec.h for semantics).
  ///
  /// One predicate + one result is answered straight from the predicate's
  /// access (count, sum, rowid select or late-reconstruction sum). A
  /// conjunction is *planned*: predicates are ordered by estimated
  /// selectivity — cracker piece boundaries when an adaptive index exists,
  /// sorted-index counts when one is built, [min, max] rank interpolation
  /// otherwise — the most selective predicate drives the mode's select,
  /// and each remaining conjunct is applied either by sorted-positional
  /// merge against its own (index-refining) select or, when its estimated
  /// selectivity is high, by direct value probes of the base column; a
  /// probed predicate still runs its access (in cracking modes a crack at
  /// the query bounds) so repetition keeps getting faster on every
  /// predicate column.
  ///
  /// Throws std::invalid_argument for an empty conjunction, an empty
  /// result list, a sum request without a column, or columns spanning
  /// several tables.
  virtual QueryResult Execute(const QuerySpec& spec,
                              const QueryContext& qctx) = 0;

  /// Pending-queue insert; cracking modes only (throws otherwise). A
  /// double-carrier value against an integer column must be integral and
  /// in-domain, or std::out_of_range is thrown.
  virtual RowId Insert(const ColumnHandle& column, KeyScalar value,
                       const QueryContext& qctx);

  /// Pending-queue delete of one matching row; cracking modes only. When
  /// \p deleted_rid is non-null and a row was deleted, receives its rowid
  /// (the durability layer logs the resolved row so replay deletes exactly
  /// the row the original call removed).
  virtual bool Delete(const ColumnHandle& column, KeyScalar value,
                      const QueryContext& qctx,
                      RowId* deleted_rid = nullptr);

  /// Mode-specific up-front work (offline indexing sorts every column).
  virtual void Prepare() {}

  /// Registers a speculative index into C_potential (kHolistic only).
  virtual void SeedPotential(const ColumnHandle& column);
};

/// Builds the strategy object for \p mode.
std::unique_ptr<QueryExecutor> MakeQueryExecutor(ExecMode mode,
                                                 const EngineContext& ctx);

}  // namespace holix

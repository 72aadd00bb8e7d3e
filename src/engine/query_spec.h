/// \file query_spec.h
/// \brief QuerySpec: the declarative query description every read of the
/// engine is, and the typed fluent helpers that construct it.
///
/// A QuerySpec names one target table, a *conjunction* of 1..N range
/// predicates — each `(ColumnHandle, KeyScalar low, KeyScalar high)` with
/// the engine's usual half-open `[low, high)` semantics and closed-bound
/// degradation at the total-order top — and one or more result requests
/// (count, per-column sums, materialized rowids). Database::Execute,
/// Session::Execute/SubmitExecute and the wire's ExecuteQuery frame all
/// take one. The fluent helpers below (`Where`, `Count`, `Sum`, `RowIds`,
/// `ProjectSum`, `QuerySpec::Single`) build one: the paper's §3.1 select
/// is a one-predicate spec, and multi-predicate specs open its TPC-H Q6
/// shape — conjunctive ranges over `l_shipdate`, `l_discount`,
/// `l_quantity` — on the adaptive-indexing hot path, where every
/// predicate cracks its own index as a side effect (holistic refinement
/// keeps working per attribute, exactly as in the paper).
///
/// Result semantics (pinned by query_spec_test):
///  * With one predicate and one result the spec is answered straight
///    from the mode's access: a sum adds in its native order (cracker,
///    sorted or base order), rowids come back in that order.
///  * Every other shape (N >= 2 predicates, or several results) first
///    materializes the qualifying row set, sorted ascending by rowid, and
///    computes each aggregate positionally through the base column in that
///    order — so counts, rowids AND double sums are bit-identical across
///    all seven execution modes and across predicate orderings.
///  * Rows appended by a single-column insert participate on the column
///    they were inserted into: their values live in that column's pending
///    registry (which survives Ripple merges), and the positional paths —
///    probe filters, materialized sums — consult it for rowids at or past
///    the base row count. A row qualifies iff EVERY predicate column holds
///    a qualifying value for it, so a conjunction naturally excludes rows
///    inserted into only one of its predicate columns, while a
///    single-predicate spec (any result shape) sees them. Count, rowids
///    and sums always agree about which rows qualify.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "engine/column_registry.h"
#include "storage/position_list.h"
#include "storage/types.h"

namespace holix {

/// One conjunct: low <= column < high in the column type's total order
/// (scalar bounds clamp exactly into the column domain; an exclusive high
/// at the order's top degrades to the closed bound, as everywhere else).
struct RangePredicate {
  ColumnHandle column;
  KeyScalar low;
  KeyScalar high;
};

/// What a query should produce from the qualifying rows.
enum class ResultRequest : uint8_t {
  kCount = 0,       ///< Number of qualifying rows.
  kSum = 1,         ///< Sum of a column over the qualifying rows.
  kRowIds = 2,      ///< Materialized qualifying rowids.
  kProjectSum = 3,  ///< Alias of kSum kept for operator-shape symmetry:
                    ///< "select on A, project-aggregate B" (§3.1).
};

/// One requested result. kSum/kProjectSum need `column` (any column of the
/// target table — a predicate column or not); kCount/kRowIds ignore it.
struct ResultSpec {
  ResultRequest kind = ResultRequest::kCount;
  ColumnHandle column;
};

/// A declarative query: target table (implied by the predicate columns,
/// which must all belong to one table), conjunction, result requests.
/// Build directly or through the fluent helpers:
///
///   QuerySpec spec;
///   spec.Where(h_shipdate, date_lo, date_hi)
///       .Where(h_discount, 0.05, 0.07000000000000001)
///       .Where(h_quantity, INT64_MIN, 24)
///       .Count()
///       .Sum(h_price)
///       .RowIds();
///   QueryResult r = db.Execute(spec);
struct QuerySpec {
  std::vector<RangePredicate> predicates;
  std::vector<ResultSpec> results;

  QuerySpec& Where(ColumnHandle column, KeyScalar low, KeyScalar high) {
    predicates.push_back({std::move(column), low, high});
    return *this;
  }
  QuerySpec& Count() {
    results.push_back({ResultRequest::kCount, {}});
    return *this;
  }
  QuerySpec& Sum(ColumnHandle column) {
    results.push_back({ResultRequest::kSum, std::move(column)});
    return *this;
  }
  QuerySpec& RowIds() {
    results.push_back({ResultRequest::kRowIds, {}});
    return *this;
  }
  QuerySpec& ProjectSum(ColumnHandle column) {
    results.push_back({ResultRequest::kProjectSum, std::move(column)});
    return *this;
  }

  /// The one-predicate, one-result spec (the §3.1 select shape).
  static QuerySpec Single(ColumnHandle column, KeyScalar low, KeyScalar high,
                          ResultSpec result) {
    QuerySpec spec;
    spec.predicates.push_back({std::move(column), low, high});
    spec.results.push_back(std::move(result));
    return spec;
  }
};

/// The answer to one QuerySpec. `values[i]` answers `spec.results[i]`:
/// kCount and kRowIds carry the qualifying-row count as an i64 scalar;
/// kSum/kProjectSum carry the sum in the summed column's carrier type
/// (double columns sum to f64). `rowids` is filled when any kRowIds was
/// requested (sorted ascending except on the one-predicate/one-result
/// path, which keeps the mode's native order).
struct QueryResult {
  std::vector<KeyScalar> values;
  PositionList rowids;
};

}  // namespace holix

#include "engine/query_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "baselines/full_scan.h"
#include "cracking/pre_crack.h"
#include "engine/scalar_convert.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace holix {

namespace {

/// Stochastic cracking pivots must come from a thread-safe source; query
/// threads without a session RNG each get their own generator.
Rng& ThreadLocalQueryRng(uint64_t seed) {
  thread_local Rng rng(seed ^
                       std::hash<std::thread::id>{}(std::this_thread::get_id()));
  return rng;
}

/// The smallest double whose real value is >= the int64 \p v, computed
/// exactly and portably: static_cast rounds to nearest, so a result below
/// v (possible beyond 2^53) is bumped one ulp up. The "is d < v" check is
/// pure integer arithmetic — d is integral and in int64 range whenever it
/// isn't 2^63, so casting it back is exact (no long double needed).
double DoubleAtLeast(int64_t v) {
  double d = static_cast<double>(v);
  if (d >= 9223372036854775808.0) return d;  // 2^63: above every int64
  if (static_cast<int64_t>(d) < v) {
    d = std::nextafter(d, std::numeric_limits<double>::infinity());
  }
  return d;
}

/// Smallest key of integer type T that is >= the scalar bound \p lo
/// (exact for both carriers); nullopt when the bound sits above all of T.
template <typename T>
std::optional<T> IntFirstAtLeast(KeyScalar lo) {
  constexpr T tmin = std::numeric_limits<T>::min();
  constexpr T tmax = std::numeric_limits<T>::max();
  if (!lo.is_f64()) {
    if (lo.i > static_cast<int64_t>(tmax)) return std::nullopt;
    if (lo.i < static_cast<int64_t>(tmin)) return tmin;
    return static_cast<T>(lo.i);
  }
  const double d = lo.d;
  if (std::isnan(d)) return std::nullopt;  // the order's top: above all of T
  if (d <= static_cast<double>(tmin)) return tmin;
  const double cl = std::ceil(d);
  // 2^(width-1): the first double beyond T's positive range ((double)tmax
  // would round UP to this for int64 and mis-compare).
  if (cl >= std::ldexp(1.0, sizeof(T) * 8 - 1)) return std::nullopt;
  return static_cast<T>(cl);
}

/// Largest key of integer type T that is < the scalar bound \p hi (exact
/// for both carriers; a bound above T's range — including the double NaN
/// key — yields max(T), so the range becomes the closed tail); nullopt
/// when the bound sits at or below all of T.
template <typename T>
std::optional<T> IntLastBelow(KeyScalar hi) {
  constexpr T tmin = std::numeric_limits<T>::min();
  constexpr T tmax = std::numeric_limits<T>::max();
  if (!hi.is_f64()) {
    if (hi.i > static_cast<int64_t>(tmax)) return tmax;
    if (hi.i <= static_cast<int64_t>(tmin)) return std::nullopt;
    return static_cast<T>(hi.i - 1);
  }
  const double d = hi.d;
  if (std::isnan(d) || d >= std::ldexp(1.0, sizeof(T) * 8 - 1)) {
    return tmax;  // every key of T lies below the bound
  }
  if (d <= static_cast<double>(tmin)) return std::nullopt;
  const double fl = std::floor(d);
  const T f = static_cast<T>(fl);  // fl in [tmin, 2^(w-1)) -> exact cast
  if (fl == d) {
    // Integral exclusive high: the largest admissible key is d - 1,
    // computed in T (a double subtraction would round back up once the
    // ulp exceeds 1).
    if (f == tmin) return std::nullopt;
    return static_cast<T>(f - 1);
  }
  return f;
}

/// One scalar bound as an exact double key: int64 carriers go through
/// DoubleAtLeast — correct for BOTH ends of a half-open range, since no
/// double lies strictly between an int64's real value and its
/// DoubleAtLeast image — f64 carriers are canonicalized.
double DoubleBound(KeyScalar s) {
  return s.is_f64() ? KeyTraits<double>::Canonical(s.d) : DoubleAtLeast(s.i);
}

/// Clamps a KeyScalar bound pair into column type T's domain as one
/// KeyRange; nullopt when no key of T satisfies the predicate. Each bound
/// converts independently with exact semantics (mixed carriers included).
/// An exclusive high that cannot be expressed inside T — above max(T), or
/// the double NaN key — becomes the closed tail (no `hi`), so a row holding
/// exactly max(T) or the NaN key stays selectable.
template <typename T>
std::optional<KeyRange<T>> ClampBounds(KeyScalar lo, KeyScalar hi) {
  using KT = KeyTraits<T>;
  if constexpr (std::is_same_v<T, double>) {
    const double lo_d = DoubleBound(lo);
    const double hi_d = DoubleBound(hi);
    // [NaN, NaN) therefore selects exactly the rows holding the NaN key.
    if (KT::IsHighest(hi_d)) return KeyRange<T>{lo_d, std::nullopt};
    if (!KT::Less(lo_d, hi_d)) return std::nullopt;
    return KeyRange<T>{lo_d, hi_d};
  } else {
    const std::optional<T> lo_t = IntFirstAtLeast<T>(lo);
    const std::optional<T> last = IntLastBelow<T>(hi);
    if (!lo_t || !last || *lo_t > *last) return std::nullopt;
    if (KT::IsHighest(*last)) return KeyRange<T>{*lo_t, std::nullopt};
    return KeyRange<T>{*lo_t, KT::Next(*last)};
  }
}

/// Wraps a typed sum into the scalar carrier matching the column type.
template <typename T>
KeyScalar WrapSum(typename KeyTraits<T>::Sum s) {
  if constexpr (std::is_same_v<typename KeyTraits<T>::Sum, double>) {
    return KeyScalar::F64(s);
  } else {
    return KeyScalar::I64(s);
  }
}

/// Intersects two ascending rowid lists (sorted-positional merge).
PositionList SortedIntersect(const PositionList& a, const PositionList& b) {
  PositionList out;
  out.reserve(std::min(a.size(), b.size()));
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

StoreState ToStoreState(ConfigKind kind) {
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


/// What one index access answers a key range with: positions in a cracker
/// column (the pointer keeps the column alive while the answer is read),
/// positions in a sorted index, or — neither set — "scan the base column".
template <typename T>
struct Hit {
  std::shared_ptr<CrackerColumn<T>> cracker;
  std::shared_ptr<SortedIndex<T>> sorted;
  PositionRange range;
};

// ---------------------------------------------------------------------------
// Shared plumbing: validation, planning, and the one visitor that turns a
// Hit into results. Mode supplies the access path as a non-virtual member
//   template <typename T>
//   Hit<T> Access(ColumnEntry&, const KeyRange<T>&, const QueryContext&);
// ---------------------------------------------------------------------------

template <typename Mode>
class ExecutorBase : public QueryExecutor {
 public:
  explicit ExecutorBase(const EngineContext& ctx) : ctx_(ctx) {}

  /// The declarative entry point: validate, then either answer the
  /// one-predicate/one-result shape straight from its access, or plan and
  /// execute the conjunction (see query_executor.h).
  QueryResult Execute(const QuerySpec& spec, const QueryContext& qctx) override {
    if (spec.predicates.empty()) {
      throw std::invalid_argument("QuerySpec: empty conjunction");
    }
    if (spec.results.empty()) {
      throw std::invalid_argument("QuerySpec: no result requested");
    }
    const ColumnEntry& first = Entry(spec.predicates[0].column);
    for (const RangePredicate& p : spec.predicates) {
      CheckSameTable(first, Entry(p.column));
    }
    for (const ResultSpec& r : spec.results) {
      if (r.kind == ResultRequest::kSum ||
          r.kind == ResultRequest::kProjectSum) {
        if (r.column.entry() == nullptr) {
          throw std::invalid_argument("QuerySpec: sum request needs a column");
        }
        CheckSameTable(first, Entry(r.column));
      }
    }
    // Validated: everything below counts as one query in the telemetry
    // plane — per-mode counter + latency histogram, plus a trace the
    // layers below annotate (pieces created, bytes scanned, planner
    // choices) through the thread-local scope.
    obs::QueryTrace trace;
    trace.mode = static_cast<uint8_t>(ctx_.options->mode);
    trace.predicates = static_cast<uint16_t>(spec.predicates.size());
    trace.results = static_cast<uint16_t>(spec.results.size());
    obs::TraceScope scope(&trace);
    Timer timer;
    QueryResult out = ExecuteValidated(spec, qctx);
    trace.latency_seconds = timer.ElapsedSeconds();
    obs::RecordQueryDone(trace, ExecModeName(ctx_.options->mode));
    return out;
  }

 protected:
  Mode& self() { return static_cast<Mode&>(*this); }

  QueryResult ExecuteValidated(const QuerySpec& spec,
                               const QueryContext& qctx) {
    if (spec.predicates.size() == 1 && spec.results.size() == 1) {
      return ExecuteSingle(spec.predicates[0], spec.results[0], qctx);
    }
    PositionList rows;
    if (spec.predicates.size() == 1) {
      rows = PredicateRowIds(spec.predicates[0], qctx);
      std::sort(rows.begin(), rows.end());
    } else {
      rows = SelectConjunction(spec, qctx);  // already ascending
    }
    // Rows appended by Insert participate like any other row: their values
    // live in the per-column pending registry rather than the base arrays,
    // and every positional path below (probe filters, materialized sums)
    // consults that registry for rowids at or past the base row count. A
    // conjunction still excludes a single-column-inserted row naturally —
    // the row has no value in the other predicate columns, so no index or
    // registry on those columns can produce its rowid.
    return MaterializeResults(spec, std::move(rows));
  }

  /// The one type dispatch of a predicate: calls fn with its bounds clamped
  /// into the column's type (nullopt when no key of the type qualifies).
  template <typename Fn>
  static decltype(auto) WithRange(ColumnEntry& e, const RangePredicate& p,
                                  Fn&& fn) {
    return DispatchIndexableType(e.type(), [&](auto tag) -> decltype(auto) {
      using T = typename decltype(tag)::type;
      return fn(ClampBounds<T>(p.low, p.high));
    });
  }

  /// The one-predicate/one-result shape (§3.1): one access, one result.
  QueryResult ExecuteSingle(const RangePredicate& p, const ResultSpec& r,
                            const QueryContext& qctx) {
    ColumnEntry& e = Entry(p.column);
    return WithRange(e, p, [&]<typename T>(
                               const std::optional<KeyRange<T>>& range) {
      QueryResult out;
      const bool sum = r.kind == ResultRequest::kSum ||
                       r.kind == ResultRequest::kProjectSum;
      if (!range) {
        // Nothing to access: zero in the result's carrier.
        out.values.push_back(sum ? PositionalSum(Entry(r.column), [](auto&&) {})
                                 : KeyScalar::I64(0));
        return out;
      }
      const Hit<T> hit = self().Access(e, *range, qctx);
      if (sum) {
        // Summing the predicate column itself reads the hit's own values
        // (cracked modes aggregate in place, pending inserts included); any
        // other column is §3.1 late reconstruction.
        out.values.push_back(
            r.column.entry() == &e
                ? Sum(e, *range, hit)
                : ProjectedSum(Entry(r.column), e, *range, hit));
      } else if (r.kind == ResultRequest::kCount) {
        out.values.push_back(
            KeyScalar::I64(static_cast<int64_t>(Count(e, *range, hit))));
      } else {
        out.rowids = RowIds(e, *range, hit);
        out.values.push_back(
            KeyScalar::I64(static_cast<int64_t>(out.rowids.size())));
      }
      return out;
    });
  }

  /// Qualifying rowids of one predicate, in the mode's native order.
  PositionList PredicateRowIds(const RangePredicate& p,
                               const QueryContext& qctx) {
    ColumnEntry& e = Entry(p.column);
    return WithRange(e, p, [&]<typename T>(
                               const std::optional<KeyRange<T>>& range)
                               -> PositionList {
      if (!range) return {};
      return RowIds(e, *range, self().Access(e, *range, qctx));
    });
  }

  // --- The Hit visitor ----------------------------------------------------

  template <typename T>
  size_t Count(ColumnEntry& e, const KeyRange<T>& r, const Hit<T>& hit) const {
    if (hit.cracker || hit.sorted) return hit.range.size();
    const std::vector<T>& base = e.runtime<T>().base;
    return ParallelScanCount(base.data(), base.size(), r.lo, r.hi,
                             *ctx_.query_pool, ctx_.options->user_threads);
  }

  template <typename T>
  PositionList RowIds(ColumnEntry& e, const KeyRange<T>& r,
                      const Hit<T>& hit) const {
    if (hit.cracker) return hit.cracker->FetchRowIds(hit.range);
    if (hit.sorted) return hit.sorted->FetchRowIds(hit.range);
    const std::vector<T>& base = e.runtime<T>().base;
    return ParallelScanSelect(base.data(), base.size(), r.lo, r.hi,
                              *ctx_.query_pool, ctx_.options->user_threads);
  }

  /// Calls fn(value, rowid) for every qualifying row in the hit's native
  /// order: cracker order, sorted order or base order. Every sum over a hit
  /// adds in this order, so it fixes the bits of a double sum.
  template <typename T, typename Fn>
  static void ForEachRow(ColumnEntry& e, const KeyRange<T>& r,
                         const Hit<T>& hit, Fn&& fn) {
    if (hit.cracker) {
      hit.cracker->ScanRange(hit.range, fn);  // under piece read latches
    } else if (hit.sorted) {
      for (size_t i = hit.range.begin; i < hit.range.end; ++i) {
        fn(hit.sorted->ValueAt(i), hit.sorted->RowIdAt(i));
      }
    } else {
      const std::vector<T>& base = e.runtime<T>().base;
      const T* data = base.data();
      for (size_t i = 0; i < base.size(); ++i) {
        if (r.Contains(data[i])) fn(data[i], static_cast<RowId>(i));
      }
    }
  }

  /// select sum(column) over the hit. The result carrier follows the column
  /// type: int64 for integer columns, double for double columns (a sum over
  /// rows holding the NaN key is NaN).
  template <typename T>
  KeyScalar Sum(ColumnEntry& e, const KeyRange<T>& r, const Hit<T>& hit) const {
    typename KeyTraits<T>::Sum sum = 0;
    ForEachRow(e, r, hit, [&](T v, RowId) {
      sum += static_cast<typename KeyTraits<T>::Sum>(v);
    });
    return WrapSum<T>(sum);
  }

  /// select sum(project) over the hit (late reconstruction): the rowids are
  /// visited in native order without being materialized.
  template <typename T>
  KeyScalar ProjectedSum(ColumnEntry& pe, ColumnEntry& e,
                         const KeyRange<T>& r, const Hit<T>& hit) const {
    return PositionalSum(pe, [&](auto&& add) {
      ForEachRow(e, r, hit, [&](T, RowId rid) { add(rid); });
    });
  }

  /// Sums column \p pe positionally over the rowids \p for_each_rowid feeds
  /// its callback, in that order (the order fixes the bits of a double
  /// sum). Rowids past the base resolve through the pending registry, and
  /// a row never inserted into this attribute (e.g. appended on the WHERE
  /// column only) adds nothing. The carrier follows pe's type.
  template <typename ForEachRowId>
  KeyScalar PositionalSum(ColumnEntry& pe,
                          ForEachRowId&& for_each_rowid) const {
    return DispatchIndexableType(pe.type(), [&](auto tag) -> KeyScalar {
      using P = typename decltype(tag)::type;
      const std::vector<P>& proj = pe.runtime<P>().base;
      const size_t n = proj.size();
      typename KeyTraits<P>::Sum sum = 0;
      for_each_rowid([&](RowId rid) {
        P v{};
        if (rid < n) {
          v = proj[rid];
        } else if (!AppendedValueFor<P>(pe, rid, &v)) {
          return;
        }
        sum += static_cast<typename KeyTraits<P>::Sum>(v);
      });
      return WrapSum<P>(sum);
    });
  }

  // --- Entries and index structures ---------------------------------------

  /// Validates the handle and returns its entry: null handles are caller
  /// bugs, dropped entries mean the table is gone (base data freed).
  ColumnEntry& Entry(const ColumnHandle& h) const {
    ColumnEntry* e = h.entry();
    if (e == nullptr) {
      throw std::invalid_argument("query through a null column handle");
    }
    if (e->dropped.load(std::memory_order_acquire)) {
      throw std::logic_error("column was dropped: " + e->key());
    }
    return *e;
  }

  /// Value of row \p rid in \p e when the rowid lies beyond the loaded base
  /// column: appended rows (single-column Insert) keep their values in the
  /// column's pending registry, which survives Ripple merges. False when
  /// the row was never inserted into this attribute.
  template <typename T>
  static bool AppendedValueFor(ColumnEntry& e, RowId rid, T* out) {
    auto c = e.runtime<T>().cracker.load(std::memory_order_acquire);
    return c != nullptr && c->pending().AppendedValue(rid, out);
  }

  static void CheckSameTable(const ColumnEntry& a, const ColumnEntry& b) {
    if (a.table() != b.table()) {
      throw std::invalid_argument("query spans tables: " + a.key() + " vs " +
                                  b.key());
    }
  }

  template <typename T>
  std::shared_ptr<SortedIndex<T>> EnsureSorted(ColumnEntry& e) {
    auto& rt = e.runtime<T>();
    if (auto s = rt.sorted.load(std::memory_order_acquire)) return s;
    std::lock_guard<std::mutex> lk(e.build_mu);
    if (auto s = rt.sorted.load(std::memory_order_acquire)) return s;
    auto fresh = std::make_shared<SortedIndex<T>>(e.key(), rt.base,
                                                  *ctx_.query_pool);
    rt.sorted.store(fresh, std::memory_order_release);
    return fresh;
  }

  /// The sorted-index hit of \p r, building the index on first use.
  template <typename T>
  Hit<T> SortedAccess(ColumnEntry& e, const KeyRange<T>& r) {
    auto sorted = EnsureSorted<T>(e);
    const PositionRange range = sorted->SelectRange(r.lo, r.hi);
    return {nullptr, std::move(sorted), range};
  }

  // --- Multi-predicate planning ------------------------------------------

  /// A probed conjunct's estimate must exceed the candidate list by this
  /// factor before direct base probes beat a sorted-merge intersection
  /// (probing is O(|candidates|); the merge pays materialize + sort of the
  /// conjunct's own, possibly huge, qualifying set).
  static constexpr size_t kProbeFactor = 4;

  /// Picks the most selective conjunct by estimate, drives the mode's
  /// select with it, then applies the remaining conjuncts cheapest-first.
  PositionList SelectConjunction(const QuerySpec& spec,
                                 const QueryContext& qctx) {
    struct Ranked {
      const RangePredicate* pred;
      size_t est;
    };
    std::vector<Ranked> order;
    order.reserve(spec.predicates.size());
    for (const RangePredicate& p : spec.predicates) {
      order.push_back({&p, EstimatePredicate(p)});
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Ranked& a, const Ranked& b) {
                       return a.est < b.est;
                     });
    PositionList cand = PredicateRowIds(*order[0].pred, qctx);
    std::sort(cand.begin(), cand.end());
    for (size_t i = 1; i < order.size() && !cand.empty(); ++i) {
      const RangePredicate& p = *order[i].pred;
      ColumnEntry& e = Entry(p.column);
      static obs::Counter& probes = obs::MetricsRegistry::Global().GetCounter(
          "holix_planner_probe_total");
      static obs::Counter& merges = obs::MetricsRegistry::Global().GetCounter(
          "holix_planner_merge_total");
      static obs::Counter& hints = obs::MetricsRegistry::Global().GetCounter(
          "holix_planner_refine_hints_total");
      obs::QueryTrace* trace = obs::CurrentQueryTrace();
      if (order[i].est >= kProbeFactor * cand.size() && ProbeSafe(e)) {
        // Low-selectivity conjunct: probing the base value of each
        // surviving candidate is cheaper than materializing its huge
        // qualifying set. The access still runs (the refine hint), so the
        // attribute keeps converging in the adaptive modes.
        probes.Inc();
        hints.Inc();
        if (trace != nullptr) {
          ++trace->probe_filters;
          ++trace->refine_hints;
        }
        FilterByBaseProbe(e, p, &cand, qctx);
      } else {
        merges.Inc();
        if (trace != nullptr) ++trace->merge_intersects;
        PositionList other = PredicateRowIds(p, qctx);
        std::sort(other.begin(), other.end());
        cand = SortedIntersect(cand, other);
      }
    }
    return cand;
  }

  /// Cardinality estimate of one conjunct: cracker piece boundaries when
  /// an adaptive index exists, sorted-index binary search when one is
  /// built, column [min, max] rank interpolation otherwise.
  size_t EstimatePredicate(const RangePredicate& p) {
    ColumnEntry& e = Entry(p.column);
    return WithRange(e, p, [&]<typename T>(
                               const std::optional<KeyRange<T>>& range)
                               -> size_t {
      if (!range) return 0;
      auto& rt = e.runtime<T>();
      if (auto c = rt.cracker.load(std::memory_order_acquire)) {
        return c->EstimateRange(range->lo, range->hi);
      }
      if (auto s = rt.sorted.load(std::memory_order_acquire)) {
        return s->SelectRange(range->lo, range->hi).size();
      }
      const size_t n = rt.base.size();
      if (n == 0) return 0;
      EnsureDomain<T>(e);
      // Uniform interpolation over the order-preserving rank space; the
      // double arithmetic loses ulps, which is irrelevant for ordering
      // conjuncts by selectivity.
      using KT = KeyTraits<T>;
      const double rank_min = static_cast<double>(KT::ToRank(rt.domain_min));
      const double rank_max = static_cast<double>(KT::ToRank(rt.domain_max));
      const double span = rank_max - rank_min + 1.0;
      const double lo_r =
          std::max(static_cast<double>(KT::ToRank(range->lo)), rank_min);
      const double hi_r =
          range->hi ? std::min(static_cast<double>(KT::ToRank(*range->hi)),
                               rank_max + 1.0)
                    : rank_max + 1.0;
      if (hi_r <= lo_r) return 0;
      const double est = static_cast<double>(n) * (hi_r - lo_r) / span;
      return est >= static_cast<double>(n) ? n : static_cast<size_t>(est);
    });
  }

  /// Caches the base column's [min, max] on first use (selectivity
  /// interpolation for not-yet-indexed attributes).
  template <typename T>
  void EnsureDomain(ColumnEntry& e) {
    auto& rt = e.runtime<T>();
    if (rt.domain_ready.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lk(e.build_mu);
    if (rt.domain_ready.load(std::memory_order_relaxed)) return;
    const std::vector<T>& v = rt.base;
    T mn{}, mx{};
    if (!v.empty()) {
      auto [mn_it, mx_it] = std::minmax_element(
          v.begin(), v.end(),
          [](T a, T b) { return KeyTraits<T>::Less(a, b); });
      mn = KeyTraits<T>::Canonical(*mn_it);
      mx = KeyTraits<T>::Canonical(*mx_it);
    }
    rt.domain_min = mn;
    rt.domain_max = mx;
    rt.domain_ready.store(true, std::memory_order_release);
  }

  /// Base-column probes answer a conjunct correctly only while the base
  /// array is the truth for every live row: a delete (pending or already
  /// Ripple-merged) removes the row from the adaptive index but not from
  /// the base, so deleted-from columns must take the merge path.
  bool ProbeSafe(ColumnEntry& e) {
    return DispatchIndexableType(e.type(), [&](auto tag) -> bool {
      using T = typename decltype(tag)::type;
      auto c = e.runtime<T>().cracker.load(std::memory_order_acquire);
      if (c == nullptr) return true;  // updates always build a cracker first
      return c->stats().merged_deletes.load(std::memory_order_relaxed) == 0 &&
             c->pending().PendingDeletes() == 0;
    });
  }

  /// Drops every candidate whose value in this attribute misses the
  /// predicate. The conjunct's access still runs and its hit is discarded:
  /// that is the refine hint, which cracks the attribute at the query
  /// bounds (or advances the online window) so repeated multi-predicate
  /// queries converge on every predicate column. Rowids beyond the base
  /// column (rows appended by Insert) resolve through the pending registry
  /// — a row inserted into this attribute qualifies on its inserted value,
  /// matching the merge path, which finds it through the column's adaptive
  /// index; a row never inserted here has no value and is dropped.
  void FilterByBaseProbe(ColumnEntry& e, const RangePredicate& p,
                         PositionList* cand, const QueryContext& qctx) {
    WithRange(e, p, [&]<typename T>(const std::optional<KeyRange<T>>& range) {
      if (!range) {
        cand->clear();
        return;
      }
      self().Access(e, *range, qctx);
      const std::vector<T>& base = e.runtime<T>().base;
      const T* data = base.data();
      const size_t n = base.size();
      size_t keep = 0;
      for (RowId rid : *cand) {
        T v{};
        if (rid < n) {
          v = data[rid];
        } else if (!AppendedValueFor<T>(e, rid, &v)) {
          continue;
        }
        if (range->Contains(v)) (*cand)[keep++] = rid;
      }
      cand->resize(keep);
    });
  }

  /// Computes every requested result from the (ascending) qualifying row
  /// set: one shared pass per aggregate, positionally through the base
  /// column, so sums are bit-identical across modes and predicate orders.
  /// Takes the row list by value: it is the terminal consumer, so a
  /// requested kRowIds result moves it into the answer instead of copying
  /// a possibly multi-million-entry list.
  QueryResult MaterializeResults(const QuerySpec& spec, PositionList rows) {
    QueryResult out;
    out.values.reserve(spec.results.size());
    bool want_rowids = false;
    for (const ResultSpec& r : spec.results) {
      switch (r.kind) {
        case ResultRequest::kCount:
          out.values.push_back(
              KeyScalar::I64(static_cast<int64_t>(rows.size())));
          break;
        case ResultRequest::kRowIds:
          want_rowids = true;
          out.values.push_back(
              KeyScalar::I64(static_cast<int64_t>(rows.size())));
          break;
        case ResultRequest::kSum:
        case ResultRequest::kProjectSum:
          out.values.push_back(PositionalSum(Entry(r.column), [&](auto&& add) {
            for (RowId rid : rows) add(rid);
          }));
          break;
      }
    }
    if (want_rowids) out.rowids = std::move(rows);
    return out;
  }

  EngineContext ctx_;
};

// ---------------------------------------------------------------------------
// kScan — parallel full scans (MonetDB's plain select)
// ---------------------------------------------------------------------------

class ScanExecutor final : public ExecutorBase<ScanExecutor> {
 public:
  using ExecutorBase::ExecutorBase;

  template <typename T>
  Hit<T> Access(ColumnEntry&, const KeyRange<T>&, const QueryContext&) {
    return {};  // scan the base
  }
};

// ---------------------------------------------------------------------------
// kOffline — all columns pre-sorted; cost charged to the first query
// ---------------------------------------------------------------------------

class OfflineExecutor final : public ExecutorBase<OfflineExecutor> {
 public:
  using ExecutorBase::ExecutorBase;

  /// Sorts every registered attribute (offline indexing's investment).
  void Prepare() override {
    prepared_.store(true, std::memory_order_release);
    ctx_.registry->ForEach([this](ColumnEntry& e) {
      DispatchIndexableType(e.type(), [&](auto tag) {
        using T = typename decltype(tag)::type;
        EnsureSorted<T>(e);
      });
    });
  }

  template <typename T>
  Hit<T> Access(ColumnEntry& e, const KeyRange<T>& r, const QueryContext&) {
    if (!prepared_.load(std::memory_order_acquire)) Prepare();
    return SortedAccess(e, r);
  }

 private:
  std::atomic<bool> prepared_{false};
};

// ---------------------------------------------------------------------------
// kOnline — scans during an observation window, then sort (COLT-style)
// ---------------------------------------------------------------------------

class OnlineExecutor final : public ExecutorBase<OnlineExecutor> {
 public:
  using ExecutorBase::ExecutorBase;

  /// Every access of any result shape is one observed query on its column;
  /// once that column's window closes, its accesses use its sorted index.
  template <typename T>
  Hit<T> Access(ColumnEntry& e, const KeyRange<T>& r, const QueryContext&) {
    if (e.online_observed.fetch_add(1, std::memory_order_relaxed) <
        ctx_.options->online_observation_window) {
      return {};  // scan the base
    }
    return SortedAccess(e, r);
  }
};

// ---------------------------------------------------------------------------
// kAdaptive — parallel vectorized database cracking (PVDC), and the base of
// the other cracking strategies
// ---------------------------------------------------------------------------

class CrackingExecutor : public ExecutorBase<CrackingExecutor> {
 public:
  using ExecutorBase::ExecutorBase;

  RowId Insert(const ColumnHandle& h, KeyScalar value,
               const QueryContext& qctx) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> RowId {
      using T = typename decltype(tag)::type;
      T v{};
      if (!KeyFromScalar<T>(value, &v)) {
        throw std::out_of_range("insert value out of column domain: " +
                                e.key());
      }
      auto cracker = EnsureCracker<T>(e, qctx);
      // Claim the next rowid unless it would leave the cracker's 32-bit
      // lane; the claim never advances past the limit.
      RowId rid = ctx_.next_rowid->load(std::memory_order_relaxed);
      do {
        if (rid >= kRowIdLimit) {
          throw std::length_error("insert into " + e.key() +
                                  ": rowids are exhausted (limit 2^32)");
        }
      } while (!ctx_.next_rowid->compare_exchange_weak(
          rid, rid + 1, std::memory_order_relaxed));
      cracker->pending().AddInsert(v, rid);
      return rid;
    });
  }

  bool Delete(const ColumnHandle& h, KeyScalar value, const QueryContext& qctx,
              RowId* deleted_rid) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> bool {
      using T = typename decltype(tag)::type;
      using KT = KeyTraits<T>;
      T v{};
      if (!KeyFromScalar<T>(value, &v)) return false;
      auto cracker = EnsureCracker<T>(e, qctx);
      const CrackConfig cfg = QueryCrackConfig(qctx);
      // The unit range of v (the closed tail when v is the order's top, so
      // the type's maximum key stays deletable).
      const std::optional<T> next =
          KT::IsHighest(v) ? std::nullopt : std::optional<T>(KT::Next(v));
      // Resolve the rowid of one matching row: select the unit range (this
      // is itself an index-refining access) and take the first qualifying
      // rowid. A concurrent Ripple merge (holistic worker) may shift
      // positions between the select and the read, so verify and retry.
      for (int attempt = 0; attempt < 8; ++attempt) {
        const PositionRange r = cracker->SelectRange(v, next, cfg);
        if (r.empty()) return false;
        bool found = false;
        RowId rid = 0;
        cracker->ScanRange({r.begin, r.begin + 1}, [&](T val, RowId rr) {
          if (KT::Eq(val, v)) {
            rid = rr;
            found = true;
          }
        });
        if (found) {
          cracker->pending().AddDelete(v, rid);
          if (deleted_rid != nullptr) *deleted_rid = rid;
          return true;
        }
      }
      return false;
    });
  }

  /// Cracks the column's adaptive index at the range bounds (building the
  /// index on first access) and answers with the qualifying positions.
  template <typename T>
  Hit<T> Access(ColumnEntry& e, const KeyRange<T>& r,
                const QueryContext& qctx) {
    auto cracker = EnsureCracker<T>(e, qctx);
    const PositionRange range =
        cracker->SelectRange(r.lo, r.hi, QueryCrackConfig(qctx));
    AfterSelect(e);
    return {std::move(cracker), nullptr, range};
  }

 protected:
  /// The crack configuration of one select; overridden by kStochastic.
  virtual CrackConfig QueryCrackConfig(const QueryContext&) const {
    CrackConfig cfg;
    cfg.algo = ctx_.options->kernel;
    cfg.pool = ctx_.query_pool;
    cfg.parallel_threads = ctx_.options->user_threads;
    return cfg;
  }

  /// Runs after a fresh cracker column is published (under the entry's
  /// build_mu): kCCGI pre-partitions, kHolistic registers with the store.
  virtual void OnCrackerInstalled(ColumnEntry&, const QueryContext&) {}

  /// Runs after every cracked select (kHolistic syncs the stats store).
  virtual void AfterSelect(ColumnEntry&) {}

  template <typename T>
  std::shared_ptr<CrackerColumn<T>> EnsureCracker(ColumnEntry& e,
                                                  const QueryContext& qctx) {
    auto& rt = e.runtime<T>();
    if (auto c = rt.cracker.load(std::memory_order_acquire)) return c;
    std::lock_guard<std::mutex> lk(e.build_mu);
    if (auto c = rt.cracker.load(std::memory_order_acquire)) return c;
    // This copy is the investment the first query on an attribute pays in
    // adaptive indexing. Per-entry mutex: other attributes stay queryable.
    auto fresh = std::make_shared<CrackerColumn<T>>(e.key(), rt.base);
    rt.cracker.store(fresh, std::memory_order_release);
    OnCrackerInstalled(e, qctx);
    return fresh;
  }
};

// ---------------------------------------------------------------------------
// kStochastic — PVDC plus data-driven random pre-cracks (PVSDC)
// ---------------------------------------------------------------------------

class StochasticExecutor : public CrackingExecutor {
 public:
  using CrackingExecutor::CrackingExecutor;

 protected:
  CrackConfig QueryCrackConfig(const QueryContext& qctx) const override {
    CrackConfig cfg = CrackingExecutor::QueryCrackConfig(qctx);
    cfg.stochastic = true;
    cfg.rng = qctx.rng != nullptr ? qctx.rng
                                  : &ThreadLocalQueryRng(ctx_.options->seed);
    return cfg;
  }
};

// ---------------------------------------------------------------------------
// kCCGI — modified parallel chunked coarse-granular index
// ---------------------------------------------------------------------------

class CcgiExecutor : public CrackingExecutor {
 public:
  using CrackingExecutor::CrackingExecutor;

 protected:
  void OnCrackerInstalled(ColumnEntry& e, const QueryContext& qctx) override {
    const size_t chunks = ctx_.options->ccgi_chunks != 0
                              ? ctx_.options->ccgi_chunks
                              : ctx_.options->user_threads;
    DispatchIndexableType(e.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      auto cracker = e.runtime<T>().cracker.load(std::memory_order_acquire);
      PreCrackEquiWidth(*cracker, chunks, QueryCrackConfig(qctx));
    });
  }
};

// ---------------------------------------------------------------------------
// kHolistic — PVDC for user queries + always-on holistic refinement
// ---------------------------------------------------------------------------

class HolisticExecutor : public CrackingExecutor {
 public:
  using CrackingExecutor::CrackingExecutor;

  void SeedPotential(const ColumnHandle& h) override {
    ColumnEntry& e = Entry(h);
    if (e.store_state.load(std::memory_order_acquire) !=
        StoreState::kUnregistered) {
      return;  // already known to the store
    }
    DispatchIndexableType(e.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      std::lock_guard<std::mutex> lk(e.build_mu);
      auto& rt = e.runtime<T>();
      auto cracker = rt.cracker.load(std::memory_order_acquire);
      if (cracker == nullptr) {
        cracker =
            std::make_shared<CrackerColumn<T>>(e.key(), rt.base);
        rt.cracker.store(cracker, std::memory_order_release);
      }
      auto adapter =
          std::make_shared<CrackerAdaptiveIndex<T>>(std::move(cracker));
      RegisterWithStore(e, std::move(adapter), ConfigKind::kPotential);
    });
  }

 protected:
  void OnCrackerInstalled(ColumnEntry& e, const QueryContext&) override {
    DispatchIndexableType(e.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      auto cracker = e.runtime<T>().cracker.load(std::memory_order_acquire);
      auto adapter =
          std::make_shared<CrackerAdaptiveIndex<T>>(std::move(cracker));
      RegisterWithStore(e, std::move(adapter), ConfigKind::kActual);
    });
  }

  /// The per-query stats-store sync, restructured so the common case is
  /// lock-free: configuration transitions (promotion, retirement) happen a
  /// bounded number of times per index, and weight refreshes for the
  /// access-counting strategies are amortized over kWeightRefreshPeriod
  /// queries. The access counters themselves live in CrackStats and are
  /// bumped atomically inside the cracker column, so LFU eviction and the
  /// W2/W3 weight formulas keep exact counts.
  void AfterSelect(ColumnEntry& e) override {
    StatsStore& store = ctx_.holistic->store();
    switch (e.store_state.load(std::memory_order_acquire)) {
      case StoreState::kOptimal:
      case StoreState::kUnregistered:
        return;
      case StoreState::kPotential: {
        // First user query on a seeded index: promote into C_actual. A
        // concurrent budget eviction may remove the entry between these
        // calls; TryKindOf treats that as unregistered instead of throwing.
        store.RecordQueryAccess(e.key());
        const auto kind = store.TryKindOf(e.key());
        e.store_state.store(
            kind.has_value() ? ToStoreState(*kind) : StoreState::kUnregistered,
            std::memory_order_release);
        return;
      }
      case StoreState::kActual:
        break;
    }
    const auto adapter = e.adapter.load(std::memory_order_acquire);
    if (adapter == nullptr) return;
    if (adapter->IsOptimal()) {
      if (store.UpdateAfterRefinement(e.key())) {  // retires into C_optimal
        static obs::Counter& retirements =
            obs::MetricsRegistry::Global().GetCounter(
                "holix_holistic_retirements_total");
        retirements.Inc();
      }
      e.store_state.store(StoreState::kOptimal, std::memory_order_release);
      return;
    }
    if (store.strategy() != Strategy::kW4 &&
        e.access_tick.fetch_add(1, std::memory_order_relaxed) %
                kWeightRefreshPeriod ==
            0) {
      store.RecordQueryAccess(e.key());
    }
  }

 private:
  static constexpr uint32_t kWeightRefreshPeriod = 64;

  void RegisterWithStore(ColumnEntry& e,
                         std::shared_ptr<AdaptiveIndex> adapter,
                         ConfigKind kind) {
    e.adapter.store(adapter, std::memory_order_release);
    std::vector<std::string> evicted;
    const bool ok =
        ctx_.holistic->store().Register(std::move(adapter), kind, &evicted);
    e.store_state.store(ok ? ToStoreState(kind) : StoreState::kUnregistered,
                        std::memory_order_release);
    // Budget evictions drop the victims' cracker columns; the store
    // already forgot them, so their next access rebuilds and re-registers.
    for (const auto& name : evicted) {
      ColumnHandle victim = ctx_.registry->FindByKey(name);
      if (victim.entry() != nullptr) victim.entry()->ResetIndexRuntime();
    }
  }
};

}  // namespace

RowId QueryExecutor::Insert(const ColumnHandle&, KeyScalar,
                            const QueryContext&) {
  throw std::logic_error("updates require a cracking mode");
}

bool QueryExecutor::Delete(const ColumnHandle&, KeyScalar,
                           const QueryContext&, RowId*) {
  throw std::logic_error("updates require a cracking mode");
}

void QueryExecutor::SeedPotential(const ColumnHandle&) {
  throw std::logic_error("potential indices require kHolistic mode");
}

std::unique_ptr<QueryExecutor> MakeQueryExecutor(ExecMode mode,
                                                 const EngineContext& ctx) {
  switch (mode) {
    case ExecMode::kScan:
      return std::make_unique<ScanExecutor>(ctx);
    case ExecMode::kOffline:
      return std::make_unique<OfflineExecutor>(ctx);
    case ExecMode::kOnline:
      return std::make_unique<OnlineExecutor>(ctx);
    case ExecMode::kAdaptive:
      return std::make_unique<CrackingExecutor>(ctx);
    case ExecMode::kStochastic:
      return std::make_unique<StochasticExecutor>(ctx);
    case ExecMode::kCCGI:
      return std::make_unique<CcgiExecutor>(ctx);
    case ExecMode::kHolistic:
      return std::make_unique<HolisticExecutor>(ctx);
  }
  throw std::invalid_argument("unknown ExecMode");
}

}  // namespace holix

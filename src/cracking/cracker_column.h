/// \file cracker_column.h
/// \brief The adaptive index: a cracker column plus its cracker index
/// (§3.2), with piece-level concurrency control (§4.2, Figure 3), Ripple
/// update merging [28], and optional payload alignment in the spirit of
/// partial sideways cracking [29].
///
/// Latch ordering (outermost first):
///   1. column latch   — read for cracks/scans, write for Ripple merges
///                       (merges shift positions of many pieces at once);
///   2. piece latch    — write to reorganize one piece, read to scan it;
///   3. tree mutex     — shared to look up pieces, unique to add boundaries.
/// A thread never acquires a piece latch while holding the tree mutex, so
/// boundary inserts (piece latch -> unique tree) cannot deadlock against
/// lookups (shared tree only).

#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cracking/crack_config.h"
#include "cracking/crack_kernels.h"
#include "cracking/crack_kernels_simd.h"
#include "cracking/cracker_index.h"
#include "cracking/multiway_partition.h"
#include "cracking/parallel_crack.h"
#include "obs/metrics.h"
#include "storage/pending_updates.h"
#include "storage/position_list.h"
#include "storage/types.h"

namespace holix {

/// Monotonic counters describing the life of one adaptive index. All fields
/// are safe to read concurrently; they feed the holistic statistics store.
struct CrackStats {
  std::atomic<uint64_t> accesses{0};       ///< User-query selects (f_I).
  std::atomic<uint64_t> exact_hits{0};     ///< Selects with both bounds present (f_Ih).
  std::atomic<uint64_t> query_cracks{0};   ///< Piece splits caused by queries.
  std::atomic<uint64_t> worker_cracks{0};  ///< Piece splits caused by workers.
  std::atomic<uint64_t> worker_skips{0};   ///< Worker try-latch failures (Fig. 3d).
  std::atomic<uint64_t> merged_inserts{0}; ///< Pending inserts merged.
  std::atomic<uint64_t> merged_deletes{0}; ///< Pending deletes merged.
};

/// An adaptive (cracked) index over one attribute.
///
/// The column stores (value, rowid) pairs which cracking physically
/// reorganizes; an optional set of aligned payload columns is co-moved by
/// the scalar kernels (sideways-style cracking, used by the TPC-H module).
/// Rowids are held in the 32-bit lane (CrackRowId): they narrow on the way
/// in (construction, Ripple inserts, RestorePieces) and widen back to
/// RowId on the way out (ScanRange, FetchRowIds, RowIdAtUnsafe).
template <typename T>
class CrackerColumn {
 public:
  /// Bytes one cracked row occupies and a crack or scan moves: the key
  /// plus its lane rowid.
  static constexpr size_t kRowBytes = sizeof(T) + sizeof(CrackRowId);

  /// Builds the cracker column as a copy of \p base with rowids 0..N-1.
  /// This is the copy the first query pays for in adaptive indexing.
  /// Throws std::length_error for kRowIdLimit rows or more.
  CrackerColumn(std::string name, const std::vector<T>& base)
      : name_(std::move(name)), values_(base) {
    if (values_.size() >= kRowIdLimit) {
      throw std::length_error("cracker column of " +
                              std::to_string(values_.size()) +
                              " rows exceeds the 32-bit rowid lane");
    }
    rowids_.resize(values_.size());
    for (size_t i = 0; i < rowids_.size(); ++i) rowids_[i] = ToCrackRowId(i);
    InitDomain();
  }

  /// Builds from explicit (value, rowid) vectors (tuple order preserved).
  /// Throws std::out_of_range for a rowid at or above kRowIdLimit.
  CrackerColumn(std::string name, std::vector<T> values,
                const std::vector<RowId>& rowids)
      : name_(std::move(name)), values_(std::move(values)) {
    if (values_.size() != rowids.size()) {
      throw std::invalid_argument("values/rowids length mismatch");
    }
    rowids_.reserve(rowids.size());
    for (const RowId r : rowids) {
      if (r >= kRowIdLimit) {
        throw std::out_of_range("rowid " + std::to_string(r) +
                                " exceeds the 32-bit rowid lane");
      }
      rowids_.push_back(ToCrackRowId(r));
    }
    InitDomain();
  }

  CrackerColumn(const CrackerColumn&) = delete;
  CrackerColumn& operator=(const CrackerColumn&) = delete;

  /// Attribute name this index covers.
  const std::string& name() const { return name_; }

  /// Number of rows. Lock-free snapshot: Ripple merges grow/shrink the
  /// column under the exclusive latch, so unlatched readers (statistics,
  /// Equation-1 distance) need this mirror rather than values_.size().
  size_t size() const { return row_count_.load(std::memory_order_relaxed); }

  /// Number of pieces (boundaries + 1). Lock-free snapshot.
  size_t NumPieces() const {
    return num_boundaries_.load(std::memory_order_relaxed) + 1;
  }

  /// Smallest base value (meaningful only when size() > 0). Lock-free
  /// snapshot: Ripple merges widen the domain under the exclusive latch
  /// while holistic workers read it unlatched.
  T MinValue() const { return min_value_.load(std::memory_order_relaxed); }
  /// Largest base value. Lock-free snapshot.
  T MaxValue() const { return max_value_.load(std::memory_order_relaxed); }

  /// Mutable counters (updated by operations, read by holistic indexing).
  CrackStats& stats() { return stats_; }
  /// Read-only counters.
  const CrackStats& stats() const { return stats_; }

  /// Pending-update queues of this attribute.
  PendingUpdates<T>& pending() { return pending_; }

  /// Attaches an aligned payload column (sideways cracking): payload row i
  /// moves together with value row i from now on. Only allowed before any
  /// cracking has happened; scalar kernels are then used for all cracks.
  void AttachPayload(std::vector<int64_t> payload) {
    if (payload.size() != values_.size()) {
      throw std::invalid_argument("payload length mismatch");
    }
    if (NumPieces() != 1) {
      throw std::logic_error("AttachPayload requires an uncracked column");
    }
    payloads_.push_back(std::move(payload));
  }

  /// Number of aligned payload columns.
  size_t NumPayloads() const { return payloads_.size(); }

  // ---------------------------------------------------------------------
  // Select path (user queries)
  // ---------------------------------------------------------------------

  /// Range select: returns the contiguous positions whose values lie in
  /// [low, high), or in the closed tail [low, Highest()] when \p high is
  /// missing (KeyRange) — the form that reaches max(T) or the double NaN
  /// key. Cracks at each given bound as a side effect (the tail has no
  /// high crack: its rows run to the end of the column); merges pending
  /// updates overlapping the range first (Ripple, [28]).
  PositionRange SelectRange(T low, std::optional<T> high,
                            const CrackConfig& cfg = {}) {
    stats_.accesses.fetch_add(1, std::memory_order_relaxed);
    if (high && !KeyTraits<T>::Less(low, *high)) return {0, 0};
    // Merge before the emptiness check: a column loaded empty can still
    // have pending inserts in range, and they must become visible here.
    MergePendingInRange(low, high);
    if (size() == 0) return {0, 0};

    ReadGuard column_guard(column_latch_);
    // Exact hit: both bounds already are boundaries -> no reorganization.
    {
      std::shared_lock<std::shared_mutex> lk(tree_mu_);
      if (index_.HasBoundary(low) && (!high || index_.HasBoundary(*high))) {
        const size_t b = index_.FindPiece(low, size()).begin;
        const size_t e = high ? index_.FindPiece(*high, size()).begin : size();
        stats_.exact_hits.fetch_add(1, std::memory_order_relaxed);
        return {b, e};
      }
    }
    if (!high) return {CrackAtBlocking(low, cfg), size()};
    // Fast path: both bounds inside the same piece -> crack-in-three.
    if (auto range = TryCrackInThree(low, *high, cfg)) return *range;
    const size_t b = CrackAtBlocking(low, cfg);
    const size_t e = CrackAtBlocking(*high, cfg);
    return {b, e};
  }

  /// Cracks at a single bound (blocking); returns the first position whose
  /// value is >= w. Exposed for operators that need one-sided predicates.
  size_t CrackAtBlocking(T w, const CrackConfig& cfg = {}) {
    for (;;) {
      PieceRef<T> piece = LookupPiece(w);
      if (piece.exact) return piece.begin;
      piece.latch->LockWrite();
      PieceRef<T> cur = LookupPiece(w);
      if (cur.exact) {
        piece.latch->UnlockWrite();
        return cur.begin;
      }
      if (cur.latch != piece.latch) {
        piece.latch->UnlockWrite();
        continue;  // the piece was split under us; retry on the new piece
      }
      // Stochastic cracking: impose extra order inside big target pieces
      // with data-driven random pivots before the query-bound crack.
      while (cfg.stochastic && cfg.rng != nullptr &&
             cur.size() > cfg.stochastic_min_piece) {
        const size_t probe =
            cur.begin + cfg.rng->Below(std::max<size_t>(1, cur.size()));
        const T rnd_pivot = values_[probe];
        const bool degenerate =
            !KeyTraits<T>::Less(cur.lo_value.value_or(KeyTraits<T>::Lowest()),
                                rnd_pivot) ||
            KeyTraits<T>::Eq(rnd_pivot, w);
        if (degenerate) break;  // no order to impose
        const size_t cut = Partition(cur.begin, cur.end, rnd_pivot, cfg);
        InsertBoundary(rnd_pivot, cut);
        stats_.query_cracks.fetch_add(1, std::memory_order_relaxed);
        if (KeyTraits<T>::Less(w, rnd_pivot)) {
          cur.end = cut;
          cur.hi_value = rnd_pivot;
        } else if (KeyTraits<T>::Less(rnd_pivot, w)) {
          // Piece latch of [cut, end) is the new boundary's latch; we must
          // switch latches: release ours, retry from the top.
          piece.latch->UnlockWrite();
          goto retry;
        } else {
          piece.latch->UnlockWrite();
          return cut;
        }
      }
      {
        const size_t cut = Partition(cur.begin, cur.end, w, cfg);
        InsertBoundary(w, cut);
        stats_.query_cracks.fetch_add(1, std::memory_order_relaxed);
        piece.latch->UnlockWrite();
        return cut;
      }
    retry:;
    }
  }

  // ---------------------------------------------------------------------
  // Holistic refinement path (worker threads)
  // ---------------------------------------------------------------------

  /// One holistic refinement step: crack the piece containing \p pivot.
  /// Never blocks on a piece latch — if the piece is busy the caller picks
  /// another pivot (Figure 3). Also merges pending updates overlapping the
  /// piece, so workers bring the index up to date as a side effect (§4.2).
  /// \return true when a crack happened.
  bool TryRefineAt(T pivot, const CrackConfig& cfg = {}) {
    {
      ReadGuard column_guard(column_latch_);
      PieceRef<T> piece = LookupPiece(pivot);
      if (piece.exact) return false;
      if (!piece.latch->TryLockWrite()) {
        stats_.worker_skips.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter& latch_failures =
            obs::MetricsRegistry::Global().GetCounter(
                "holix_latch_failures_total");
        latch_failures.Inc();
        return false;
      }
      PieceRef<T> cur = LookupPiece(pivot);
      if (cur.exact || cur.latch != piece.latch) {
        piece.latch->UnlockWrite();
        return false;
      }
      const size_t cut = Partition(cur.begin, cur.end, pivot, cfg);
      InsertBoundary(pivot, cut);
      stats_.worker_cracks.fetch_add(1, std::memory_order_relaxed);
      piece.latch->UnlockWrite();
    }
    // Merge any pending updates that the refined pieces cover; uses the
    // column write latch, so it happens outside the read-guarded section.
    MergePendingAround(pivot);
    return true;
  }

  // ---------------------------------------------------------------------
  // Result consumption
  // ---------------------------------------------------------------------

  /// Applies fn(value, rowid) to every row in \p range, taking piece read
  /// latches so concurrent cracks of the same pieces cannot tear rows.
  template <typename Fn>
  void ScanRange(PositionRange range, Fn&& fn) const {
    if (range.begin < range.end) {
      const uint64_t nbytes = static_cast<uint64_t>(range.size()) * kRowBytes;
      static obs::Counter& scan_bytes =
          obs::MetricsRegistry::Global().GetCounter("holix_scan_bytes_total");
      scan_bytes.Inc(nbytes);
      obs::TraceAddBytesScanned(nbytes);
    }
    ReadGuard column_guard(column_latch_);
    size_t pos = range.begin;
    while (pos < range.end) {
      PieceRef<T> piece;
      {
        std::shared_lock<std::shared_mutex> lk(tree_mu_);
        piece = index_.FindPieceByPosition(pos, size());
      }
      piece.latch->LockRead();
      // Revalidate: the piece may have been split between lookup and latch
      // acquisition, in which case positions past the new cut belong to a
      // different latch and must not be read under this one.
      PieceRef<T> cur;
      {
        std::shared_lock<std::shared_mutex> lk(tree_mu_);
        cur = index_.FindPieceByPosition(pos, size());
      }
      if (cur.latch != piece.latch) {
        piece.latch->UnlockRead();
        continue;
      }
      const size_t stop = std::min(range.end, cur.end);
      for (size_t i = pos; i < stop; ++i) {
        fn(values_[i], static_cast<RowId>(rowids_[i]));
      }
      piece.latch->UnlockRead();
      pos = stop;
    }
  }

  /// Materializes the rowids in \p range (tuple reconstruction input).
  PositionList FetchRowIds(PositionRange range) const {
    PositionList out;
    out.reserve(range.size());
    ScanRange(range, [&](T, RowId r) { out.push_back(r); });
    return out;
  }

  /// Unsynchronized value access. Callers must guarantee quiescence (tests,
  /// single-threaded tools); concurrent cracks may reorder rows under you.
  T ValueAtUnsafe(size_t pos) const { return values_[pos]; }
  /// Unsynchronized rowid access (same caveat as ValueAtUnsafe).
  RowId RowIdAtUnsafe(size_t pos) const { return rowids_[pos]; }
  /// Unsynchronized payload access (same caveat as ValueAtUnsafe).
  int64_t PayloadAtUnsafe(size_t payload_idx, size_t pos) const {
    return payloads_[payload_idx][pos];
  }

  // ---------------------------------------------------------------------
  // Updates (Ripple, [28])
  // ---------------------------------------------------------------------

  /// Merges every pending insert/delete whose value lies in [low, high) —
  /// or in [low, Highest()] when \p high is missing — into the cracker
  /// column without invalidating any boundary.
  void MergePendingInRange(T low, std::optional<T> high) {
    // Cheap peek outside the column latch: long-lived out-of-range
    // entries must not force every select onto the exclusive path.
    if (!pending_.AnyInRange(low, high)) return;
    // Take the exclusive column latch BEFORE draining the queues. Items
    // must never sit outside both the queue and the column while readers
    // can run: a concurrent query would see empty queues, early-return
    // here, and count without the in-flight rows (lost-update window).
    WriteGuard column_guard(column_latch_);
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    ApplyTakenLocked(pending_.TakeInsertsInRange(low, high),
                     pending_.TakeDeletesInRange(low, high));
  }

  /// Warm-restore primitive: rebuilds a column that has no boundaries
  /// directly in the pieces of \p pivots (strictly ascending under the
  /// KeyTraits order), in one histogram pass and one scatter pass
  /// (MultiwayPartition, O(N log P)), then inserts the P boundaries at the
  /// prefix-sum positions. The input rows are \p base (row i carries rowid
  /// i), then the column's own rows, then every pending insert. Every
  /// pending delete then removes one input row with the same (value,
  /// rowid); a delete of an absent row is ignored. That is the Ripple
  /// merge's outcome, applied in bulk. The domain is recomputed over all
  /// input rows, deleted ones included, since Ripple merges never shrink
  /// it. Rows keep their input order inside a piece, so the layout is the
  /// same whether or not \p pool lends threads.
  /// Throws std::invalid_argument on unsorted pivots and std::logic_error
  /// on a column with boundaries or aligned payloads.
  void RestorePieces(const std::vector<T>& pivots, std::span<const T> base = {},
                     ThreadPool* pool = nullptr) {
    for (size_t i = 1; i < pivots.size(); ++i) {
      if (!KeyTraits<T>::Less(pivots[i - 1], pivots[i])) {
        throw std::invalid_argument("RestorePieces: pivots not ascending");
      }
    }
    WriteGuard column_guard(column_latch_);
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    if (index_.num_boundaries() != 0 || !payloads_.empty()) {
      throw std::logic_error(
          "RestorePieces requires a column without boundaries or payloads");
    }
    const auto ins =
        pending_.TakeInsertsInRange(KeyTraits<T>::Lowest(), std::nullopt);
    const auto del =
        pending_.TakeDeletesInRange(KeyTraits<T>::Lowest(), std::nullopt);
    std::vector<T> ins_values(ins.size());
    std::vector<CrackRowId> ins_rowids(ins.size());
    for (size_t i = 0; i < ins.size(); ++i) {
      ins_values[i] = ins[i].first;
      ins_rowids[i] = ToCrackRowId(ins[i].second);
    }
    const std::vector<RowRun<T>> runs = {
        {base.data(), nullptr, base.size()},
        {values_.data(), rowids_.data(), values_.size()},
        {ins_values.data(), ins_rowids.data(), ins_values.size()}};
    const size_t rows = base.size() + values_.size() + ins.size();
    const std::vector<size_t> dead = ResolveDeletes(runs, del);

    std::vector<T> values(rows - dead.size());
    std::vector<CrackRowId> rowids(values.size());
    const MultiwayPartitionResult<T> part = MultiwayPartition(
        runs, dead, pivots, values.data(), rowids.data(), pool);
    values_ = std::move(values);
    rowids_ = std::move(rowids);
    row_count_.store(values_.size(), std::memory_order_relaxed);
    if (rows != 0) {
      min_value_.store(KeyTraits<T>::Canonical(part.min_value),
                       std::memory_order_relaxed);
      max_value_.store(KeyTraits<T>::Canonical(part.max_value),
                       std::memory_order_relaxed);
    }
    for (size_t b = 0; b < pivots.size(); ++b) {
      index_.Insert(pivots[b], part.cuts[b]);
    }
    num_boundaries_.store(index_.num_boundaries(), std::memory_order_relaxed);
    CountPiecesCreated(static_cast<uint32_t>(pivots.size()));
    CountMerged(ins.size(), del.size());
  }

  /// Piece-resolution cardinality estimate for [low, high) — or the closed
  /// tail when \p high is missing — used by the multi-predicate planner
  /// to order conjuncts by selectivity. Never cracks and never merges
  /// pending updates: it reads the existing boundary tree only, returning
  /// the span from the start of the piece containing \p low to the end of
  /// the piece containing \p high (an upper bound that tightens as the
  /// index refines; exact once both bounds are boundaries).
  size_t EstimateRange(T low, std::optional<T> high) const {
    ReadGuard column_guard(column_latch_);
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    const size_t n = size();
    if (n == 0) return 0;
    const size_t begin = index_.FindPiece(low, n).begin;
    size_t end = n;  // the closed tail runs to the end of the column
    if (high) {
      const PieceRef<T> hi_piece = index_.FindPiece(*high, n);
      // An exact boundary at the exclusive high makes the estimate exact
      // on that side.
      end = hi_piece.exact ? hi_piece.begin : hi_piece.end;
    }
    return end > begin ? end - begin : 0;
  }

  /// Suggests a refinement pivot inside the biggest (or smallest) piece.
  /// This is the O(#pieces) bookkeeping scan the paper's "Index
  /// Refinement" discussion warns about; exposed so the pivot-policy
  /// ablation can measure the trade-off. Returns a data-driven value from
  /// inside the chosen piece, or nullopt when no piece is crackable.
  /// \param biggest    true = largest piece, false = smallest (size >= 2).
  /// \param rng        position sampler within the chosen piece.
  /// \param min_piece  ignore pieces smaller than this many rows.
  std::optional<T> SuggestExtremePiecePivot(bool biggest, Rng& rng,
                                            size_t min_piece = 2) const {
    ReadGuard column_guard(column_latch_);
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    size_t best_begin = 0, best_end = 0;
    bool found = false;
    size_t prev = 0;
    auto consider = [&](size_t lo, size_t hi) {
      const size_t len = hi - lo;
      if (len < std::max<size_t>(2, min_piece)) return;
      const size_t best_len = best_end - best_begin;
      if (!found || (biggest ? len > best_len : len < best_len)) {
        best_begin = lo;
        best_end = hi;
        found = true;
      }
    };
    index_.ForEachBoundary([&](const typename CrackerIndex<T>::Node& n) {
      consider(prev, n.pos);
      prev = n.pos;
    });
    consider(prev, size());
    if (!found) return std::nullopt;
    const size_t probe =
        best_begin + rng.Below(static_cast<uint64_t>(best_end - best_begin));
    return values_[probe];
  }

  /// Boundary (value, position) pairs in ascending value order — the
  /// warm-start payload a checkpoint persists. A boundary's position is a
  /// pure function of the column multiset (#{x : x < value}), so
  /// RestorePieces at these values reproduces the boundaries
  /// bit-identically.
  std::vector<std::pair<T, size_t>> ExportBoundaries() const {
    ReadGuard column_guard(column_latch_);
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    std::vector<std::pair<T, size_t>> out;
    out.reserve(num_boundaries_.load(std::memory_order_relaxed));
    index_.ForEachBoundary([&](const typename CrackerIndex<T>::Node& n) {
      out.emplace_back(n.value, n.pos);
    });
    return out;
  }

  /// Pieces of diagnostics: piece sizes in position order.
  std::vector<size_t> PieceSizes() const {
    ReadGuard column_guard(column_latch_);
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    std::vector<size_t> sizes;
    size_t prev = 0;
    index_.ForEachBoundary([&](const typename CrackerIndex<T>::Node& n) {
      sizes.push_back(n.pos - prev);
      prev = n.pos;
    });
    sizes.push_back(size() - prev);
    return sizes;
  }

  /// Verifies the cracker invariant: every piece only holds values within
  /// its boundary range, and boundary positions are monotone. O(N).
  /// \return true when consistent. Test/debug helper.
  bool CheckInvariants() const {
    ReadGuard column_guard(column_latch_);
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    size_t prev_pos = 0;
    std::optional<T> prev_val;
    bool ok = true;
    auto check_piece = [&](size_t lo, size_t hi, std::optional<T> lo_v,
                           std::optional<T> hi_v) {
      for (size_t i = lo; i < hi; ++i) {
        if (lo_v && KeyTraits<T>::Less(values_[i], *lo_v)) ok = false;
        if (hi_v && !KeyTraits<T>::Less(values_[i], *hi_v)) ok = false;
      }
    };
    std::optional<T> lo_v;
    index_.ForEachBoundary([&](const typename CrackerIndex<T>::Node& n) {
      if (n.pos < prev_pos) ok = false;
      if (prev_val && !KeyTraits<T>::Less(*prev_val, n.value)) ok = false;
      check_piece(prev_pos, n.pos, lo_v, n.value);
      prev_pos = n.pos;
      lo_v = n.value;
      prev_val = n.value;
    });
    check_piece(prev_pos, size(), lo_v, std::nullopt);
    return ok;
  }

 private:
  /// Ripple-applies already-extracted pending entries. The caller holds the
  /// column write latch and the unique tree lock.
  void ApplyTakenLocked(std::vector<std::pair<T, RowId>> ins,
                        std::vector<std::pair<T, RowId>> del) {
    if (ins.empty() && del.empty()) return;
    auto nodes = index_.CollectBoundaries();
    for (const auto& [v, rid] : ins) RippleInsert(nodes, v, rid);
    for (const auto& [v, rid] : del) RippleDelete(nodes, v, rid);
    CountMerged(ins.size(), del.size());
  }

  void CountMerged(size_t inserts, size_t deletes) {
    stats_.merged_inserts.fetch_add(inserts, std::memory_order_relaxed);
    stats_.merged_deletes.fetch_add(deletes, std::memory_order_relaxed);
    static obs::Counter& ripple_ins = obs::MetricsRegistry::Global().GetCounter(
        "holix_ripple_merged_inserts_total");
    static obs::Counter& ripple_del = obs::MetricsRegistry::Global().GetCounter(
        "holix_ripple_merged_deletes_total");
    ripple_ins.Inc(inserts);
    ripple_del.Inc(deletes);
  }

  /// Global positions (ascending, counted through \p runs in order) of the
  /// rows the deletes \p del remove: each delete takes one not yet taken
  /// row with its exact (value, rowid), and one that finds none is ignored.
  /// Rows of a run without explicit rowids are found by index, so a base
  /// image costs O(1) per delete; runs with rowids are scanned once
  /// against the deletes sorted by rowid.
  static std::vector<size_t> ResolveDeletes(
      const std::vector<RowRun<T>>& runs,
      std::vector<std::pair<T, RowId>> del) {
    std::vector<size_t> dead;
    if (del.empty()) return dead;
    // Which of several deletes of one rowid takes a row does not change
    // the outcome, so their order after the sort does not matter.
    std::sort(del.begin(), del.end(), [](const auto& a, const auto& b) {
      return a.second < b.second;
    });
    std::vector<uint8_t> used(del.size(), 0);
    size_t unused = del.size();
    size_t global = 0;
    for (const RowRun<T>& run : runs) {
      if (run.rowids == nullptr) {
        size_t last = run.rows;  // last index taken in this run
        for (size_t d = 0; d < del.size(); ++d) {
          const RowId i = del[d].second;
          if (used[d] || i >= run.rows) continue;
          if (i != last && KeyTraits<T>::Eq(run.values[i], del[d].first)) {
            used[d] = 1;
            --unused;
            dead.push_back(global + i);
            last = i;
          }
        }
      } else {
        for (size_t i = 0; i < run.rows && unused != 0; ++i) {
          const RowId rid = run.rowids[i];
          auto it = std::lower_bound(
              del.begin(), del.end(), rid,
              [](const auto& e, RowId r) { return e.second < r; });
          for (; it != del.end() && it->second == rid; ++it) {
            const size_t d = static_cast<size_t>(it - del.begin());
            if (!used[d] && KeyTraits<T>::Eq(run.values[i], it->first)) {
              used[d] = 1;
              --unused;
              dead.push_back(global + i);
              break;
            }
          }
        }
      }
      global += run.rows;
    }
    return dead;
  }

  void InitDomain() {
    row_count_.store(values_.size(), std::memory_order_relaxed);
    if (!values_.empty()) {
      auto [mn, mx] = std::minmax_element(
          values_.begin(), values_.end(),
          [](T a, T b) { return KeyTraits<T>::Less(a, b); });
      min_value_.store(KeyTraits<T>::Canonical(*mn), std::memory_order_relaxed);
      max_value_.store(KeyTraits<T>::Canonical(*mx), std::memory_order_relaxed);
    }
  }

  PieceRef<T> LookupPiece(T w) const {
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    return index_.FindPiece(w, size());
  }

  /// Partitions [begin, end) at \p pivot with the configured kernel while
  /// the caller holds the piece's write latch. Columns with aligned
  /// payloads always use the scalar kernel (it co-moves payload rows).
  size_t Partition(size_t begin, size_t end, T pivot,
                   const CrackConfig& cfg) {
    CountCrackKernel(begin, end);
    if (!payloads_.empty()) {
      return CrackInTwoScalar(values_.data(), begin, end, pivot,
                              [this](size_t i, size_t j) { SwapRows(i, j); });
    }
    switch (cfg.algo) {
      case CrackAlgo::kScalar:
        return CrackInTwoScalar(
            values_.data(), begin, end, pivot, [this](size_t i, size_t j) {
              std::swap(values_[i], values_[j]);
              std::swap(rowids_[i], rowids_[j]);
            });
      case CrackAlgo::kOutOfPlace:
        return MorselCrackInTwo(values_.data(), rowids_.data(), begin, end,
                                pivot, SimdLevel::kPortable);
      case CrackAlgo::kSimd:
      case CrackAlgo::kParallel:
        return MorselCrackInTwo(
            values_.data(), rowids_.data(), begin, end, pivot,
            DetectSimdLevel(),
            cfg.algo == CrackAlgo::kParallel ? cfg.pool : nullptr,
            cfg.parallel_threads);
    }
    return begin;
  }

  void SwapRows(size_t i, size_t j) {
    std::swap(values_[i], values_[j]);
    std::swap(rowids_[i], rowids_[j]);
    for (auto& p : payloads_) std::swap(p[i], p[j]);
  }

  void InsertBoundary(T value, size_t pos) {
    {
      std::unique_lock<std::shared_mutex> lk(tree_mu_);
      index_.Insert(value, pos);
      num_boundaries_.store(index_.num_boundaries(),
                            std::memory_order_relaxed);
    }
    CountPiecesCreated(1);
  }

  static void CountCrackKernel(size_t begin, size_t end) {
    static obs::Counter& cracks =
        obs::MetricsRegistry::Global().GetCounter("holix_cracks_total");
    static obs::Counter& moved = obs::MetricsRegistry::Global().GetCounter(
        "holix_crack_bytes_moved_total");
    cracks.Inc();
    moved.Inc(static_cast<uint64_t>(end - begin) * kRowBytes);
  }

  static void CountPiecesCreated(uint32_t n) {
    static obs::Counter& pieces = obs::MetricsRegistry::Global().GetCounter(
        "holix_pieces_created_total");
    pieces.Inc(n);
    obs::TraceAddPiecesCreated(n);
  }

  /// Crack-in-three fast path: both bounds in one piece, one latch. The
  /// out-of-place tiers crack it as two Partition passes at the configured
  /// tier ([begin, end) at low, then [a, end) at high); kScalar and payload
  /// columns take the one-pass CrackInThreeScalar. Returns nullopt when the
  /// bounds span pieces (the caller falls back to two crack-in-twos).
  std::optional<PositionRange> TryCrackInThree(T low, T high,
                                               const CrackConfig& cfg) {
    PieceRef<T> piece = LookupPiece(low);
    // The piece must strictly contain both bounds: high below (not at)
    // the piece's upper boundary when one exists.
    if (piece.exact ||
        KeyTraits<T>::Less(piece.hi_value.value_or(high), high) ||
        (piece.hi_value && KeyTraits<T>::Eq(*piece.hi_value, high))) {
      return std::nullopt;
    }
    piece.latch->LockWrite();
    PieceRef<T> cur = LookupPiece(low);
    const bool still_spans =
        !cur.exact && cur.latch == piece.latch &&
        (!cur.hi_value || KeyTraits<T>::Less(high, *cur.hi_value));
    if (!still_spans) {
      piece.latch->UnlockWrite();
      return std::nullopt;
    }
    // Stochastic pre-cracks would complicate the three-way path; stochastic
    // configurations use the two-sided path instead.
    if (cfg.stochastic && cur.size() > cfg.stochastic_min_piece) {
      piece.latch->UnlockWrite();
      return std::nullopt;
    }
    size_t a, b;
    if (payloads_.empty() && cfg.algo != CrackAlgo::kScalar) {
      a = Partition(cur.begin, cur.end, low, cfg);
      b = Partition(a, cur.end, high, cfg);
    } else {
      CountCrackKernel(cur.begin, cur.end);
      std::tie(a, b) = CrackInThreeScalar(
          values_.data(), cur.begin, cur.end, low, high,
          [this](size_t i, size_t j) { SwapRows(i, j); });
    }
    {
      std::unique_lock<std::shared_mutex> lk(tree_mu_);
      index_.Insert(low, a);
      index_.Insert(high, b);
      num_boundaries_.store(index_.num_boundaries(),
                            std::memory_order_relaxed);
    }
    CountPiecesCreated(2);
    stats_.query_cracks.fetch_add(2, std::memory_order_relaxed);
    piece.latch->UnlockWrite();
    return PositionRange{a, b};
  }

  /// Merges pending updates covering the piece around \p pivot (worker
  /// side-job). Cheap when the pending queues are empty.
  void MergePendingAround(T pivot) {
    if (pending_.PendingInserts() == 0 && pending_.PendingDeletes() == 0)
      return;
    std::optional<T> lo_v, hi_v;
    {
      std::shared_lock<std::shared_mutex> lk(tree_mu_);
      const PieceRef<T> piece = index_.FindPiece(pivot, size());
      lo_v = piece.lo_value;
      hi_v = piece.hi_value;
    }
    // The tail piece has no hi_v: its merge takes the closed tail, so a
    // pending row holding exactly the maximum key is merged too.
    MergePendingInRange(lo_v.value_or(KeyTraits<T>::Lowest()), hi_v);
  }

  /// Ripple-inserts (v, rid), keeping every boundary valid. The caller
  /// holds the column write latch and the unique tree lock; \p nodes is the
  /// boundary list in ascending value order (positions updated in place).
  void RippleInsert(std::vector<typename CrackerIndex<T>::Node*>& nodes,
                    T v, RowId rid) {
    if (!payloads_.empty()) {
      throw std::logic_error("updates unsupported on payload-aligned column");
    }
    // Index of the first boundary whose value is > v: the target piece ends
    // at that boundary's position.
    size_t j = nodes.size();
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (KeyTraits<T>::Less(v, nodes[i]->value)) {
        j = i;
        break;
      }
    }
    const CrackRowId lane = ToCrackRowId(rid);
    values_.push_back(v);
    rowids_.push_back(lane);
    size_t hole = values_.size() - 1;
    for (size_t i = nodes.size(); i-- > j;) {
      const size_t p = nodes[i]->pos;
      values_[hole] = values_[p];
      rowids_[hole] = rowids_[p];
      hole = p;
      nodes[i]->pos = p + 1;
    }
    values_[hole] = v;
    rowids_[hole] = lane;
    row_count_.store(values_.size(), std::memory_order_relaxed);
    if (values_.size() == 1) {
      // First row of a column loaded empty: seed the domain rather than
      // widening from the T{} sentinel.
      min_value_.store(v, std::memory_order_relaxed);
      max_value_.store(v, std::memory_order_relaxed);
    } else {
      if (KeyTraits<T>::Less(v, min_value_.load(std::memory_order_relaxed)))
        min_value_.store(v, std::memory_order_relaxed);
      if (KeyTraits<T>::Less(max_value_.load(std::memory_order_relaxed), v))
        max_value_.store(v, std::memory_order_relaxed);
    }
  }

  /// Ripple-deletes the row (v, rid). Returns silently when absent (the
  /// value may never have existed or was already deleted).
  void RippleDelete(std::vector<typename CrackerIndex<T>::Node*>& nodes,
                    T v, RowId rid) {
    if (values_.empty()) return;
    size_t j = nodes.size();
    size_t begin = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (KeyTraits<T>::Less(v, nodes[i]->value)) {
        j = i;
        break;
      }
      begin = nodes[i]->pos;
    }
    const size_t end = j < nodes.size() ? nodes[j]->pos : values_.size();
    size_t found = end;
    for (size_t i = begin; i < end; ++i) {
      if (KeyTraits<T>::Eq(values_[i], v) && rowids_[i] == rid) {
        found = i;
        break;
      }
    }
    if (found == end) return;  // not materialized
    // Fill the hole with the target piece's last row, then bubble the hole
    // upward one piece at a time.
    values_[found] = values_[end - 1];
    rowids_[found] = rowids_[end - 1];
    size_t hole = end - 1;
    for (size_t i = j; i < nodes.size(); ++i) {
      const size_t piece_end =
          (i + 1 < nodes.size()) ? nodes[i + 1]->pos : values_.size();
      values_[hole] = values_[piece_end - 1];
      rowids_[hole] = rowids_[piece_end - 1];
      nodes[i]->pos = nodes[i]->pos - 1;
      hole = piece_end - 1;
    }
    values_.pop_back();
    rowids_.pop_back();
    row_count_.store(values_.size(), std::memory_order_relaxed);
  }

  std::string name_;
  std::vector<T> values_;
  std::vector<CrackRowId> rowids_;
  std::vector<std::vector<int64_t>> payloads_;

  CrackerIndex<T> index_;
  mutable std::shared_mutex tree_mu_;
  mutable RwSpinLatch column_latch_;
  std::atomic<size_t> num_boundaries_{0};
  std::atomic<size_t> row_count_{0};

  PendingUpdates<T> pending_;
  CrackStats stats_;
  std::atomic<T> min_value_{};
  std::atomic<T> max_value_{};
};

using Int32CrackerColumn = CrackerColumn<int32_t>;
using Int64CrackerColumn = CrackerColumn<int64_t>;
using DoubleCrackerColumn = CrackerColumn<double>;

}  // namespace holix

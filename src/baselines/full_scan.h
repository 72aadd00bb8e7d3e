/// \file full_scan.h
/// \brief The no-indexing baseline: parallel range-select scans (§5.1).
///
/// MonetDB's parallel select scans the whole column with tight loops; we
/// do the same with static partitioning over a thread pool, returning the
/// qualifying count and (optionally) materialized positions.

#pragma once

#include <cstddef>
#include <optional>
#include <type_traits>
#include <vector>

#include "storage/position_list.h"
#include "storage/types.h"
#include "util/thread_pool.h"

namespace holix {

/// Counts values in [low, high) — or in [low, Highest()] when \p high is
/// missing (KeyRange) — by scanning \p data in parallel shards.
template <typename T>
size_t ParallelScanCount(const T* data, size_t n, T low,
                         std::type_identity_t<std::optional<T>> high,
                         ThreadPool& pool, size_t threads) {
  const KeyRange<T> range{low, high};
  threads = std::max<size_t>(1, std::min(threads, pool.size() + 1));
  if (threads <= 1 || n < (1u << 14)) {
    size_t count = 0;
    for (size_t i = 0; i < n; ++i) count += range.Contains(data[i]) ? 1 : 0;
    return count;
  }
  std::vector<size_t> partial(threads, 0);
  const size_t chunk = (n + threads - 1) / threads;
  pool.ParallelFor(0, threads, [&](size_t t) {
    const size_t lo = std::min(n, t * chunk);
    const size_t hi = std::min(n, lo + chunk);
    size_t count = 0;
    for (size_t i = lo; i < hi; ++i) count += range.Contains(data[i]) ? 1 : 0;
    partial[t] = count;
  });
  size_t total = 0;
  for (size_t c : partial) total += c;
  return total;
}

/// Materializes the positions of values in [low, high) — or in [low,
/// Highest()] when \p high is missing — in row order.
template <typename T>
PositionList ParallelScanSelect(const T* data, size_t n, T low,
                                std::type_identity_t<std::optional<T>> high,
                                ThreadPool& pool, size_t threads) {
  const KeyRange<T> range{low, high};
  threads = std::max<size_t>(1, std::min(threads, pool.size() + 1));
  if (threads <= 1 || n < (1u << 14)) {
    PositionList out;
    for (size_t i = 0; i < n; ++i) {
      if (range.Contains(data[i])) out.push_back(i);
    }
    return out;
  }
  std::vector<PositionList> partial(threads);
  const size_t chunk = (n + threads - 1) / threads;
  pool.ParallelFor(0, threads, [&](size_t t) {
    const size_t lo = std::min(n, t * chunk);
    const size_t hi = std::min(n, lo + chunk);
    PositionList& out = partial[t];
    for (size_t i = lo; i < hi; ++i) {
      if (range.Contains(data[i])) out.push_back(i);
    }
  });
  PositionList out;
  size_t total = 0;
  for (const auto& p : partial) total += p.size();
  out.reserve(total);
  for (auto& p : partial) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace holix

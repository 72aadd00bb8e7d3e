/// \file update_stream.cpp
/// \brief A read/write session (§5.7): range queries interleaved with a
/// stream of inserts and deletes against the same attribute. Shows pending
/// updates being merged on demand by queries and, under holistic indexing,
/// proactively by background workers.

#include <chrono>
#include <cstdio>
#include <thread>

#include "engine/database.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/workload.h"

using namespace holix;

namespace {

/// select count(*) where lo <= column < hi, through the session.
size_t CountRows(Session& session, const ColumnHandle& column, int64_t lo,
                 int64_t hi) {
  QuerySpec spec;
  spec.Where(column, lo, hi).Count();
  return static_cast<size_t>(session.Execute(spec).values[0].i);
}

}  // namespace

int main() {
  const size_t rows = ScaledSize(1u << 20);
  const int64_t domain = 1 << 20;
  const size_t rounds = QueryCount(50);

  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 2;
  opts.holistic.max_workers = 2;
  Database db(opts);
  db.LoadColumn("orders", "amount", GenerateUniformColumn(rows, domain, 3));
  std::printf("orders.amount: %zu rows, domain [0, %lld)\n", rows,
              static_cast<long long>(domain));

  // The writer is one client session: the attribute resolves to a handle
  // once, and every read/write after that goes through the handle.
  Session session = db.OpenSession();
  const ColumnHandle amount = session.Handle("orders", "amount");

  Rng rng(8);
  size_t total_rows = rows;
  Timer wall;
  for (size_t round = 0; round < rounds; ++round) {
    // A burst of fresh orders...
    for (int i = 0; i < 20; ++i) {
      session.InsertScalar(amount, static_cast<int64_t>(rng.Below(domain)));
      ++total_rows;
    }
    // ...a few cancellations...
    for (int i = 0; i < 5; ++i) {
      if (session.DeleteScalar(amount,
                               static_cast<int64_t>(rng.Below(domain)))) {
        --total_rows;
      }
    }
    // ...and an analyst query over a random amount band.
    const int64_t lo = static_cast<int64_t>(rng.Below(domain));
    const int64_t hi = std::min<int64_t>(domain, lo + domain / 100);
    const size_t count = CountRows(session, amount, lo, hi);
    if ((round + 1) % 10 == 0) {
      const auto idx = db.holistic()->store().Find("orders.amount");
      std::printf("round %3zu: band [%7lld,%7lld) -> %6zu rows | "
                  "pieces=%zu merged(ins/del)=%llu/%llu\n",
                  round + 1, static_cast<long long>(lo),
                  static_cast<long long>(hi), count, db.TotalIndexPieces(),
                  static_cast<unsigned long long>(
                      idx->stats().merged_inserts.load()),
                  static_cast<unsigned long long>(
                      idx->stats().merged_deletes.load()));
    }
  }

  // Verify the full count converges to loaded + inserted - deleted.
  const size_t full = CountRows(session, amount, 0, domain);
  std::printf("\nfinal count over the whole domain: %zu (expected %zu) %s\n",
              full, total_rows, full == total_rows ? "OK" : "MISMATCH");
  std::printf("session wall time: %.3fs; background cracks: %llu\n",
              wall.ElapsedSeconds(),
              static_cast<unsigned long long>(
                  db.holistic()->TotalWorkerCracks()));
  return full == total_rows ? 0 : 1;
}

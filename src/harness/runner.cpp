#include "harness/runner.h"

#include <atomic>
#include <future>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace holix {

namespace {

/// One §3.1 count query: select count(*) where lo <= column < hi.
size_t CountQuery(Session& session, const ColumnHandle& column, KeyScalar lo,
                  KeyScalar hi) {
  return static_cast<size_t>(
      session.Execute(QuerySpec().Where(column, lo, hi).Count()).values[0].i);
}

}  // namespace

std::vector<std::string> MakeAttributeNames(size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string name("a");
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

void LoadUniformTable(Database& db, const std::string& table,
                      size_t num_attrs, size_t rows, int64_t domain,
                      uint64_t seed) {
  const auto names = MakeAttributeNames(num_attrs);
  for (size_t i = 0; i < num_attrs; ++i) {
    db.LoadColumn(table, names[i],
                  GenerateUniformColumn(rows, domain, seed + i));
  }
}

void LoadUniformDoubleTable(Database& db, const std::string& table,
                            size_t num_attrs, size_t rows, int64_t domain,
                            uint64_t seed) {
  const auto names = MakeAttributeNames(num_attrs);
  for (size_t i = 0; i < num_attrs; ++i) {
    db.LoadColumn<double>(
        table, names[i], GenerateUniformDoubleColumn(rows, domain, seed + i));
  }
}

RunResult RunWorkloadF64(Database& db, const std::string& table,
                         const std::vector<std::string>& columns,
                         const std::vector<RangeQuery>& queries) {
  Session session = db.OpenSession();
  std::vector<ColumnHandle> handles;
  handles.reserve(columns.size());
  for (const auto& column : columns) {
    handles.push_back(session.Handle(table, column));
  }
  RunResult result;
  result.result_checksum = 0;
  for (const RangeQuery& q : queries) {
    const double lo = static_cast<double>(q.low) + 0.5;
    const double hi = static_cast<double>(q.high) + 0.5;
    Timer t;
    const size_t count = CountQuery(session, handles[q.attr],
                                    KeyScalar::F64(lo), KeyScalar::F64(hi));
    result.series.Add(t.ElapsedSeconds());
    result.result_checksum += count;
  }
  return result;
}

RunResult RunWorkload(Database& db, const std::string& table,
                      const std::vector<std::string>& columns,
                      const std::vector<RangeQuery>& queries) {
  // One client: resolve every attribute once, then measure the handle-based
  // hot path (no name hashing inside the timed region).
  Session session = db.OpenSession();
  std::vector<ColumnHandle> handles;
  handles.reserve(columns.size());
  for (const auto& column : columns) {
    handles.push_back(session.Handle(table, column));
  }
  RunResult result;
  result.result_checksum = 0;
  for (const RangeQuery& q : queries) {
    Timer t;
    const size_t count = CountQuery(session, handles[q.attr], q.low, q.high);
    result.series.Add(t.ElapsedSeconds());
    result.result_checksum += count;
  }
  return result;
}

ConcurrentRunResult RunWorkloadConcurrentChecked(
    Database& db, const std::string& table,
    const std::vector<std::string>& columns,
    const std::vector<RangeQuery>& queries, size_t clients) {
  clients = std::max<size_t>(1, clients);
  // Each client is a session driven by the database's client pool — the
  // paper's §5.8 model of concurrent client traffic — instead of a raw
  // thread per run. Sessions and handles are resolved before the clock
  // starts; the timed region is pure query traffic.
  ThreadPool& pool = db.client_pool(clients);
  std::vector<Session> sessions;
  std::vector<std::vector<ColumnHandle>> handles(clients);
  sessions.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    sessions.push_back(db.OpenSession());
    handles[c].reserve(columns.size());
    for (const auto& column : columns) {
      handles[c].push_back(sessions[c].Handle(table, column));
    }
  }
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> checksum{0};
  std::vector<std::future<void>> done;
  done.reserve(clients);
  Timer wall;
  for (size_t c = 0; c < clients; ++c) {
    auto driver = std::make_shared<std::packaged_task<void()>>(
        [&, c] {
          Session& session = sessions[c];
          const auto& hs = handles[c];
          uint64_t local = 0;
          for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= queries.size()) break;
            const RangeQuery& q = queries[i];
            local += CountQuery(session, hs[q.attr], q.low, q.high);
          }
          checksum.fetch_add(local, std::memory_order_relaxed);
        });
    done.push_back(driver->get_future());
    pool.Submit([driver] { (*driver)(); });
  }
  for (auto& f : done) f.get();
  const double seconds = wall.ElapsedSeconds();
  return {seconds, checksum.load(std::memory_order_relaxed)};
}

double RunWorkloadConcurrent(Database& db, const std::string& table,
                             const std::vector<std::string>& columns,
                             const std::vector<RangeQuery>& queries,
                             size_t clients) {
  return RunWorkloadConcurrentChecked(db, table, columns, queries, clients)
      .seconds;
}

}  // namespace holix

/// \file exploratory_analytics.cpp
/// \brief A SkyServer-style exploration session (the paper's motivating
/// scenario): an astronomer sweeps across regions of the sky with ad-hoc
/// range predicates. No index is ever declared; holistic indexing watches
/// the session and keeps refining the touched attributes on idle cores,
/// comparing the session cost against plain adaptive indexing.

#include <cstdio>

#include "engine/database.h"
#include "harness/runner.h"
#include "util/env.h"
#include "util/timer.h"
#include "workload/workload.h"

using namespace holix;

namespace {

double RunSession(Database& db, const std::vector<RangeQuery>& queries,
                  const std::vector<std::string>& names) {
  Timer wall;
  double first_region = -1;
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    QuerySpec count;
    count.Where(db.Resolve("sky", names[q.attr]), q.low, q.high).Count();
    db.Execute(count);
    if (i == queries.size() / 4 && first_region < 0) {
      first_region = wall.ElapsedSeconds();
      std::printf("  first region explored after %.3fs (%zu queries)\n",
                  first_region, i + 1);
    }
  }
  return wall.ElapsedSeconds();
}

}  // namespace

int main() {
  const size_t rows = ScaledSize(1u << 21);
  const size_t num_queries = QueryCount(2000);
  const int64_t domain = int64_t{1} << 30;

  // Two "photometric" attributes: right ascension and declination.
  WorkloadSpec spec;
  spec.num_queries = num_queries;
  spec.num_attributes = 2;
  spec.domain = domain;
  spec.pattern = QueryPattern::kSkyServer;  // dwell-and-jump sky sweeps
  spec.selectivity = 0.002;
  spec.seed = 2015;
  const auto queries = GenerateWorkload(spec);
  const std::vector<std::string> names = {"right_ascension", "declination"};

  std::printf("exploration session: %zu queries over %zu-row sky table\n",
              num_queries, rows);

  double adaptive_cost;
  {
    DatabaseOptions opts;
    opts.mode = ExecMode::kAdaptive;
    opts.user_threads = 4;
    Database db(opts);
    db.LoadColumn("sky", names[0], GenerateUniformColumn(rows, domain, 1));
    db.LoadColumn("sky", names[1], GenerateUniformColumn(rows, domain, 2));
    std::printf("\n[adaptive indexing]\n");
    adaptive_cost = RunSession(db, queries, names);
    std::printf("  session total: %.3fs, %zu index pieces\n", adaptive_cost,
                db.TotalIndexPieces());
  }

  double holistic_cost;
  {
    DatabaseOptions opts;
    opts.mode = ExecMode::kHolistic;
    opts.user_threads = 4;
    opts.holistic.max_workers = 4;
    Database db(opts);
    db.LoadColumn("sky", names[0], GenerateUniformColumn(rows, domain, 1));
    db.LoadColumn("sky", names[1], GenerateUniformColumn(rows, domain, 2));
    std::printf("\n[holistic indexing]\n");
    holistic_cost = RunSession(db, queries, names);
    std::printf("  session total: %.3fs, %zu index pieces, "
                "%llu background cracks\n",
                holistic_cost, db.TotalIndexPieces(),
                static_cast<unsigned long long>(
                    db.holistic()->TotalWorkerCracks()));
    std::printf("  configurations: actual=%zu optimal=%zu\n",
                db.holistic()->store().Count(ConfigKind::kActual),
                db.holistic()->store().Count(ConfigKind::kOptimal));
  }

  std::printf("\nholistic vs adaptive session speedup: %.2fx\n",
              adaptive_cost / holistic_cost);
  return 0;
}

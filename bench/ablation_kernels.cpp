/// \file ablation_kernels.cpp
/// \brief End-to-end ablation of the cracking kernel choice (§4.2 / [44]):
/// the same adaptive-indexing workload executed with the branchy scalar
/// kernel, the predicated out-of-place kernel, the SIMD compress-store
/// tier, and parallel cracking (static slices vs. work-stealing morsels)
/// at several thread counts.

#include "bench_common.h"
#include "cracking/crack_kernels_simd.h"
#include "cracking/cracker_column.h"
#include "util/timer.h"

using namespace holix;
using namespace holix::bench;

int main() {
  const BenchEnv env = ReadEnv(/*rows=*/1u << 22, /*queries=*/500);
  PrintScaleNote(env, 1);

  WorkloadSpec spec;
  spec.num_queries = env.queries;
  spec.num_attributes = 1;
  spec.domain = env.domain;
  spec.pattern = QueryPattern::kRandom;
  spec.seed = env.seed;
  const auto queries = GenerateWorkload(spec);
  const auto base = GenerateUniformColumn(env.rows, env.domain, env.seed);

  struct Variant {
    std::string label;
    CrackAlgo algo;
    size_t threads;
  };
  std::vector<Variant> variants = {
      {"scalar (branchy, in-place)", CrackAlgo::kScalar, 1},
      {"out-of-place (predicated)", CrackAlgo::kOutOfPlace, 1},
      {"simd (" + std::string(SimdLevelName(DetectSimdLevel())) + ")",
       CrackAlgo::kSimd, 1},
  };
  for (size_t th = 2; th <= env.cores; th *= 2) {
    variants.push_back({"parallel-morsel x" + std::to_string(th),
                        CrackAlgo::kParallel, th});
  }

  ReportTable t("Ablation: cracking kernel, 1-attribute workload");
  t.SetHeader({"kernel", "total cost (s)", "first query (s)"});
  for (const auto& v : variants) {
    ThreadPool pool(v.threads);
    CrackConfig cfg;
    cfg.algo = v.algo;
    cfg.pool = &pool;
    cfg.parallel_threads = v.threads;
    CrackerColumn<int64_t> col("a0", base);
    ResponseSeries series;
    for (const auto& q : queries) {
      Timer timer;
      col.SelectRange(q.low, q.high, cfg);
      series.Add(timer.ElapsedSeconds());
    }
    t.AddRow({v.label, FormatSeconds(series.Total()),
              FormatSeconds(series.latencies()[0])});
  }
  t.Print();
  SaveBenchJson(t, "ablation_kernels");
  std::printf("\n# [44]: out-of-place beats the branchy kernel, SIMD beats "
              "both; parallel cracking accelerates the big early cracks\n");
  return 0;
}

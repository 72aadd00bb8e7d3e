/// Cross-module integration: every execution mode must produce the same
/// result checksums on every workload pattern (the invariant behind every
/// figure in the paper — systems differ in speed, never in answers).

#include <gtest/gtest.h>

#include <tuple>

#include "engine/database.h"
#include "harness/runner.h"
#include "test_support.h"
#include "workload/workload.h"

namespace holix {
namespace {

using test::CountOf;

struct Case {
  ExecMode mode;
  QueryPattern pattern;
};

class ModePatternTest
    : public ::testing::TestWithParam<std::tuple<ExecMode, QueryPattern>> {};

TEST_P(ModePatternTest, ChecksumMatchesScanReference) {
  const auto [mode, pattern] = GetParam();
  const size_t rows = 60000;
  const int64_t domain = 1 << 20;
  const size_t attrs = 3;

  WorkloadSpec spec;
  spec.num_queries = 40;
  spec.num_attributes = attrs;
  spec.domain = domain;
  spec.pattern = pattern;
  spec.selectivity = 0.01;
  spec.seed = 4242;
  const auto queries = GenerateWorkload(spec);
  const auto names = MakeAttributeNames(attrs);

  auto run = [&](ExecMode m) {
    DatabaseOptions opts;
    opts.mode = m;
    opts.user_threads = 2;
    opts.total_cores = 6;
    opts.online_observation_window = 10;
    Database db(opts);
    LoadUniformTable(db, "r", attrs, rows, domain, 99);
    return RunWorkload(db, "r", names, queries).result_checksum;
  };

  EXPECT_EQ(run(mode), run(ExecMode::kScan))
      << ExecModeName(mode) << " on " << QueryPatternName(pattern);
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAllPatterns, ModePatternTest,
    ::testing::Combine(
        ::testing::Values(ExecMode::kOffline, ExecMode::kOnline,
                          ExecMode::kAdaptive, ExecMode::kStochastic,
                          ExecMode::kCCGI, ExecMode::kHolistic),
        ::testing::Values(QueryPattern::kRandom, QueryPattern::kSkewed,
                          QueryPattern::kPeriodic, QueryPattern::kSequential,
                          QueryPattern::kSkyServer)),
    [](const auto& info) {
      return std::string(ExecModeName(std::get<0>(info.param))) + "_" +
             QueryPatternName(std::get<1>(info.param));
    });

TEST(Integration, HolisticStrategiesAllAnswerCorrectly) {
  const size_t rows = 60000;
  const int64_t domain = 1 << 20;
  WorkloadSpec spec;
  spec.num_queries = 30;
  spec.num_attributes = 2;
  spec.domain = domain;
  spec.selectivity = 0.01;
  const auto queries = GenerateWorkload(spec);
  const auto names = MakeAttributeNames(2);

  uint64_t reference = 0;
  for (Strategy s : {Strategy::kW1, Strategy::kW2, Strategy::kW3,
                     Strategy::kW4}) {
    DatabaseOptions opts;
    opts.mode = ExecMode::kHolistic;
    opts.user_threads = 2;
    opts.total_cores = 6;
    opts.holistic.strategy = s;
    Database db(opts);
    LoadUniformTable(db, "r", 2, rows, domain, 7);
    const uint64_t checksum =
        RunWorkload(db, "r", names, queries).result_checksum;
    if (s == Strategy::kW1) {
      reference = checksum;
    } else {
      EXPECT_EQ(checksum, reference) << StrategyName(s);
    }
  }
}

TEST(Integration, InterleavedUpdatesAcrossModes) {
  // Replaying the §5.7 op stream under adaptive and holistic must agree
  // on every query result.
  const auto ops = GenerateUpdateWorkload(
      UpdateScenario::kHighFrequencyLowVolume, 60, 1 << 16, 0, 3);
  auto run = [&](ExecMode mode) {
    DatabaseOptions opts;
    opts.mode = mode;
    opts.user_threads = 1;
    opts.total_cores = 3;
    Database db(opts);
    db.LoadColumn("r", "a0", GenerateUniformColumn(30000, 1 << 16, 17));
    std::vector<size_t> counts;
    for (const auto& op : ops) {
      if (op.kind == WorkloadOp::Kind::kQuery) {
        counts.push_back(
            CountOf(db, db.Resolve("r", "a0"), op.query.low, op.query.high));
      } else if (op.kind == WorkloadOp::Kind::kInsert) {
        db.InsertScalar(db.Resolve("r", "a0"), op.insert_value);
      }
    }
    return counts;
  };
  EXPECT_EQ(run(ExecMode::kAdaptive), run(ExecMode::kHolistic));
}

}  // namespace
}  // namespace holix

/// Model-based randomized testing: a CrackerColumn driven by a random
/// interleaving of selects, worker refinements, inserts and deletes is
/// checked after every step against a simple reference model (a sorted
/// multiset). This is the strongest single correctness net in the suite —
/// any divergence in cracking, Ripple merging, or boundary maintenance
/// shows up as a count mismatch or invariant violation.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cracking/cracker_column.h"
#include "engine/database.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace holix {
namespace {

/// Reference model: multiset of values with O(log n) range counts.
class Model {
 public:
  void Insert(int64_t v) { ++counts_[v]; }

  bool Erase(int64_t v) {
    auto it = counts_.find(v);
    if (it == counts_.end()) return false;
    if (--it->second == 0) counts_.erase(it);
    return true;
  }

  size_t CountRange(int64_t lo, int64_t hi) const {
    size_t c = 0;
    for (auto it = counts_.lower_bound(lo);
         it != counts_.end() && it->first < hi; ++it) {
      c += it->second;
    }
    return c;
  }

  /// Any currently present value (for deletes), or nullopt.
  std::optional<int64_t> AnyValue(Rng& rng) const {
    if (counts_.empty()) return std::nullopt;
    auto it = counts_.begin();
    std::advance(it, rng.Below(counts_.size()));
    return it->first;
  }

 private:
  std::map<int64_t, size_t> counts_;
};

class ModelBasedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelBasedTest, RandomOpInterleavings) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const int64_t domain = 1 << 16;
  const size_t n = 5000 + rng.Below(15000);

  Model model;
  std::vector<int64_t> base(n);
  for (auto& v : base) {
    v = static_cast<int64_t>(rng.Below(domain));
    model.Insert(v);
  }
  CrackerColumn<int64_t> col("m", base);
  RowId next_rowid = n;

  for (int step = 0; step < 400; ++step) {
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4: {  // range select (50%)
        const int64_t lo = static_cast<int64_t>(rng.Below(domain));
        const int64_t hi =
            lo + 1 + static_cast<int64_t>(rng.Below(domain / 8));
        ASSERT_EQ(col.SelectRange(lo, hi).size(), model.CountRange(lo, hi))
            << "seed " << seed << " step " << step;
        break;
      }
      case 5:
      case 6: {  // worker refinement (20%)
        col.TryRefineAt(static_cast<int64_t>(rng.Below(domain)));
        break;
      }
      case 7:
      case 8: {  // insert (20%)
        const int64_t v = static_cast<int64_t>(rng.Below(domain));
        col.pending().AddInsert(v, next_rowid++);
        model.Insert(v);
        break;
      }
      case 9: {  // delete (10%)
        const auto victim = model.AnyValue(rng);
        if (!victim.has_value()) break;
        // Resolve a matching rowid the way the engine does: unit select.
        const PositionRange r = col.SelectRange(*victim, *victim + 1);
        if (r.empty()) break;  // value only in pending inserts; skip
        RowId rid = 0;
        bool got = false;
        col.ScanRange({r.begin, r.begin + 1}, [&](int64_t, RowId rr) {
          rid = rr;
          got = true;
        });
        if (!got) break;
        col.pending().AddDelete(*victim, rid);
        model.Erase(*victim);
        // Force the merge so the model and column agree immediately.
        col.MergePendingInRange(*victim, *victim + 1);
        break;
      }
    }
    if (step % 97 == 0) {
      ASSERT_TRUE(col.CheckInvariants()) << "seed " << seed << " step "
                                         << step;
    }
  }
  // Final reconciliation: full-domain count and invariants.
  EXPECT_EQ(col.SelectRange(0, domain).size(), model.CountRange(0, domain));
  EXPECT_TRUE(col.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelBasedTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(ProjectSum, MatchesNaiveAcrossModes) {
  const size_t rows = 50000;
  const int64_t domain = 1 << 18;
  const auto a = GenerateUniformColumn(rows, domain, 31);
  const auto b = GenerateUniformColumn(rows, domain, 32);
  int64_t naive = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (a[i] >= 1000 && a[i] < 100000) naive += b[i];
  }
  for (ExecMode mode : {ExecMode::kScan, ExecMode::kOffline,
                        ExecMode::kAdaptive, ExecMode::kHolistic}) {
    DatabaseOptions opts;
    opts.mode = mode;
    opts.user_threads = 2;
    opts.total_cores = 4;
    Database db(opts);
    db.LoadColumn("r", "a", a);
    db.LoadColumn("r", "b", b);
    const QuerySpec psum = QuerySpec()
                               .Where(db.Resolve("r", "a"), 1000, 100000)
                               .ProjectSum(db.Resolve("r", "b"));
    EXPECT_EQ(db.Execute(psum).values[0].i, naive) << ExecModeName(mode);
    // Repeat: cracked modes must agree after refinement too.
    EXPECT_EQ(db.Execute(psum).values[0].i, naive) << ExecModeName(mode);
  }
}

}  // namespace
}  // namespace holix

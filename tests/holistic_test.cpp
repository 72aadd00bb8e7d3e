/// Tests for the holistic core: mutable heap, Equation-1 distance,
/// strategies W1-W4, the statistics store (configurations, promotion,
/// optimal transitions, LFU budget eviction), CPU monitors, and the
/// engine's tuning cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "holistic/adaptive_index.h"
#include "holistic/cpu_monitor.h"
#include "holistic/holistic_engine.h"
#include "holistic/mutable_heap.h"
#include "holistic/stats_store.h"
#include "holistic/strategy.h"
#include "test_support.h"
#include "util/cache_info.h"
#include "util/rng.h"

namespace holix {
namespace {

using test::DriveUntil;
using test::MakeIndex;
using test::WaitForProgress;

// --- MutableMaxHeap -----------------------------------------------------

TEST(MutableMaxHeap, PushTopErase) {
  MutableMaxHeap<std::string> h;
  const auto a = h.Push(1.0, "a");
  const auto b = h.Push(3.0, "b");
  const auto c = h.Push(2.0, "c");
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.PayloadOf(h.Top()), "b");
  h.Erase(b);
  EXPECT_EQ(h.PayloadOf(h.Top()), "c");
  h.Erase(c);
  EXPECT_EQ(h.PayloadOf(h.Top()), "a");
  h.Erase(a);
  EXPECT_TRUE(h.empty());
}

TEST(MutableMaxHeap, UpdateMovesEntries) {
  MutableMaxHeap<int> h;
  const auto a = h.Push(1.0, 1);
  const auto b = h.Push(2.0, 2);
  EXPECT_EQ(h.PayloadOf(h.Top()), 2);
  h.Update(a, 10.0);
  EXPECT_EQ(h.PayloadOf(h.Top()), 1);
  h.Update(a, 0.5);
  EXPECT_EQ(h.PayloadOf(h.Top()), 2);
  EXPECT_DOUBLE_EQ(h.WeightOf(b), 2.0);
}

TEST(MutableMaxHeap, HandleReuseAfterErase) {
  MutableMaxHeap<int> h;
  auto a = h.Push(1, 1);
  h.Erase(a);
  auto b = h.Push(2, 2);  // may reuse the slot
  EXPECT_EQ(h.PayloadOf(b), 2);
  EXPECT_EQ(h.size(), 1u);
}

TEST(MutableMaxHeap, StressAgainstReference) {
  MutableMaxHeap<int> h;
  std::vector<std::pair<double, MutableMaxHeap<int>::Handle>> live;
  Rng rng(9);
  for (int round = 0; round < 2000; ++round) {
    const int op = static_cast<int>(rng.Below(3));
    if (op == 0 || live.empty()) {
      const double w = static_cast<double>(rng.Below(100000));
      live.push_back({w, h.Push(w, round)});
    } else if (op == 1) {
      const size_t k = rng.Below(live.size());
      const double w = static_cast<double>(rng.Below(100000));
      h.Update(live[k].second, w);
      live[k].first = w;
    } else {
      const size_t k = rng.Below(live.size());
      h.Erase(live[k].second);
      live.erase(live.begin() + k);
    }
    if (!live.empty()) {
      double max_w = -1;
      for (const auto& [w, _] : live) max_w = std::max(max_w, w);
      ASSERT_DOUBLE_EQ(h.WeightOf(h.Top()), max_w) << "round " << round;
    } else {
      ASSERT_TRUE(h.empty());
    }
  }
}

// --- AdaptiveIndex / Equation (1) ---------------------------------------

TEST(AdaptiveIndex, DistanceShrinksWithRefinement) {
  OverrideL1DataCacheBytes(8 * 64);  // 64 elements of int64 fit in "L1"
  auto idx = MakeIndex("r.a", 6400);
  const double d0 = idx->DistanceToOptimal();
  // Distance is accounted in bytes since the typed-core refactor: one
  // 6400-element int64 piece is 6400*8 bytes, minus the 512-byte "L1".
  EXPECT_NEAR(d0, 6400.0 * 8.0 - 512.0, 1e-9);
  Rng rng(3);
  CrackConfig cfg;
  while (!idx->IsOptimal()) {
    idx->RefineAtRandomPivot(rng, cfg);
  }
  // 6400 rows / 64-elem pieces -> optimal at >= 100 pieces.
  EXPECT_GE(idx->NumPieces(), 100u);
  EXPECT_DOUBLE_EQ(idx->DistanceToOptimal(), 0.0);
  OverrideL1DataCacheBytes(0);
}

TEST(AdaptiveIndex, SizeBytesAccountsValueAndRowid) {
  // An 8-byte key plus its 32-bit lane rowid per row.
  auto idx = MakeIndex("r.a", 1000);
  EXPECT_EQ(idx->SizeBytes(), 1000u * 12u);
}

// --- Strategies ----------------------------------------------------------

TEST(Strategy, WeightsFollowDefinitions) {
  OverrideL1DataCacheBytes(8 * 64);
  auto idx = MakeIndex("r.a", 6400);
  auto& col = *idx->column();
  col.SelectRange(100, 200);   // access 1 (cracks)
  col.SelectRange(100, 200);   // access 2 (exact hit)
  const double d = idx->DistanceToOptimal();
  EXPECT_GT(d, 0);
  EXPECT_DOUBLE_EQ(ComputeWeight(*idx, Strategy::kW1), d);
  EXPECT_DOUBLE_EQ(ComputeWeight(*idx, Strategy::kW2), 2 * d);
  EXPECT_DOUBLE_EQ(ComputeWeight(*idx, Strategy::kW3), (2 - 1) * d);
  OverrideL1DataCacheBytes(0);
}

TEST(Strategy, Names) {
  EXPECT_STREQ(StrategyName(Strategy::kW1), "W1");
  EXPECT_STREQ(StrategyName(Strategy::kW4), "W4");
}

// --- StatsStore ----------------------------------------------------------

TEST(StatsStore, RegisterAndConfigurations) {
  StatsStore store(Strategy::kW1);
  store.Register(MakeIndex("r.a"), ConfigKind::kActual);
  store.Register(MakeIndex("r.b"), ConfigKind::kPotential);
  EXPECT_EQ(store.Count(ConfigKind::kActual), 1u);
  EXPECT_EQ(store.Count(ConfigKind::kPotential), 1u);
  EXPECT_TRUE(store.Contains("r.a"));
  EXPECT_EQ(store.KindOf("r.b"), ConfigKind::kPotential);
  EXPECT_THROW(store.KindOf("r.z"), std::out_of_range);
}

TEST(StatsStore, PickPrefersActualMaxWeight) {
  StatsStore store(Strategy::kW1);
  store.Register(MakeIndex("small", 1000, 1), ConfigKind::kActual);
  store.Register(MakeIndex("big", 50000, 2), ConfigKind::kActual);
  Rng rng(1);
  // W1 weight = distance ~ rows/pieces; "big" dominates.
  EXPECT_EQ(store.PickForRefinement(rng)->name(), "big");
}

TEST(StatsStore, PickFallsBackToPotential) {
  StatsStore store(Strategy::kW1);
  store.Register(MakeIndex("p1"), ConfigKind::kPotential);
  Rng rng(2);
  auto picked = store.PickForRefinement(rng);
  ASSERT_NE(picked, nullptr);
  EXPECT_EQ(picked->name(), "p1");
}

TEST(StatsStore, EmptyPickReturnsNull) {
  StatsStore store;
  Rng rng(3);
  EXPECT_EQ(store.PickForRefinement(rng), nullptr);
}

TEST(StatsStore, QueryAccessPromotesPotential) {
  StatsStore store(Strategy::kW2);
  store.Register(MakeIndex("r.a"), ConfigKind::kPotential);
  store.RecordQueryAccess("r.a");
  EXPECT_EQ(store.KindOf("r.a"), ConfigKind::kActual);
  EXPECT_EQ(store.Count(ConfigKind::kPotential), 0u);
}

TEST(StatsStore, OptimalTransitionRemovesFromIndexSpace) {
  OverrideL1DataCacheBytes(8 * 64);
  StatsStore store(Strategy::kW1);
  auto idx = MakeIndex("r.a", 640);
  store.Register(idx, ConfigKind::kActual);
  Rng rng(4);
  CrackConfig cfg;
  while (!idx->IsOptimal()) idx->RefineAtRandomPivot(rng, cfg);
  EXPECT_TRUE(store.UpdateAfterRefinement("r.a"));
  EXPECT_EQ(store.KindOf("r.a"), ConfigKind::kOptimal);
  EXPECT_EQ(store.PickForRefinement(rng), nullptr);
  OverrideL1DataCacheBytes(0);
}

TEST(StatsStore, BudgetEvictsLeastFrequentlyUsed) {
  // Each 1000-row index is 12 KB (8-byte keys, 4-byte lane rowids); a
  // budget of 30 KB holds two.
  StatsStore store(Strategy::kW4, 30 * 1024);
  auto hot = MakeIndex("hot", 1000, 1);
  auto cold = MakeIndex("cold", 1000, 2);
  ASSERT_TRUE(store.Register(hot, ConfigKind::kActual));
  ASSERT_TRUE(store.Register(cold, ConfigKind::kActual));
  hot->column()->SelectRange(1, 100);  // hot has accesses, cold has none
  std::vector<std::string> evicted;
  ASSERT_TRUE(store.Register(MakeIndex("new", 1000, 3), ConfigKind::kActual,
                             &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "cold");
  EXPECT_TRUE(store.Contains("hot"));
  EXPECT_FALSE(store.Contains("cold"));
}

TEST(StatsStore, OversizedIndexRejected) {
  StatsStore store(Strategy::kW4, 1024);  // 1 KB budget
  std::vector<std::string> evicted;
  EXPECT_FALSE(
      store.Register(MakeIndex("huge", 100000), ConfigKind::kActual,
                     &evicted));
  EXPECT_FALSE(store.Contains("huge"));
}

TEST(StatsStore, RemoveForgetsIndex) {
  StatsStore store;
  store.Register(MakeIndex("r.a"), ConfigKind::kActual);
  const size_t bytes = store.TotalBytes();
  EXPECT_GT(bytes, 0u);
  store.Remove("r.a");
  EXPECT_FALSE(store.Contains("r.a"));
  EXPECT_EQ(store.TotalBytes(), 0u);
}

TEST(StatsStore, TotalPiecesAggregates) {
  StatsStore store;
  auto a = MakeIndex("a");
  auto b = MakeIndex("b");
  store.Register(a, ConfigKind::kActual);
  store.Register(b, ConfigKind::kActual);
  a->column()->SelectRange(10, 20);
  EXPECT_EQ(store.TotalPieces(), a->NumPieces() + b->NumPieces());
}

// --- CPU monitors ---------------------------------------------------------

TEST(SlotCpuMonitor, AccountsBusySlots) {
  SlotCpuMonitor mon(8, 0.0);
  EXPECT_EQ(mon.MeasureIdleCores(), 8u);
  mon.Acquire(3);
  EXPECT_EQ(mon.MeasureIdleCores(), 5u);
  {
    SlotLease lease(&mon, 5);
    EXPECT_EQ(mon.MeasureIdleCores(), 0u);
  }
  EXPECT_EQ(mon.MeasureIdleCores(), 5u);
  mon.Release(3);
  EXPECT_EQ(mon.MeasureIdleCores(), 8u);
}

TEST(SlotCpuMonitor, OversubscriptionClampsToZero) {
  SlotCpuMonitor mon(2, 0.0);
  mon.Acquire(5);
  EXPECT_EQ(mon.MeasureIdleCores(), 0u);
  mon.Release(5);
}

TEST(ProcStatCpuMonitor, ReturnsPlausibleValues) {
  ProcStatCpuMonitor mon(0.05);
  const size_t idle = mon.MeasureIdleCores();
  EXPECT_LE(idle, mon.TotalCores());
  EXPECT_GT(mon.TotalCores(), 0u);
}

// --- HolisticEngine --------------------------------------------------------

TEST(HolisticEngine, RunOneCycleRefinesRegisteredIndex) {
  HolisticConfig cfg;
  cfg.max_workers = 2;
  cfg.refinements_per_worker = 8;
  cfg.monitor_interval_seconds = 0.0;
  HolisticEngine engine(cfg, std::make_unique<SlotCpuMonitor>(4, 0.0));
  auto idx = MakeIndex("r.a", 100000);
  engine.store().Register(idx, ConfigKind::kActual);
  const size_t pieces_before = idx->NumPieces();
  EXPECT_EQ(engine.RunOneCycle(), 2u);
  EXPECT_GT(idx->NumPieces(), pieces_before);
  EXPECT_GT(engine.TotalWorkerCracks(), 0u);
  EXPECT_EQ(engine.Activations().size(), 1u);
}

TEST(HolisticEngine, NoWorkersWhenNoIdleCores) {
  HolisticConfig cfg;
  cfg.monitor_interval_seconds = 0.0;
  auto monitor = std::make_unique<SlotCpuMonitor>(4, 0.0);
  auto* mon = monitor.get();
  HolisticEngine engine(cfg, std::move(monitor));
  engine.store().Register(MakeIndex("r.a"), ConfigKind::kActual);
  mon->Acquire(4);
  EXPECT_EQ(engine.RunOneCycle(), 0u);
  mon->Release(4);
}

TEST(HolisticEngine, NoWorkersWhenIndexSpaceEmpty) {
  HolisticConfig cfg;
  cfg.monitor_interval_seconds = 0.0;
  HolisticEngine engine(cfg, std::make_unique<SlotCpuMonitor>(8, 0.0));
  EXPECT_EQ(engine.RunOneCycle(), 0u);
  EXPECT_TRUE(engine.Activations().empty());
}

TEST(HolisticEngine, WorkerTeamsRespectThreadBudget) {
  HolisticConfig cfg;
  cfg.max_workers = 8;
  cfg.threads_per_worker = 2;
  cfg.monitor_interval_seconds = 0.0;
  HolisticEngine engine(cfg, std::make_unique<SlotCpuMonitor>(6, 0.0));
  engine.store().Register(MakeIndex("r.a"), ConfigKind::kActual);
  // 6 idle contexts / 2 threads per worker -> 3 workers.
  EXPECT_EQ(engine.RunOneCycle(), 3u);
}

TEST(HolisticEngine, StartStopLifecycle) {
  HolisticConfig cfg;
  cfg.monitor_interval_seconds = 0.001;
  HolisticEngine engine(cfg, std::make_unique<SlotCpuMonitor>(4, 0.001));
  auto idx = MakeIndex("r.a", 200000);
  engine.store().Register(idx, ConfigKind::kActual);
  engine.Start();
  EXPECT_TRUE(engine.IsRunning());
  engine.Start();  // idempotent
  EXPECT_TRUE(
      WaitForProgress([&] { return engine.TotalWorkerCracks() > 0; }));
  engine.Stop();
  EXPECT_FALSE(engine.IsRunning());
  engine.Stop();  // idempotent
  EXPECT_GT(engine.TotalWorkerCracks(), 0u);
  EXPECT_TRUE(idx->column()->CheckInvariants());
}

TEST(HolisticEngine, StartStopRepeatedlyStaysConsistent) {
  // A 1-element "L1" makes the optimal state unreachable in this test, so
  // every round is guaranteed to have refinement work left.
  OverrideL1DataCacheBytes(8);
  HolisticConfig cfg;
  cfg.monitor_interval_seconds = 0.0005;
  HolisticEngine engine(cfg, std::make_unique<SlotCpuMonitor>(4, 0.0005));
  auto idx = MakeIndex("r.a", 400000);
  engine.store().Register(idx, ConfigKind::kActual);
  for (int round = 0; round < 5; ++round) {
    const uint64_t before = engine.TotalRefinementSteps();
    engine.Start();
    engine.Start();  // repeated Start must be a no-op, not a second thread
    EXPECT_TRUE(engine.IsRunning());
    EXPECT_TRUE(WaitForProgress(
        [&] { return engine.TotalRefinementSteps() > before; }));
    engine.Stop();
    engine.Stop();  // repeated Stop must be a no-op
    EXPECT_FALSE(engine.IsRunning());
  }
  EXPECT_TRUE(idx->column()->CheckInvariants());
  OverrideL1DataCacheBytes(0);
}

TEST(HolisticEngine, StopJoinsInFlightWorkers) {
  // Stop() while workers are mid-refinement must wait for the cycle, not
  // abandon threads; immediately after Stop() no further steps may land.
  HolisticConfig cfg;
  cfg.max_workers = 4;
  cfg.refinements_per_worker = 64;
  cfg.monitor_interval_seconds = 0.0;
  HolisticEngine engine(cfg, std::make_unique<SlotCpuMonitor>(8, 0.0));
  auto idx = MakeIndex("r.a", 500000);
  engine.store().Register(idx, ConfigKind::kActual);
  engine.Start();
  // Stop as soon as the first workers are provably in flight.
  EXPECT_TRUE(
      WaitForProgress([&] { return engine.TotalRefinementSteps() > 0; }));
  engine.Stop();
  EXPECT_FALSE(engine.IsRunning());
  const uint64_t steps_at_stop = engine.TotalRefinementSteps();
  const uint64_t cracks_at_stop = engine.TotalWorkerCracks();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(engine.TotalRefinementSteps(), steps_at_stop);
  EXPECT_EQ(engine.TotalWorkerCracks(), cracks_at_stop);
  EXPECT_TRUE(idx->column()->CheckInvariants());
}

TEST(HolisticEngine, DestructorStopsRunningEngine) {
  auto idx = MakeIndex("r.a", 200000);
  {
    HolisticConfig cfg;
    cfg.monitor_interval_seconds = 0.0005;
    HolisticEngine engine(cfg, std::make_unique<SlotCpuMonitor>(4, 0.0005));
    engine.store().Register(idx, ConfigKind::kActual);
    engine.Start();
    EXPECT_TRUE(
        WaitForProgress([&] { return engine.TotalRefinementSteps() > 0; }));
    // No Stop(): ~HolisticEngine must join the tuning thread itself.
  }
  EXPECT_TRUE(idx->column()->CheckInvariants());
}

TEST(HolisticEngine, ActivatesFloorIdleOverZWorkers) {
  // One deterministic cycle per (idle count, z): the engine must activate
  // exactly min(max_workers, floor(idle / z)) workers (§4.2).
  for (const size_t z : {size_t{1}, size_t{2}, size_t{3}}) {
    for (size_t idle = 0; idle <= 8; ++idle) {
      HolisticConfig cfg;
      cfg.max_workers = 4;
      cfg.threads_per_worker = z;
      cfg.refinements_per_worker = 2;
      cfg.monitor_interval_seconds = 0.0;
      auto monitor = std::make_unique<SlotCpuMonitor>(8, 0.0);
      monitor->Acquire(8 - idle);
      HolisticEngine engine(cfg, std::move(monitor));
      engine.store().Register(MakeIndex("r.a", 4000), ConfigKind::kActual);
      const size_t expected = std::min<size_t>(cfg.max_workers, idle / z);
      EXPECT_EQ(engine.RunOneCycle(), expected)
          << "idle=" << idle << " z=" << z;
      if (expected == 0) {
        EXPECT_TRUE(engine.Activations().empty());
      } else {
        ASSERT_EQ(engine.Activations().size(), 1u);
        EXPECT_EQ(engine.Activations()[0].workers, expected);
      }
    }
  }
}

TEST(HolisticEngine, RefinesUntilOptimalAndRetires) {
  OverrideL1DataCacheBytes(8 * 256);
  HolisticConfig cfg;
  cfg.max_workers = 4;
  cfg.refinements_per_worker = 16;
  cfg.monitor_interval_seconds = 0.0;
  HolisticEngine engine(cfg, std::make_unique<SlotCpuMonitor>(8, 0.0));
  auto idx = MakeIndex("r.a", 20000);
  engine.store().Register(idx, ConfigKind::kActual);
  EXPECT_TRUE(DriveUntil(
      engine,
      [&] { return engine.store().Count(ConfigKind::kOptimal) > 0; },
      /*max_cycles=*/200));
  EXPECT_EQ(engine.store().Count(ConfigKind::kOptimal), 1u);
  EXPECT_TRUE(idx->IsOptimal());
  EXPECT_TRUE(idx->column()->CheckInvariants());
  OverrideL1DataCacheBytes(0);
}

}  // namespace
}  // namespace holix

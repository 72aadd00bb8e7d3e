/// \file test_support.h
/// \brief Shared deterministic test substrate.
///
/// Three building blocks keep the suites hermetic on any machine,
/// including single-core CI containers:
///  * seeded data generators (no global RNG state, identical data on
///    every run),
///  * a temp-directory fixture that creates and removes a private
///    scratch directory per test,
///  * a RunOneCycle-based engine driver so holistic-engine tests pump
///    tuning cycles synchronously instead of depending on wall-clock
///    CPU load, plus a bounded progress wait for the few tests that do
///    exercise the real tuning thread,
///  * one-predicate query shorthands over Execute (in process) and
///    ExecuteQuery (over the wire).

#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cracking/cracker_column.h"
#include "engine/query_spec.h"
#include "holistic/adaptive_index.h"
#include "holistic/holistic_engine.h"
#include "util/rng.h"

namespace holix {
namespace test {

// --- Seeded data generators ----------------------------------------------

/// Uniform values in [0, domain), reproducible from \p seed.
inline std::vector<int64_t> MakeUniform(size_t n, int64_t domain,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = static_cast<int64_t>(rng.Below(domain));
  return v;
}

/// Reference count of values in [lo, hi) — the oracle cracked selects
/// are checked against.
inline size_t NaiveCount(const std::vector<int64_t>& v, int64_t lo,
                         int64_t hi) {
  size_t c = 0;
  for (int64_t x : v) c += (x >= lo && x < hi) ? 1 : 0;
  return c;
}

/// n copies of the same key (latch/boundary stress data).
inline std::vector<int64_t> MakeAllEqual(size_t n, int64_t key) {
  return std::vector<int64_t>(n, key);
}

/// The ascending sequence 0, 1, ..., n-1.
inline std::vector<int64_t> MakeSequential(size_t n) {
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<int64_t>(i);
  return v;
}

/// A cracker-backed adaptive index over fresh uniform data.
inline std::shared_ptr<CrackerAdaptiveIndex<int64_t>> MakeIndex(
    const std::string& name, size_t rows = 10000, uint64_t seed = 1,
    int64_t domain = 1 << 20) {
  auto col = std::make_shared<CrackerColumn<int64_t>>(
      name, MakeUniform(rows, domain, seed));
  return std::make_shared<CrackerAdaptiveIndex<int64_t>>(col);
}

// --- Temp-dir fixture -----------------------------------------------------

/// Creates a private scratch directory before each test and removes it
/// (recursively) afterwards.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    // Parameterized suites/tests carry '/' in their names; flatten so the
    // scratch dir stays a single component that TearDown removes fully.
    std::string tag = std::string("holix_") + info->test_suite_name() + "_" +
                      info->name();
    for (char& c : tag) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != '-') {
        c = '_';
      }
    }
    dir_ = std::filesystem::temp_directory_path() / tag;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// The scratch directory for this test.
  const std::filesystem::path& temp_dir() const { return dir_; }

  /// A path inside the scratch directory.
  std::filesystem::path TempPath(const std::string& name) const {
    return dir_ / name;
  }

 private:
  std::filesystem::path dir_;
};

// --- Deterministic engine driving ----------------------------------------

/// Pumps RunOneCycle until \p done returns true, up to \p max_cycles.
/// All refinement happens synchronously on the calling thread, so the
/// outcome depends only on seeds and configuration — never on how busy
/// the host machine is. \return true when \p done held before the budget
/// ran out.
inline bool DriveUntil(HolisticEngine& engine,
                       const std::function<bool()>& done,
                       size_t max_cycles = 1000) {
  for (size_t i = 0; i < max_cycles; ++i) {
    if (done()) return true;
    engine.RunOneCycle();
  }
  return done();
}

/// Bounded wait for tests that exercise the real tuning thread: polls
/// \p done until it holds or \p max_wait elapses. Use only to observe
/// progress of an engine that is Start()ed; prefer DriveUntil for
/// everything else.
inline bool WaitForProgress(
    const std::function<bool()>& done,
    std::chrono::milliseconds max_wait = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + max_wait;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// --- One-predicate queries --------------------------------------------------

/// The §3.1 select shapes as one-predicate specs, through Execute on a
/// Database or a Session ...
template <typename E>
size_t CountOf(E& e, const ColumnHandle& h, KeyScalar lo, KeyScalar hi) {
  return static_cast<size_t>(
      e.Execute(QuerySpec().Where(h, lo, hi).Count()).values[0].i);
}
template <typename E>
KeyScalar SumOf(E& e, const ColumnHandle& h, KeyScalar lo, KeyScalar hi) {
  return e.Execute(QuerySpec().Where(h, lo, hi).Sum(h)).values[0];
}
template <typename E>
PositionList RowIdsOf(E& e, const ColumnHandle& h, KeyScalar lo, KeyScalar hi) {
  return e.Execute(QuerySpec().Where(h, lo, hi).RowIds()).rowids;
}

/// ... and through one-predicate ExecuteQuery frames on a HolixClient
/// (result kind 0 count, 1 sum, 3 project-sum of \p sum_col).
template <typename C>
KeyScalar WireQuery(C& c, uint64_t sid, const std::string& table,
                    const std::string& col, KeyScalar lo, KeyScalar hi,
                    uint8_t kind = 0, const std::string& sum_col = "") {
  return c.ExecuteQuery(sid, table, {{col, lo, hi}}, {{kind, sum_col}})
      .values[0];
}
template <typename C>
uint64_t WireCount(C& c, uint64_t sid, const std::string& table,
                   const std::string& col, KeyScalar lo, KeyScalar hi) {
  return static_cast<uint64_t>(WireQuery(c, sid, table, col, lo, hi).i);
}
template <typename C>
uint64_t AwaitCount(C& c, uint64_t request_id) {
  return static_cast<uint64_t>(c.AwaitExecuteQuery(request_id).values[0].i);
}

}  // namespace test
}  // namespace holix

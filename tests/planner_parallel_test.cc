// Every replan plans serially; EngineConfig::plan_pool is read by nothing
// but is still assigned by perfbench's sfbench (a 4-wide pool). A pool on
// the engine config must therefore change nothing the planner does: the
// same plan counters and the same replay at any pool width as without one.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/policy.h"
#include "core/sunflow.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "sim/engine/scenario.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

SunflowConfig Config() {
  SunflowConfig c;
  c.bandwidth = Gbps(1);
  c.delta = Millis(10);
  return c;
}

// core.plan.retries / core.plan.wake_instants are tallied once per
// ScheduleOne call, so a replay that plans the same requests in the same
// order records the same counts whatever pool the engine config carries.
TEST(PlannerParallel, PlanCountersIdenticalAcrossPoolWidths) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 30;
  cfg.num_ports = 32;
  cfg.seed = 20161212;
  const Trace trace = GenerateSyntheticTrace(cfg);
  const auto policy = MakeShortestFirstPolicy();

  struct Run {
    engine::EngineResult result;
    std::array<std::uint64_t, 2> counts;  // {retries, wake_instants}
  };
  // Replays `trace` on a pool of `threads` (0: no pool) and records the
  // plan counter deltas.
  const auto run = [&](int threads) {
    static constexpr const char* kNames[] = {"core.plan.retries",
                                             "core.plan.wake_instants"};
    const auto read = [] {
      std::array<std::uint64_t, 2> v{};
      for (std::size_t i = 0; i < v.size(); ++i) {
        const obs::Counter* c = obs::GlobalMetrics().FindCounter(kNames[i]);
        v[i] = c != nullptr ? c->value() : 0;
      }
      return v;
    };
    std::unique_ptr<runtime::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<runtime::ThreadPool>(threads);
    engine::EngineConfig ec;
    ec.sunflow = Config();
    ec.plan_pool = pool.get();
    const auto before = read();
    Run r{engine::ScenarioRegistry::Global().Run("circuit", trace,
                                                 policy.get(), ec),
          {}};
    const auto after = read();
    for (std::size_t i = 0; i < after.size(); ++i)
      r.counts[i] = after[i] - before[i];
    return r;
  };

  const Run serial = run(0);
  EXPECT_GT(serial.counts[0], serial.result.replans);
  EXPECT_GT(serial.counts[1], 0u);
  for (int threads : {1, 4}) {
    const Run pooled = run(threads);
    EXPECT_EQ(pooled.counts[0], serial.counts[0]) << "threads " << threads;
    EXPECT_EQ(pooled.counts[1], serial.counts[1]) << "threads " << threads;
    EXPECT_EQ(pooled.result.cct, serial.result.cct) << "threads " << threads;
    EXPECT_EQ(pooled.result.reservations, serial.result.reservations);
    EXPECT_EQ(pooled.result.replans, serial.result.replans);
  }
}

}  // namespace
}  // namespace sunflow

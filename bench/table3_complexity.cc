// Table 3 (+ §6 "Scheduler latency"): scheduler computation time.
//
// Paper: Edmonds O(N³), TMS O(N^4.5), Solstice O(N³ log² N) — all scale
// with the fabric size N — while Sunflow is O(|C|²), scaling with the
// coflow's own footprint. §6 reports < 1 s for coflows with up to 3000
// subflows.
//
// google-benchmark binary: Sunflow is swept over |C| and the baselines over
// N, so the asymptotic difference is directly visible in the timings. The
// custom main additionally writes a run manifest (--manifest_out=...) so
// bench/harness.py covers this bench like every other, and swallows the
// shared sunflow bench flags (--coflows etc.) google-benchmark would
// otherwise reject — the workloads here are fixed by the BENCHMARK args.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/manifest.h"

#include "common/rng.h"
#include "core/sunflow.h"
#include "exp/intra_runner.h"
#include "sched/edmonds.h"
#include "sched/solstice.h"
#include "sched/tms.h"
#include "core/prt.h"
#include "matching/decomposition.h"
#include "trace/demand_matrix.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

// Dense many-to-many coflow with ~|C| = width² subflows on a fabric big
// enough to hold it.
Coflow DenseCoflow(int width, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(width) *
                static_cast<std::size_t>(width));
  for (PortId i = 0; i < width; ++i)
    for (PortId j = 0; j < width; ++j)
      flows.push_back({i, j, MB(rng.Uniform(1, 50))});
  return Coflow(1, 0, std::move(flows));
}

DemandMatrix RandomMatrix(int n, std::uint64_t seed, double density = 0.5) {
  Rng rng(seed);
  std::vector<std::vector<Time>> e(
      static_cast<std::size_t>(n),
      std::vector<Time>(static_cast<std::size_t>(n), 0));
  for (auto& row : e)
    for (auto& v : row)
      if (rng.Bernoulli(density)) v = rng.Uniform(0.01, 0.5);
  e[0][0] = std::max(e[0][0], 0.1);
  return DemandMatrix(e);
}

void BM_SunflowIntra(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const Coflow coflow = DenseCoflow(width, 1);
  SunflowConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ScheduleSingleCoflow(coflow, static_cast<PortId>(width), cfg));
  }
  state.SetLabel("|C|=" + std::to_string(coflow.size()));
}
// width 55 ≈ the §6 "3000 subflows" latency claim.
BENCHMARK(BM_SunflowIntra)->Arg(8)->Arg(16)->Arg(32)->Arg(55);

void BM_Solstice(benchmark::State& state) {
  const DemandMatrix demand =
      RandomMatrix(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScheduleSolstice(demand));
  }
}
BENCHMARK(BM_Solstice)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_Tms(benchmark::State& state) {
  const DemandMatrix demand =
      RandomMatrix(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScheduleTms(demand));
  }
}
BENCHMARK(BM_Tms)->Arg(16)->Arg(32)->Arg(64);

void BM_Edmonds(benchmark::State& state) {
  const DemandMatrix demand =
      RandomMatrix(static_cast<int>(state.range(0)), 4);
  EdmondsConfig cfg;
  cfg.slot_duration = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScheduleEdmonds(demand, cfg));
  }
}
BENCHMARK(BM_Edmonds)->Arg(16)->Arg(32)->Arg(64);

// Sunflow on a sparse coflow over a HUGE fabric: complexity tracks |C|,
// not N (the baselines cannot do this).
void BM_SunflowSparseHugeFabric(benchmark::State& state) {
  Rng rng(5);
  std::vector<Flow> flows;
  const PortId fabric = 4096;
  for (int k = 0; k < 64; ++k) {
    const PortId s = static_cast<PortId>(rng.UniformInt(0, fabric - 1));
    const PortId d = static_cast<PortId>(rng.UniformInt(0, fabric - 1));
    bool dup = false;
    for (const auto& f : flows)
      if (f.src == s && f.dst == d) dup = true;
    if (!dup) flows.push_back({s, d, MB(rng.Uniform(1, 50))});
  }
  const Coflow coflow(1, 0, std::move(flows));
  SunflowConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScheduleSingleCoflow(coflow, fabric, cfg));
  }
  state.SetLabel("N=4096, |C|=64");
}
BENCHMARK(BM_SunflowSparseHugeFabric);

// Whole-trace intra sweep through the runtime engine: per-coflow
// schedules fan out across the pool, so this directly measures the
// SweepRunner speedup available to every fig* target. Arg = thread count.
void BM_IntraSweep(benchmark::State& state) {
  SyntheticTraceConfig tc;
  tc.num_coflows = 200;
  tc.num_ports = 32;
  const Trace trace = GenerateSyntheticTrace(tc);
  exp::IntraRunConfig cfg;
  cfg.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exp::RunIntra(trace, exp::IntraAlgorithm::kSunflow, cfg));
  }
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_IntraSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- Substrate micro-benchmarks: the data structures behind Table 3. ---

void BM_PrtReserve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    FabricReservationTable prt(static_cast<PortId>(n));
    // n back-to-back reservations per port pair chain.
    Time t = 0;
    for (int k = 0; k < n; ++k) {
      prt.Reserve({static_cast<PortId>(k % n),
                   static_cast<PortId>((k + 1) % n), t, t + 0.5, 0.01, 1});
      t += 0.6;
    }
    benchmark::DoNotOptimize(prt.NextReleaseAfter(0.0));
  }
}
BENCHMARK(BM_PrtReserve)->Arg(64)->Arg(256)->Arg(1024);

void BM_QuickStuff(benchmark::State& state) {
  const DemandMatrix demand =
      RandomMatrix(static_cast<int>(state.range(0)), 6);
  for (auto _ : state) {
    DemandMatrix m = demand;
    benchmark::DoNotOptimize(QuickStuff(m));
  }
}
BENCHMARK(BM_QuickStuff)->Arg(32)->Arg(128);

void BM_BvnDecompose(benchmark::State& state) {
  DemandMatrix demand = RandomMatrix(static_cast<int>(state.range(0)), 7);
  QuickStuff(demand);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BvnDecompose(demand));
  }
}
BENCHMARK(BM_BvnDecompose)->Arg(16)->Arg(32)->Arg(64);

}  // namespace
}  // namespace sunflow

int main(int argc, char** argv) {
  std::string manifest_out;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--manifest_out=", 0) == 0) {
      manifest_out = std::string(arg.substr(15));
      continue;
    }
    // Shared sunflow bench flags the harness appends to every bench; the
    // fixed BENCHMARK args define the workloads here, so they are no-ops.
    static constexpr std::string_view kIgnored[] = {
        "--coflows=", "--ports=",   "--seed=",  "--perturb=",
        "--threads=", "--trace=",   "--engine=",
    };
    bool ignored = false;
    for (const std::string_view prefix : kIgnored) {
      if (arg.rfind(prefix, 0) == 0) ignored = true;
    }
    if (ignored) continue;
    passthrough.push_back(argv[i]);
  }
  auto manifest =
      sunflow::obs::RunManifest::Begin("table3_complexity", argc, argv);
  int pass_argc = static_cast<int>(passthrough.size());
  passthrough.push_back(nullptr);
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!manifest_out.empty()) {
    manifest.Finalize();
    manifest.WriteFile(manifest_out);
    std::printf("wrote run manifest to %s\n", manifest_out.c_str());
  }
  return 0;
}

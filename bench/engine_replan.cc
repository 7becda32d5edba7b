// Microbenchmark of the discrete-event kernel's plan/execute/replan loop
// (sim/engine): wall-clock replans/sec for a whole-trace replay, plus the
// event-queue traffic and the planner's retry walk (core.plan.retries /
// core.plan.wake_instants) the run generated. Throughput lands in the metrics
// registry as engine.replans_per_sec next to the driver-maintained
// engine.event_pushes / engine.event_pops counters, and the run manifest
// carries the phase breakdown (engine.execute / core.plan / ...) next to
// the scheduler.compute_ns planning histogram, so one run yields
// everything a regression dashboard needs. --sweep_ports replays the same
// synthetic workload across fabric sizes and records, per port count, the
// wall time, the planner's retries per reservation, its wake instants and
// the replan-latency distribution.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/policy.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "runtime/thread_pool.h"
#include "sim/engine/scenario.h"
#include "trace/generator.h"

namespace {

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

// Full-precision CCT dump, one "<label> <coflow> <cct>" line per coflow in
// id order. Wall-clock never enters the file, so two runs of the same
// workload must produce byte-identical dumps at any --threads value — the
// determinism contract CI enforces by diffing --threads=1 against
// --threads=8.
void DumpCcts(std::ofstream& out, const std::string& label,
              const std::map<sunflow::CoflowId, sunflow::Time>& cct) {
  char buf[64];
  for (const auto& [id, t] : cct) {
    std::snprintf(buf, sizeof(buf), "%.17g", t);
    out << label << " " << id << " " << buf << "\n";
  }
}

// The session's synthetic workload regenerated at another size: same
// seed and flow-size perturbation as the main run (bench_util.h).
sunflow::Trace SyntheticWorkload(int coflows, int ports, std::int64_t seed,
                                 double perturb) {
  sunflow::SyntheticTraceConfig cfg;
  cfg.num_coflows = coflows;
  cfg.num_ports = static_cast<sunflow::PortId>(ports);
  cfg.seed = static_cast<std::uint64_t>(seed);
  sunflow::Trace trace = sunflow::GenerateSyntheticTrace(cfg);
  if (perturb > 0) {
    trace = sunflow::PerturbFlowSizes(trace, perturb, sunflow::MB(1),
                                      static_cast<std::uint64_t>(seed) + 1);
  }
  return trace;
}

// Merged value of a GlobalMetrics() counter. Read only between replays,
// once the pool has quiesced.
std::uint64_t CounterValue(const char* name) {
  const sunflow::obs::Counter* c =
      sunflow::obs::GlobalMetrics().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sunflow;
  bench::BenchSession session(
      argc, argv,
      {.name = "engine_replan",
       .help = "Microbench: kernel replans/sec and queue traffic",
       .engine_default = "circuit"});
  const auto repeat = session.flags().GetInt(
      "repeat", 3, "timed whole-trace replay repetitions");
  const std::string sweep_csv = session.flags().GetString(
      "sweep_coflows", "",
      "comma-separated coflow counts (e.g. 20,40,80,160): additionally "
      "replay a regenerated synthetic workload at each count and record "
      "sweep.N<k>.replans_per_sec in the manifest");
  const std::string sweep_ports_csv = session.flags().GetString(
      "sweep_ports", "",
      "comma-separated port counts (e.g. 40,150,512,1024): additionally "
      "replay the synthetic workload (same coflows / seed / perturbation) "
      "once per port count and record sweep_ports.P<k>.{wall_ms, "
      "retries_per_reservation, wake_instants, replan_p50_us, "
      "replan_p99_us, replan_max_us} in the manifest");
  const std::string cct_out = session.flags().GetString(
      "cct_out", "",
      "write per-coflow CCTs (full precision, deterministic order) to this "
      "file; byte-identical across --threads values");
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();
  const std::string& engine_name = session.engine();

  const auto policy = MakeShortestFirstPolicy();
  // The pool drives intra-replan group planning (scenario plan_pool);
  // --threads=1 exercises the serial fallback.
  runtime::ThreadPool pool(session.threads());
  engine::EngineConfig ec;
  ec.plan_pool = &pool;

  std::ofstream cct_file;
  if (!cct_out.empty()) {
    cct_file.open(cct_out);
    if (!cct_file) {
      std::cerr << "cannot open --cct_out file: " << cct_out << "\n";
      return 1;
    }
  }

  TextTable table("replan-loop throughput (" + engine_name + ")");
  table.SetHeader({"run", "replans", "wall ms", "replans/sec", "evq pushes",
                   "evq pops", "evq hwm", "plan retries", "wake instants"});
  auto& throughput =
      obs::GlobalMetrics().GetHistogram("engine.replans_per_sec");
  double best_rps = 0;
  for (int r = 0; r < repeat; ++r) {
    // Sample only the first timed replay — BeginRun resets the sampler,
    // so attaching every repetition would keep just the last.
    ec.timeline = r == 0 ? session.timeline() : nullptr;
    const std::uint64_t retries = CounterValue("core.plan.retries");
    const std::uint64_t instants = CounterValue("core.plan.wake_instants");
    const auto begin = std::chrono::steady_clock::now();
    const engine::EngineResult result =
        engine::ScenarioRegistry::Global().Run(engine_name, w.trace,
                                               policy.get(), ec);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    const double rps = seconds > 0 ? result.replans / seconds : 0;
    throughput.Record(rps);
    best_rps = std::max(best_rps, rps);
    table.AddRow({std::to_string(r), std::to_string(result.replans),
                  TextTable::Fmt(seconds * 1e3, 2), TextTable::Fmt(rps, 0),
                  std::to_string(result.queue.pushes),
                  std::to_string(result.queue.pops),
                  std::to_string(result.queue.depth_high_water),
                  std::to_string(CounterValue("core.plan.retries") - retries),
                  std::to_string(CounterValue("core.plan.wake_instants") -
                                 instants)});
    if (cct_file.is_open() && r == 0) DumpCcts(cct_file, "main", result.cct);
  }
  table.AddFootnote(
      "engine.event_pushes / engine.event_pops and core.plan.retries / "
      "core.plan.wake_instants accumulate in the metrics registry "
      "(--metrics / --metrics_csv)");
  table.Print(std::cout);
  session.AddManifestValue("replans_per_sec_best", best_rps);

  // Scaling sweep: regenerate the synthetic workload at each requested
  // coflow count (same ports / seed / perturbation as the main run) and
  // record per-N throughput, so a regression harness can check that
  // replan cost stays sub-quadratic in the active-set size.
  if (!sweep_csv.empty()) {
    const auto ports = session.flags().GetInt("ports", 150);
    const auto seed = session.flags().GetInt("seed", 20161212);
    const double perturb = session.flags().GetDouble("perturb", 0.05);
    TextTable sweep_table("replan scaling sweep (" + engine_name + ")");
    sweep_table.SetHeader({"coflows", "replans", "best replans/sec"});
    for (const int n : ParseIntList(sweep_csv)) {
      const Trace trace =
          SyntheticWorkload(n, static_cast<int>(ports), seed, perturb);
      double best = 0;
      int replans = 0;
      for (int r = 0; r < repeat; ++r) {
        const auto begin = std::chrono::steady_clock::now();
        const engine::EngineResult result =
            engine::ScenarioRegistry::Global().Run(engine_name, trace,
                                                   policy.get(), ec);
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - begin)
                                   .count();
        best = std::max(best, seconds > 0 ? result.replans / seconds : 0);
        replans = result.replans;
        if (cct_file.is_open() && r == 0) {
          DumpCcts(cct_file, "sweep.N" + std::to_string(n), result.cct);
        }
      }
      sweep_table.AddRow({std::to_string(n), std::to_string(replans),
                          TextTable::Fmt(best, 0)});
      session.AddManifestValue(
          "sweep.N" + std::to_string(n) + ".replans_per_sec", best);
    }
    sweep_table.Print(std::cout);
  }

  // Port sweep: one cold replay of the synthetic workload per fabric size.
  // Retries per reservation is the planner's herd measure (a port release
  // should retry the flows that can still take the port, not every flow
  // waiting on it); the replan latencies come from a private timeline
  // sampler, whose per-span accounting costs little next to planning.
  if (!sweep_ports_csv.empty()) {
    const auto coflows = session.flags().GetInt("coflows", 526);
    const auto seed = session.flags().GetInt("seed", 20161212);
    const double perturb = session.flags().GetDouble("perturb", 0.05);
    TextTable ports_table("replan port sweep (" + engine_name + ", " +
                          std::to_string(coflows) + " coflows)");
    ports_table.SetHeader({"ports", "replans", "wall ms", "plan retries",
                           "reservations", "retries/res", "wake instants",
                           "replan p50 ms", "p99 ms", "max ms"});
    for (const int ports : ParseIntList(sweep_ports_csv)) {
      const Trace trace =
          SyntheticWorkload(static_cast<int>(coflows), ports, seed, perturb);
      obs::TimelineSampler latency;
      ec.timeline = &latency;
      const std::uint64_t retries0 = CounterValue("core.plan.retries");
      const std::uint64_t instants0 = CounterValue("core.plan.wake_instants");
      const auto begin = std::chrono::steady_clock::now();
      const engine::EngineResult result =
          engine::ScenarioRegistry::Global().Run(engine_name, trace,
                                                 policy.get(), ec);
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - begin)
                                 .count();
      ec.timeline = nullptr;
      const std::uint64_t retries =
          CounterValue("core.plan.retries") - retries0;
      const std::uint64_t instants =
          CounterValue("core.plan.wake_instants") - instants0;
      std::uint64_t reservations = 0;
      for (const auto& [id, n] : result.reservations) {
        reservations += static_cast<std::uint64_t>(n);
      }
      const double per_res =
          reservations > 0 ? static_cast<double>(retries) /
                                 static_cast<double>(reservations)
                           : 0;
      const obs::ReplanSloStats slo = latency.Summarize().slo;
      ports_table.AddRow(
          {std::to_string(ports), std::to_string(result.replans),
           TextTable::Fmt(wall_ms, 1), std::to_string(retries),
           std::to_string(reservations), TextTable::Fmt(per_res, 2),
           std::to_string(instants), TextTable::Fmt(slo.p50_ns / 1e6, 3),
           TextTable::Fmt(slo.p99_ns / 1e6, 3),
           TextTable::Fmt(slo.max_ns / 1e6, 3)});
      const std::string key = "sweep_ports.P" + std::to_string(ports) + ".";
      session.AddManifestValue(key + "wall_ms", wall_ms);
      session.AddManifestValue(key + "retries_per_reservation", per_res);
      session.AddManifestValue(key + "wake_instants",
                               static_cast<double>(instants));
      session.AddManifestValue(key + "replan_p50_us", slo.p50_ns / 1e3);
      session.AddManifestValue(key + "replan_p99_us", slo.p99_ns / 1e3);
      session.AddManifestValue(key + "replan_max_us", slo.max_ns / 1e3);
      if (cct_file.is_open()) {
        DumpCcts(cct_file, "sweep_ports.P" + std::to_string(ports),
                 result.cct);
      }
    }
    ports_table.AddFootnote(
        "retries/res = core.plan.retries / reservations planned (first "
        "pass included); replan latency is wall time per replan");
    ports_table.Print(std::cout);
  }
  return session.Finish();
}

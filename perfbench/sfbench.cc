// sfbench — one cold pass of a benchmark workload (see perfbench/README.md).
//
// Each process builds its workload from the seed (the timed set-up), runs
// the workload's timed phase exactly once — the first replay of the
// process, so no plan memo, arena or pool state is warm — checks the
// outputs and prints one JSON object of raw measurements on stdout.
// perfbench/run.py spawns passes and aggregates them.
//
//   sfbench --workload fb512|intra150 --seed N --work DIR
//           [--traced 0|1] [--setup_only 0|1]
//
// Layers are timed from outside, around calls into public functions:
// ScenarioPolicy::ExecuteSpan (forwarding scenario), PriorityPolicy::Order
// (forwarding policy), CoflowSource::Next (forwarding source), the
// completion sink, ScheduleSingleCoflow and the lower bounds. The untraced
// pass keeps only the per-operation latency clock (two clock reads per
// operation); the traced pass records one span per call and writes the
// spans to DIR at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/policy.h"
#include "core/sunflow.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "sim/engine/driver.h"
#include "sim/engine/scenario.h"
#include "sunflow_version.h"
#include "trace/bounds.h"
#include "trace/generator.h"
#include "trace/stream.h"

namespace {

using namespace sunflow;
using Clock = std::chrono::steady_clock;

double Sec(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- Command line -------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::string work;
  bool traced = false;
  bool setup_only = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--work") {
      a.work = value;
    } else if (key == "--traced") {
      a.traced = value == "1";
    } else if (key == "--setup_only") {
      a.setup_only = value == "1";
    } else {
      throw std::runtime_error("unknown flag " + key);
    }
  }
  if (argc % 2 == 0)
    throw std::runtime_error("flags come in --key value pairs");
  if (a.workload.empty() || a.work.empty())
    throw std::runtime_error("--workload and --work are required");
  return a;
}

// --- Spans --------------------------------------------------------------

struct Span {
  const char* name = "";
  Clock::time_point begin;
  Clock::time_point end;
  std::int32_t parent = -1;
  std::int64_t request = -1;  ///< replan index or coflow id
  double Dur() const { return Sec(end - begin); }
};

// Single-threaded span stack for the fb512 replay (every wrapped call
// runs on the driver thread).
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  std::int32_t Open(const char* name, std::int64_t request) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(
        {name, {}, {}, stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(idx);
    spans_.back().begin = Clock::now();
    return idx;
  }
  void Close(std::int32_t idx) {
    const auto now = Clock::now();
    spans_[static_cast<std::size_t>(idx)].end = now;
    stack_.pop_back();
  }
  Span& at(std::int32_t idx) { return spans_[static_cast<std::size_t>(idx)]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// Tab-separated: name, begin_ns, end_ns (from the first span's begin),
// parent index, request id.
void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "name\tbegin_ns\tend_ns\tparent\trequest\n");
  const Clock::time_point origin = spans.empty() ? Clock::time_point{}
                                                 : spans.front().begin;
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%" PRId64 "\t%" PRId64 "\t%d\t%" PRId64 "\n", s.name,
                 static_cast<std::int64_t>((s.begin - origin).count()),
                 static_cast<std::int64_t>((s.end - origin).count()),
                 s.parent, s.request);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

// --- Forwarding layers --------------------------------------------------

// What the forwarding wrappers share during one replay.
struct Probe {
  std::vector<double> op_latency_s;  ///< one per ExecuteSpan
  SpanLog* spans = nullptr;          ///< traced pass only
  std::int64_t replan = -1;          ///< index of the current ExecuteSpan
  // Traced-pass partition checks, per ExecuteSpan: the program's own
  // planner clock plus the Order children must fit inside the span.
  const obs::Histogram* plan_ns = nullptr;
  double order_in_span_s = 0;
  double worst_nesting_excess_s = 0;
};

class TimedPolicy final : public PriorityPolicy {
 public:
  TimedPolicy(const PriorityPolicy& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}
  std::string name() const override { return inner_.name(); }
  std::vector<std::size_t> Order(
      const std::vector<CoflowView>& views) const override {
    const std::int32_t s = probe_.spans->Open("core.order", probe_.replan);
    std::vector<std::size_t> order = inner_.Order(views);
    probe_.spans->Close(s);
    probe_.order_in_span_s += probe_.spans->at(s).Dur();
    return order;
  }

 private:
  const PriorityPolicy& inner_;
  Probe& probe_;
};

class TimedScenario final : public engine::ScenarioPolicy {
 public:
  TimedScenario(std::unique_ptr<engine::ScenarioPolicy> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  void OnAdmit(engine::SimCoflow& sc, const Coflow& coflow,
               Time now) override {
    inner_->OnAdmit(sc, coflow, now);
  }
  void OnComplete(engine::SimState& state, const engine::SimCoflow& sc,
                  Time finish) override {
    inner_->OnComplete(state, sc, finish);
  }
  void OnIdleGap(engine::SimState& state, Time now) override {
    inner_->OnIdleGap(state, now);
  }
  std::size_t StepBudget(const engine::SimState& state) const override {
    return inner_->StepBudget(state);
  }
  const char* budget_message() const override {
    return inner_->budget_message();
  }

  Time ExecuteSpan(engine::ReplayDriver& driver, Time now) override {
    ++probe_.replan;
    if (probe_.spans == nullptr) {
      const auto begin = Clock::now();
      const Time next = inner_->ExecuteSpan(driver, now);
      probe_.op_latency_s.push_back(Sec(Clock::now() - begin));
      return next;
    }
    const double plan_before_ns = probe_.plan_ns->sum();
    probe_.order_in_span_s = 0;
    const std::int32_t s =
        probe_.spans->Open("engine.execute_span", probe_.replan);
    const Time next = inner_->ExecuteSpan(driver, now);
    probe_.spans->Close(s);
    const double dur = probe_.spans->at(s).Dur();
    probe_.op_latency_s.push_back(dur);
    const double inner_s =
        (probe_.plan_ns->sum() - plan_before_ns) * 1e-9 +
        probe_.order_in_span_s;
    probe_.worst_nesting_excess_s =
        std::max(probe_.worst_nesting_excess_s, inner_s - dur);
    return next;
  }

 private:
  std::unique_ptr<engine::ScenarioPolicy> inner_;
  Probe& probe_;
};

class TimedSource final : public CoflowSource {
 public:
  TimedSource(CoflowSource& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}
  PortId num_ports() const override { return inner_.num_ports(); }
  std::optional<std::uint64_t> size_hint() const override {
    return inner_.size_hint();
  }
  bool Next(Coflow& out) override {
    const std::int32_t s = probe_.spans->Open("trace.next", -1);
    const bool ok = inner_.Next(out);
    probe_.spans->Close(s);
    if (ok) probe_.spans->at(s).request = out.id();
    return ok;
  }

 private:
  CoflowSource& inner_;
  Probe& probe_;
};

// --- Results and checks -------------------------------------------------

struct Completion {
  CoflowId id = -1;
  Time cct = 0;
};

// FNV-1a over "<id> <cct %.17g>\n" lines in id order: equal digests mean
// byte-identical full-precision CCT dumps.
std::string CctDigest(std::vector<Completion> done) {
  std::sort(done.begin(), done.end(),
            [](const Completion& a, const Completion& b) {
              return a.id < b.id;
            });
  std::uint64_t h = 1469598103934665603ULL;
  char line[96];
  for (const Completion& c : done) {
    const int n = std::snprintf(line, sizeof(line), "%lld %.17g\n",
                                static_cast<long long>(c.id), c.cct);
    for (int i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(line[i]);
      h *= 1099511628211ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
  return hex;
}

// Checks every expected coflow completed exactly once and that its CCT
// lies in [lower(id), upper(id)] (kTimeEps slack). Returns the number of
// coflows failing any check, counting unexpected ids as failures too.
template <typename Lower, typename Upper>
std::uint64_t CountFailures(const std::vector<CoflowId>& expected,
                            const std::vector<Completion>& done, Lower lower,
                            Upper upper) {
  std::map<CoflowId, std::vector<Time>> seen;
  for (const Completion& c : done) seen[c.id].push_back(c.cct);
  std::uint64_t failed = 0;
  for (CoflowId id : expected) {
    auto it = seen.find(id);
    if (it == seen.end() || it->second.size() != 1) {
      ++failed;
    } else {
      const Time cct = it->second.front();
      if (!(cct >= lower(id) - kTimeEps && cct <= upper(id) + kTimeEps))
        ++failed;
    }
    if (it != seen.end()) seen.erase(it);
  }
  return failed + seen.size();
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Counter(const char* name) {
  const obs::Counter* c = obs::GlobalMetrics().FindCounter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

double HistogramSum(const char* name) {
  const obs::Histogram* h = obs::GlobalMetrics().FindHistogram(name);
  return h == nullptr ? 0.0 : h->sum();
}

// Shared tail of every pass: end-to-end figures, counters, the verdict.
void EmitRun(obs::JsonValue& out, double run_s,
             const std::vector<double>& latency_s,
             const std::vector<Completion>& done, std::uint64_t checked,
             std::uint64_t failed) {
  double cct_sum = 0;
  for (const Completion& c : done) cct_sum += c.cct;
  out["run_s"] = run_s;
  out["ops"] = latency_s.size();
  out["latency_p50_us"] = stats::Percentile(latency_s, 50) * 1e6;
  out["latency_p98_us"] = stats::Percentile(latency_s, 98) * 1e6;
  // Every operation, so a run can take percentiles over all its passes.
  obs::JsonValue& all = out["latency_us"];
  all = obs::JsonValue::MakeArray();
  for (double s : latency_s) all.Append(s * 1e6);
  out["coflows"] = done.size();
  out["coflows_per_s"] = static_cast<double>(done.size()) / run_s;
  out["cct_mean_s"] =
      done.empty() ? 0.0 : cct_sum / static_cast<double>(done.size());
  out["cct_digest"] = CctDigest(done);
  out["checked"] = checked;
  out["failed"] = failed;
  const double plan_hits = Counter("plan.cache_hits");
  const double plan_lookups = plan_hits + Counter("plan.cache_misses");
  out["core.plan_s"] = HistogramSum("scheduler.compute_ns") * 1e-9;
  out["core.memo_hit_ratio"] =
      plan_lookups > 0 ? plan_hits / plan_lookups : 0.0;
  out["plan.parallel_replans"] = Counter("plan.parallel_replans");
  out["engine.event_pops"] = Counter("engine.event_pops");
}

// --- fb512 ----------------------------------------------------------------

// Coflows per pass. fb512 keeps the whole 300-coflow hour (its cost sits in
// a few tail replans, so a prefix would change what it measures); intra150
// is sized for many passes per run.
constexpr int kFb512Coflows = 300;
constexpr int kIntra150Coflows = 2000;

// The generator's default-seeded FB-like trace (300 coflows per hour, the
// Table 4 mix) cut to its first `coflows` arrivals, with the run seed
// drawing the ±5% size perturbation of paper §5.1. Scaling the horizon
// with the count keeps the Poisson gap mean, so every size is a prefix of
// the same arrival sequence.
Trace MakeFbTrace(PortId ports, int coflows, std::uint64_t seed) {
  SyntheticTraceConfig cfg;
  cfg.num_ports = ports;
  cfg.num_coflows = coflows;
  cfg.horizon = 3600.0 * coflows / 300.0;
  return PerturbFlowSizes(GenerateSyntheticTrace(cfg), 0.05, MB(1), seed);
}

// Pools never exceed min(4, nproc).
int PoolWidth() { return std::min(4, runtime::HardwareConcurrency()); }

void RunReplay(const Args& args, obs::JsonValue& out) {
  const std::string sft =
      args.work + "/fb512-" + std::to_string(args.seed) + ".sft";
  const int width = PoolWidth();

  // Set-up: trace, .sft, policy, pool. The in-memory trace is dropped once
  // written, so the pass holds only what the stream keeps in flight.
  const auto setup_begin = Clock::now();
  PortId ports = 0;
  double write_s = 0;
  {
    const Trace trace = MakeFbTrace(512, kFb512Coflows, args.seed);
    ports = trace.num_ports;
    const auto w = Clock::now();
    TraceWriter writer(sft, ports);
    for (const Coflow& c : trace.coflows) writer.Append(c);
    writer.Close();
    write_s = Sec(Clock::now() - w);
  }
  const double trace_s = Sec(Clock::now() - setup_begin);
  const auto policy = MakeShortestFirstPolicy();
  std::unique_ptr<runtime::ThreadPool> pool;
  if (width > 1) pool = std::make_unique<runtime::ThreadPool>(width);
  const auto setup_end = Clock::now();
  out["setup_s"] = Sec(setup_end - setup_begin);
  out["trace.generate_s"] = trace_s - write_s;
  out["trace.write_s"] = write_s;
  out["pool_width"] = width;
  if (args.setup_only) {
    std::filesystem::remove(sft);
    return;
  }

  // Timed phase: one streamed replay through the forwarding layers.
  Probe probe;
  probe.op_latency_s.reserve(4 * static_cast<std::size_t>(kFb512Coflows));
  SpanLog spans;
  if (args.traced) {
    probe.spans = &spans;
    // NoteReplan records on the driver thread's shard: this reference
    // sees the planner clock advance span by span.
    probe.plan_ns = &obs::GlobalMetrics().GetHistogram("scheduler.compute_ns");
  }
  TimedPolicy timed_policy(*policy, probe);
  const PriorityPolicy& used_policy =
      args.traced ? static_cast<const PriorityPolicy&>(timed_policy) : *policy;
  engine::EngineConfig ec;
  ec.plan_pool = pool.get();
  TimedScenario scenario(
      engine::MakeCircuitScenario(ports, used_policy, ec), probe);

  std::vector<Completion> done;
  done.reserve(static_cast<std::size_t>(kFb512Coflows));
  std::uint64_t reservations = 0;
  TraceReader reader(sft);
  TimedSource timed_source(reader, probe);
  CoflowSource& source =
      args.traced ? static_cast<CoflowSource&>(timed_source) : reader;
  engine::CompletionSink sink = [&](const engine::CompletionRecord& rec) {
    done.push_back({rec.id, rec.cct});
    reservations += static_cast<std::uint64_t>(rec.reservations);
  };
  if (args.traced) {
    sink = [&, untimed = sink](const engine::CompletionRecord& rec) {
      const std::int32_t s = spans.Open("engine.sink", rec.id);
      untimed(rec);
      spans.Close(s);
    };
  }
  const std::int32_t root = args.traced ? spans.Open("run", -1) : -1;
  const auto run_begin = Clock::now();
  const engine::EngineResult result =
      engine::RunScenarioStream(source, scenario, nullptr, nullptr, sink);
  const auto run_end = Clock::now();
  if (args.traced) spans.Close(root);
  const double run_s = Sec(run_end - run_begin);
  pool.reset();  // quiesce workers before reading the metric shards

  // Output checks (untimed): every coflow exactly once, CCT ≥ TpL.
  std::map<CoflowId, Time> tpl;
  const Bandwidth bandwidth = ec.sunflow.bandwidth;
  {
    TraceReader check(sft);
    Coflow c;
    while (check.Next(c)) tpl[c.id()] = PacketLowerBound(c, bandwidth);
  }
  std::filesystem::remove(sft);
  std::vector<CoflowId> expected;
  expected.reserve(tpl.size());
  for (const auto& [id, b] : tpl) expected.push_back(id);
  const std::uint64_t failed = CountFailures(
      expected, done, [&](CoflowId id) { return tpl.at(id); },
      [](CoflowId) { return kTimeInf; });

  EmitRun(out, run_s, probe.op_latency_s, done, expected.size(), failed);
  out["core.reservations"] = reservations;
  out["engine.spans"] = result.replans;
  if (!args.traced) return;

  // Layer sums. The timed phase is tiled by: driver self time, Next, the
  // sink, and ExecuteSpan = Order + the planner clock + execute self time.
  // Order must nest in an ExecuteSpan and everything else directly in the
  // run, or the sums below would count some interval twice.
  double execute_s = 0;
  double order_s = 0;
  double read_s = 0;
  double sink_s = 0;
  std::uint64_t order_calls = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t misnested = 0;
  const std::vector<Span>& all = spans.spans();
  for (const Span& s : all) {
    const std::string_view name = s.name;
    const std::string_view parent =
        s.parent < 0 ? "" : all[static_cast<std::size_t>(s.parent)].name;
    if (name == "run") continue;
    if (parent != (name == "core.order" ? "engine.execute_span" : "run"))
      ++misnested;
    if (name == "engine.execute_span") {
      execute_s += s.Dur();
    } else if (name == "core.order") {
      order_s += s.Dur();
      ++order_calls;
    } else if (name == "trace.next") {
      read_s += s.Dur();
      ++read_calls;
    } else if (name == "engine.sink") {
      sink_s += s.Dur();
    }
  }
  const double plan_s = HistogramSum("scheduler.compute_ns") * 1e-9;
  out["core.order_s"] = order_s;
  out["core.order_calls"] = order_calls;
  out["trace.read_s"] = read_s;
  out["trace.read_calls"] = read_calls;
  out["engine.sink_s"] = sink_s;
  out["engine.execute_self_s"] = execute_s - plan_s - order_s;
  out["engine.driver_self_s"] = run_s - execute_s - read_s - sink_s;
  out["nesting_excess_s"] = probe.worst_nesting_excess_s;
  out["misnested_spans"] = misnested;
  WriteSpans(args.work + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".tsv",
             spans.spans());
}

// --- intra150 -------------------------------------------------------------

void RunIntra(const Args& args, obs::JsonValue& out) {
  const int width = PoolWidth();
  const auto setup_begin = Clock::now();
  const Trace trace = MakeFbTrace(150, kIntra150Coflows, args.seed);
  const double generate_s = Sec(Clock::now() - setup_begin);
  runtime::ThreadPool pool(width);
  const auto setup_end = Clock::now();
  out["setup_s"] = Sec(setup_end - setup_begin);
  out["trace.generate_s"] = generate_s;
  out["trace.write_s"] = 0.0;
  out["pool_width"] = width;
  if (args.setup_only) return;

  const SunflowConfig config;
  const std::size_t n = trace.coflows.size();
  std::vector<double> latency_s(n);
  std::vector<Time> cct(n);
  std::vector<Time> tcl(n);
  std::vector<std::uint64_t> reservations(n);
  // Traced: two spans per coflow (schedule, bounds) in fixed slots, so
  // workers never share a buffer; slot 0 is the whole timed phase.
  std::vector<Span> spans(args.traced ? 2 * n + 1 : 0);

  const auto run_begin = Clock::now();
  pool.ParallelFor(0, n, [&](std::size_t i) {
    const Coflow& c = trace.coflows[i];
    const auto a = Clock::now();
    const SunflowSchedule s = ScheduleSingleCoflow(c, trace.num_ports, config);
    const auto b = Clock::now();
    latency_s[i] = Sec(b - a);
    tcl[i] = CircuitLowerBound(c, config.bandwidth, config.delta);
    const auto e = Clock::now();
    cct[i] = s.completion_time.at(c.id());
    reservations[i] = s.reservations.size();
    if (args.traced) {
      spans[2 * i + 1] = {"core.schedule_one", a, b, 0, c.id()};
      spans[2 * i + 2] = {"trace.bounds", b, e, 0, c.id()};
    }
  });
  const auto run_end = Clock::now();
  const double run_s = Sec(run_end - run_begin);

  std::vector<Completion> done(n);
  std::vector<CoflowId> expected(n);
  std::map<CoflowId, std::size_t> index;
  std::uint64_t total_reservations = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = trace.coflows[i].id();
    done[i] = {expected[i], cct[i]};
    index[expected[i]] = i;
    total_reservations += reservations[i];
  }
  // Lemma 1: TcL ≤ CCT ≤ 2·TcL for every coflow.
  const std::uint64_t failed = CountFailures(
      expected, done,
      [&](CoflowId id) { return tcl[index.at(id)]; },
      [&](CoflowId id) { return 2 * tcl[index.at(id)]; });

  EmitRun(out, run_s, latency_s, done, n, failed);
  out["core.reservations"] = total_reservations;
  std::uint64_t flows = 0;
  for (const Coflow& c : trace.coflows) flows += c.size();
  out["core.flows"] = flows;
  if (!args.traced) return;

  spans[0] = {"run", run_begin, run_end, -1, -1};
  double schedule_s = 0;
  double bounds_s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    schedule_s += spans[2 * i + 1].Dur();
    bounds_s += spans[2 * i + 2].Dur();
  }
  out["core.schedule_one_s"] = schedule_s;
  out["trace.bounds_s"] = bounds_s;
  out["runtime.pool_busy_frac"] =
      (schedule_s + bounds_s) / (run_s * static_cast<double>(width));
  WriteSpans(args.work + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".tsv",
             spans);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = ParseArgs(argc, argv);
    obs::JsonValue out = obs::JsonValue::MakeObject();
    out["workload"] = args.workload;
    out["seed"] = args.seed;
    out["traced"] = args.traced ? 1 : 0;
    out["build_type"] = SUNFLOW_CMAKE_BUILD_TYPE;
    out["host_nproc"] = runtime::HardwareConcurrency();
    if (args.workload == "fb512") {
      RunReplay(args, out);
    } else if (args.workload == "intra150") {
      RunIntra(args, out);
    } else {
      throw std::runtime_error("unknown workload " + args.workload);
    }
    out["peak_rss_mb"] = PeakRssMb();
    for (const auto& [key, value] : out.AsObject()) {
      if (value.is_number() && !std::isfinite(value.AsNumber()))
        throw std::runtime_error("non-finite " + key);
    }
    std::cout << out.ToString() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfbench: %s\n", e.what());
    return 1;
  }
}

// Tests for the event-indexed wakeup planner (ScheduleOne).
//
// ScheduleOne is differentially tested against ScheduleOneRescan, the
// paper-literal release-chain walk it replaced: over randomized port
// counts, orderings, δ values, quantization and established circuits, both
// paths must produce bit-identical reservations, flow finishes and
// completion times. A herd-scale case drives hundreds of flows onto shared
// ports (K ∈ {1, 2, 4} planes, starts within ε of releases), where the
// per-port waiter lists do their work; it also checks that a traced run
// takes the untraced path and agrees with the traced oracle, and a
// companion test bounds the retries per reservation. A dedicated
// regression test pins the retry-order contract: flows woken at the same
// instant are retried in their original Ordered() positions, never in
// queue-arrival order. Established circuits declared after a request's
// start are a precondition failure, not a silent detour through the
// rescan loop.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "core/sunflow.h"
#include "obs/audit.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace sunflow {
namespace {

void ExpectReservationsEqual(const std::vector<CircuitReservation>& a,
                             const std::vector<CircuitReservation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].in, b[i].in) << "i=" << i;
    EXPECT_EQ(a[i].out, b[i].out) << "i=" << i;
    EXPECT_EQ(a[i].start, b[i].start) << "i=" << i;
    EXPECT_EQ(a[i].end, b[i].end) << "i=" << i;
    EXPECT_EQ(a[i].setup, b[i].setup) << "i=" << i;
    EXPECT_EQ(a[i].coflow, b[i].coflow) << "i=" << i;
    EXPECT_EQ(a[i].plane, b[i].plane) << "i=" << i;
  }
}

void ExpectSchedulesEqual(const SunflowSchedule& a, const SunflowSchedule& b) {
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.flow_finish, b.flow_finish);
  EXPECT_EQ(a.reservation_count, b.reservation_count);
  ExpectReservationsEqual(a.reservations, b.reservations);
}

PlanRequest RandomRequest(Rng& rng, PortId ports, CoflowId id, Time start) {
  PlanRequest req;
  req.coflow = id;
  req.start = start;
  const int flows = rng.UniformInt(1, 14);
  for (int f = 0; f < flows; ++f) {
    FlowDemand d;
    d.src = static_cast<PortId>(rng.UniformInt(0, ports - 1));
    d.dst = static_cast<PortId>(rng.UniformInt(0, ports - 1));
    // Occasional zero-demand flows (skipped by both paths) and heavy
    // duplicates of (src, dst) pairs to force port contention.
    d.processing = rng.Uniform(0, 1) < 0.1 ? 0.0 : rng.Uniform(0.01, 2.0);
    req.demand.push_back(d);
  }
  return req;
}

SunflowConfig RandomConfig(Rng& rng) {
  SunflowConfig cfg;
  cfg.bandwidth = 1.0;  // processing times are given directly
  static constexpr Time kDeltas[] = {0.0, 1e-4, 0.01, 0.4};
  cfg.delta = kDeltas[rng.UniformInt(0, 3)];
  static constexpr ReservationOrder kOrders[] = {
      ReservationOrder::kOrderedPort, ReservationOrder::kRandom,
      ReservationOrder::kSortedDemandDesc, ReservationOrder::kSortedDemandAsc};
  cfg.order = kOrders[rng.UniformInt(0, 3)];
  cfg.shuffle_seed = rng.NextU64();
  cfg.demand_quantum = rng.Uniform(0, 1) < 0.3 ? 0.05 : 0.0;
  return cfg;
}

// ScheduleOne must be bit-identical to the rescan oracle on randomized
// multi-coflow workloads sharing one PRT.
TEST(PlannerWakeup, DifferentialAgainstRescanOracle) {
  Rng rng(4711);
  for (int trial = 0; trial < 120; ++trial) {
    const auto ports = static_cast<PortId>(rng.UniformInt(2, 10));
    const SunflowConfig cfg = RandomConfig(rng);
    SunflowPlanner fast(ports, cfg);
    SunflowPlanner oracle(ports, cfg);
    SunflowSchedule got, want;
    Time t = rng.Uniform(0, 5.0);
    const int coflows = rng.UniformInt(1, 5);
    for (CoflowId id = 0; id < coflows; ++id) {
      const PlanRequest req = RandomRequest(rng, ports, id, t);
      const Time f1 = fast.ScheduleOne(req, got);
      const Time f2 = oracle.ScheduleOneRescan(req, want);
      EXPECT_EQ(f1, f2) << "trial=" << trial << " coflow=" << id;
      if (rng.Uniform(0, 1) < 0.5) t += rng.Uniform(0, 1.0);
    }
    ExpectSchedulesEqual(got, want);
    ExpectReservationsEqual(fast.prt().reservations(),
                            oracle.prt().reservations());
  }
}

// Same differential with established circuits declared at the plan start
// (the replay engine's carry-over), so some reservations get setup == 0.
TEST(PlannerWakeup, DifferentialWithEstablishedCircuits) {
  Rng rng(815);
  for (int trial = 0; trial < 60; ++trial) {
    const auto ports = static_cast<PortId>(rng.UniformInt(2, 8));
    const SunflowConfig cfg = RandomConfig(rng);
    const Time t0 = rng.Uniform(0, 3.0);
    EstablishedCircuits circuits;
    for (PortId p = 0; p < ports; ++p) {
      if (rng.Uniform(0, 1) < 0.5) {
        circuits[p] = static_cast<PortId>(rng.UniformInt(0, ports - 1));
      }
    }
    SunflowPlanner fast(ports, cfg);
    SunflowPlanner oracle(ports, cfg);
    fast.SetEstablishedCircuits(circuits, t0);
    oracle.SetEstablishedCircuits(circuits, t0);
    SunflowSchedule got, want;
    const int coflows = rng.UniformInt(1, 4);
    for (CoflowId id = 0; id < coflows; ++id) {
      const PlanRequest req = RandomRequest(rng, ports, id, t0);
      EXPECT_EQ(fast.ScheduleOne(req, got),
                oracle.ScheduleOneRescan(req, want))
          << "trial=" << trial;
    }
    ExpectSchedulesEqual(got, want);
  }
}

// Many-to-many request of at least 200 flows over a hot subset of the
// ports. Demands come from a few fixed sizes (plus an occasional sub-ε
// offset), so releases pile onto the same instants — or onto sub-ε
// clusters of them — and each wake instant wakes a herd of flows.
PlanRequest HerdRequest(Rng& rng, PortId ports, CoflowId id, Time start) {
  PlanRequest req;
  req.coflow = id;
  req.start = start;
  const auto srcs = rng.SampleWithoutReplacement(
      ports, static_cast<std::int32_t>(rng.UniformInt(15, 20)));
  const auto dsts = rng.SampleWithoutReplacement(
      ports, static_cast<std::int32_t>(rng.UniformInt(15, 20)));
  static constexpr Time kSizes[] = {0.05, 0.1, 0.1, 0.25, 0.5};
  for (PortId s : srcs) {
    for (PortId d : dsts) {
      Time p = kSizes[rng.UniformInt(0, 4)];
      if (rng.Uniform(0, 1) < 0.2) p += 0.4 * kTimeEps;
      if (rng.Uniform(0, 1) < 0.05) p = 0;
      req.demand.push_back({s, d, p});
    }
  }
  return req;
}

std::uint64_t CounterValue(const char* name) {
  const obs::Counter* c = obs::GlobalMetrics().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

// One herd trial's fabric: 32-64 ports, K planes, and per-plane carry-over
// circuits declared at t0, the first request's start.
struct HerdFabric {
  PortId ports = 0;
  SunflowConfig cfg;
  Time t0 = 0;
  FabricEstablished carried;
};

HerdFabric MakeHerdFabric(Rng& rng, int planes) {
  HerdFabric h;
  h.ports = static_cast<PortId>(rng.UniformInt(32, 64));
  h.cfg = RandomConfig(rng);
  h.cfg.fabric = FabricSpec::Uniform(planes, h.cfg.delta, h.cfg.bandwidth);
  h.t0 = rng.Uniform(0, 3.0);
  h.carried.resize(static_cast<std::size_t>(planes));
  for (EstablishedCircuits& circuits : h.carried) {
    const auto outs = rng.SampleWithoutReplacement(h.ports, h.ports);
    for (PortId p = 0; p < h.ports; ++p) {
      if (rng.Uniform(0, 1) < 0.5) circuits[p] = outs[p];
    }
  }
  return h;
}

SunflowPlanner MakeHerdPlanner(const HerdFabric& h,
                               obs::TraceSink* sink = nullptr) {
  SunflowPlanner planner(h.ports, h.cfg);
  planner.SetEstablishedCircuitsByPlane(h.carried, h.t0);
  planner.SetTraceSink(sink);
  return planner;
}

// The start of the request after the one just planned on `planner`: a
// release already on its PRT, exactly or ε/2 off.
Time NextHerdStart(Rng& rng, const SunflowPlanner& planner) {
  const auto& made = planner.prt().reservations();
  const Time release =
      made[static_cast<std::size_t>(rng.UniformInt(
               0, static_cast<std::int64_t>(made.size()) - 1))]
          .end;
  static constexpr double kOffsets[] = {-0.5, 0.0, 0.5};
  return release + kOffsets[rng.UniformInt(0, 2)] * kTimeEps;
}

std::size_t FirstPassRetries(const PlanRequest& req) {
  std::size_t n = 0;
  for (const FlowDemand& f : req.demand) n += f.processing > kTimeEps;
  return n;
}

std::vector<obs::Event> EventsOf(const obs::MemorySink& sink,
                                 obs::EventType type) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : sink.events()) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

// Each flow's blocked time as a union of disjoint [from, to) spans, from
// its kFlowBlocked / kFlowUnblocked pairs. Where a flow's blocked stretch
// is split into episodes depends on which retries ran; the union does not.
using FlowId = std::tuple<CoflowId, PortId, PortId>;
std::map<FlowId, std::vector<std::pair<Time, Time>>> BlockedUnion(
    const obs::MemorySink& sink) {
  std::map<FlowId, Time> open;
  std::map<FlowId, std::vector<std::pair<Time, Time>>> spans;
  for (const obs::Event& e : sink.events()) {
    const FlowId flow{e.coflow, e.in, e.out};
    if (e.type == obs::EventType::kFlowBlocked) {
      open[flow] = e.t;
    } else if (e.type == obs::EventType::kFlowUnblocked) {
      std::vector<std::pair<Time, Time>>& list = spans[flow];
      if (!list.empty() && list.back().second == open.at(flow)) {
        list.back().second = e.t;  // reopened at the same instant
      } else {
        list.emplace_back(open.at(flow), e.t);
      }
    }
  }
  return spans;
}

// Herd-scale differential: K ∈ {1, 2, 4} planes, per-plane carry-over
// circuits at the first request's start, and later requests starting at
// (or within ε of) a release already on the PRT. These are the workloads
// where many flows wait on the same port, so the waiter lists must hand
// them back in exactly the rescan's order. Every trial also runs both
// paths with a MemorySink attached: the traced ScheduleOne must take the
// untraced one's path (same plans, same retry count), emit the oracle's
// circuit and finish events byte for byte and the oracle's blocked time
// per flow, and its trace must pass the auditor.
TEST(PlannerWakeup, HerdScaleDifferentialAgainstRescanOracle) {
  Rng rng(2016);
  for (const int planes : {1, 2, 4}) {
    for (int trial = 0; trial < 3; ++trial) {
      const HerdFabric h = MakeHerdFabric(rng, planes);
      obs::MemorySink fast_sink;
      obs::MemorySink oracle_sink;
      SunflowPlanner fast = MakeHerdPlanner(h);
      SunflowPlanner oracle = MakeHerdPlanner(h);
      SunflowPlanner traced = MakeHerdPlanner(h, &fast_sink);
      SunflowPlanner traced_oracle = MakeHerdPlanner(h, &oracle_sink);
      SunflowSchedule got, want, traced_got, traced_want;
      std::uint64_t woken = 0;
      std::uint64_t instants = 0;
      Time start = h.t0;
      for (CoflowId id = 0; id < 3; ++id) {
        const PlanRequest req = HerdRequest(rng, h.ports, id, start);
        ASSERT_GE(req.demand.size(), 200u);
        const std::uint64_t retries0 = CounterValue("core.plan.retries");
        const std::uint64_t instants0 =
            CounterValue("core.plan.wake_instants");
        const Time finish = fast.ScheduleOne(req, got);
        const std::uint64_t retries =
            CounterValue("core.plan.retries") - retries0;
        woken += retries - FirstPassRetries(req);
        instants += CounterValue("core.plan.wake_instants") - instants0;
        EXPECT_EQ(finish, oracle.ScheduleOneRescan(req, want))
            << "planes=" << planes << " trial=" << trial << " coflow=" << id;
        const std::uint64_t traced0 = CounterValue("core.plan.retries");
        EXPECT_EQ(finish, traced.ScheduleOne(req, traced_got));
        EXPECT_EQ(CounterValue("core.plan.retries") - traced0, retries)
            << "planes=" << planes << " trial=" << trial << " coflow=" << id;
        EXPECT_EQ(finish, traced_oracle.ScheduleOneRescan(req, traced_want));
        start = NextHerdStart(rng, fast);
      }
      ExpectSchedulesEqual(got, want);
      ExpectReservationsEqual(fast.prt().reservations(),
                              oracle.prt().reservations());
      ExpectSchedulesEqual(traced_got, got);
      ExpectReservationsEqual(traced.prt().reservations(),
                              fast.prt().reservations());
      ExpectSchedulesEqual(traced_want, want);
      for (const obs::EventType type :
           {obs::EventType::kCircuitSetup, obs::EventType::kCircuitTeardown,
            obs::EventType::kFlowFinished}) {
        EXPECT_EQ(EventsOf(fast_sink, type), EventsOf(oracle_sink, type))
            << "planes=" << planes << " trial=" << trial
            << " type=" << obs::ToString(type);
      }
      EXPECT_EQ(BlockedUnion(fast_sink), BlockedUnion(oracle_sink))
          << "planes=" << planes << " trial=" << trial;
      EXPECT_FALSE(EventsOf(fast_sink, obs::EventType::kFlowBlocked).empty());
      // The carried circuits were set up before t0: give the auditor the
      // spans they continue, so a zero-setup start is a legal carry-over.
      std::vector<obs::Event> events;
      for (std::size_t p = 0; p < h.carried.size(); ++p) {
        for (const auto& [in, out] : h.carried[p]) {
          events.push_back({.type = obs::EventType::kCircuitSetup,
                            .t = h.t0 - 1.0,
                            .dur = 1.0,
                            .in = in,
                            .out = out,
                            .value = h.cfg.delta,
                            .plane = static_cast<PlaneId>(p)});
        }
      }
      events.insert(events.end(), fast_sink.events().begin(),
                    fast_sink.events().end());
      const obs::AuditReport audit = obs::AuditTrace(events);
      EXPECT_TRUE(audit.ok())
          << "planes=" << planes << " trial=" << trial << ": "
          << (audit.ok() ? "" : audit.violations[0].invariant + " " +
                                    audit.violations[0].detail);
      // The walk really herded: on average each wake instant retried
      // several flows.
      EXPECT_GT(woken, 2 * instants)
          << "planes=" << planes << " trial=" << trial;
    }
  }
}

// The herd itself stays bounded: a port release retries the flows that
// can still take the port, not every flow waiting on it, so per plane
// count the retries after the first pass stay within 10x the reservations
// made over three trials. (The per-flow walk this replaced needed 11 per
// reservation on the median one-plane trial, and over 100 at 512 ports.)
TEST(PlannerWakeup, HerdRetriesPerReservationBounded) {
  Rng rng(1603);
  for (const int planes : {1, 2, 4}) {
    std::uint64_t woken = 0;
    std::size_t reservations = 0;
    for (int trial = 0; trial < 3; ++trial) {
      const HerdFabric h = MakeHerdFabric(rng, planes);
      SunflowPlanner planner = MakeHerdPlanner(h);
      SunflowSchedule schedule;
      Time start = h.t0;
      for (CoflowId id = 0; id < 3; ++id) {
        const PlanRequest req = HerdRequest(rng, h.ports, id, start);
        const std::uint64_t retries0 = CounterValue("core.plan.retries");
        planner.ScheduleOne(req, schedule);
        woken += CounterValue("core.plan.retries") - retries0 -
                 FirstPassRetries(req);
        start = NextHerdStart(rng, planner);
      }
      reservations += planner.prt().reservations().size();
    }
    ASSERT_GT(reservations, 0u);
    EXPECT_LE(woken, 10 * reservations) << "planes=" << planes;
  }
}

// At δ = 0 a gap or a demand a hair longer than ε can still round to an
// interval the PRT rejects as empty (t + l <= t + ε in floating point).
// Both paths must treat such a gap as a conflict and such a demand as
// done, never abort in Reserve.
TEST(PlannerWakeup, ZeroDeltaIntervalsThatRoundToEmptyAreNotReserved) {
  // A start where t + ε rounds up: l = fl(t + ε) - t is exact and longer
  // than ε, yet t + l == fl(t + ε).
  Time t = 1.0;
  while (!((t + kTimeEps) - t > kTimeEps)) t += 1e-7;
  const Time l = (t + kTimeEps) - t;
  ASSERT_TRUE(t + l <= t + kTimeEps);

  SunflowConfig cfg;
  cfg.bandwidth = 1.0;
  cfg.delta = 0;
  SunflowPlanner fast(3, cfg);
  SunflowPlanner oracle(3, cfg);
  SunflowSchedule got, want;
  const PlanRequest occupant{1, t + l, {{0, 1, 1.0}}};
  // (0, 2) sees a gap of l before the occupant on input 0; (1, 2) has l of
  // demand left.
  const PlanRequest squeezed{2, t, {{0, 2, 0.5}, {1, 2, l}}};
  for (const PlanRequest* req : {&occupant, &squeezed}) {
    EXPECT_EQ(fast.ScheduleOne(*req, got),
              oracle.ScheduleOneRescan(*req, want));
  }
  ExpectSchedulesEqual(got, want);
  ExpectReservationsEqual(fast.prt().reservations(),
                          oracle.prt().reservations());
  const auto& made = fast.prt().reservations();
  ASSERT_EQ(made.size(), 2u);
  EXPECT_EQ(made[1].in, 0);
  EXPECT_EQ(made[1].start, made[0].end);  // waited out the occupant
  EXPECT_EQ(got.flow_finish.at({2, 1, 2}), t);
}

// Circuits observed up at t=1 cannot carry into a plan that starts at t=0:
// a mid-plan instant would zero a setup the wakeup index already priced.
// ScheduleOne rejects the call before touching the PRT.
TEST(PlannerWakeup, RejectsEstablishedCircuitsAfterStart) {
  SunflowConfig cfg;
  cfg.bandwidth = 1.0;
  cfg.delta = 0.1;
  SunflowPlanner planner(4, cfg);
  planner.SetEstablishedCircuits({{0, 1}}, /*at=*/1.0);
  PlanRequest req;
  req.coflow = 7;
  req.start = 0;
  req.demand = {{0, 1, 2.0}, {2, 3, 0.5}};
  SunflowSchedule schedule;
  EXPECT_THROW(planner.ScheduleOne(req, schedule), CheckFailure);
  EXPECT_TRUE(planner.prt().reservations().empty());
}

// ISSUE contract: flows woken at the same release instant must be retried
// in their original Ordered() positions. Four flows contend for one output
// port under kSortedDemandDesc, so the Ordered() permutation (by demand,
// descending) differs from both the declaration order and the (src, dst)
// order; the serialization on the shared port must follow the permutation.
TEST(PlannerWakeup, RetryOrderReplaysOrderedSequence) {
  SunflowConfig cfg;
  cfg.bandwidth = 1.0;
  cfg.delta = 0.1;
  cfg.order = ReservationOrder::kSortedDemandDesc;
  SunflowPlanner planner(6, cfg);
  PlanRequest req;
  req.coflow = 1;
  req.start = 0;
  // Declared in ascending-demand order; Ordered() reverses it.
  req.demand = {{4, 0, 0.5}, {3, 0, 1.0}, {2, 0, 2.0}, {1, 0, 3.0}};
  SunflowSchedule schedule;
  planner.ScheduleOne(req, schedule);

  // Reservations land on the PRT in creation order (the schedule's own
  // reservation list is filled by ScheduleAll, not ScheduleOne).
  const auto& created = planner.prt().reservations();
  ASSERT_EQ(created.size(), 4u);
  const PortId want_src[] = {1, 2, 3, 4};
  const Time want_start[] = {0.0, 3.1, 5.2, 6.3};
  const Time want_end[] = {3.1, 5.2, 6.3, 6.9};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(created[i].in, want_src[i]) << "i=" << i;
    EXPECT_NEAR(created[i].start, want_start[i], 1e-12);
    EXPECT_NEAR(created[i].end, want_end[i], 1e-12);
  }

  // And the oracle agrees bit-for-bit.
  SunflowPlanner oracle(6, cfg);
  SunflowSchedule want;
  oracle.ScheduleOneRescan(req, want);
  ExpectSchedulesEqual(schedule, want);
  ExpectReservationsEqual(created, oracle.prt().reservations());
}

}  // namespace
}  // namespace sunflow

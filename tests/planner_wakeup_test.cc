// Tests for the event-indexed wakeup planner (ScheduleOne).
//
// ScheduleOne is differentially tested against ScheduleOneRescan, the
// paper-literal release-chain walk it replaced: over randomized port
// counts, orderings, δ values, quantization and established circuits, both
// paths must produce bit-identical reservations, flow finishes and
// completion times. A herd-scale case drives hundreds of flows onto shared
// wake instants (K ∈ {1, 2, 4} planes, starts within ε of releases), where
// the bucketed wakeup queue does its work. A dedicated regression test
// pins the retry-order contract: flows woken at the same instant are
// retried in their original Ordered() positions, never in queue-arrival
// order. Established circuits declared after a request's start are a
// precondition failure, not a silent detour through the rescan loop.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "core/sunflow.h"
#include "obs/metrics.h"

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

// Herd-scale differential: 32-64 ports, K ∈ {1, 2, 4} planes, per-plane
// carry-over circuits at the first request's start, and later requests
// starting at (or within ε of) a release already on the PRT. These are the
// workloads where many flows share a wake instant, so the bucketed wakeup
// queue must hand them back in exactly the rescan's order.
TEST(PlannerWakeup, HerdScaleDifferentialAgainstRescanOracle) {
  Rng rng(2016);
  const auto read = [](const char* name) -> std::uint64_t {
    const obs::Counter* c = obs::GlobalMetrics().FindCounter(name);
    return c != nullptr ? c->value() : 0;
  };
  for (const int planes : {1, 2, 4}) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto ports = static_cast<PortId>(rng.UniformInt(32, 64));
      SunflowConfig cfg = RandomConfig(rng);
      cfg.fabric = FabricSpec::Uniform(planes, cfg.delta, cfg.bandwidth);
      const Time t0 = rng.Uniform(0, 3.0);
      FabricEstablished carried(static_cast<std::size_t>(planes));
      for (EstablishedCircuits& circuits : carried) {
        const auto outs = rng.SampleWithoutReplacement(ports, ports);
        for (PortId p = 0; p < ports; ++p) {
          if (rng.Uniform(0, 1) < 0.5) circuits[p] = outs[p];
        }
      }
      SunflowPlanner fast(ports, cfg);
      SunflowPlanner oracle(ports, cfg);
      fast.SetEstablishedCircuitsByPlane(carried, t0);
      oracle.SetEstablishedCircuitsByPlane(carried, t0);
      SunflowSchedule got, want;
      const std::uint64_t retries0 = read("core.plan.retries");
      const std::uint64_t instants0 = read("core.plan.wake_instants");
      std::uint64_t first_pass = 0;
      Time start = t0;
      for (CoflowId id = 0; id < 3; ++id) {
        const PlanRequest req = HerdRequest(rng, ports, id, start);
        ASSERT_GE(req.demand.size(), 200u);
        for (const FlowDemand& f : req.demand) {
          first_pass += f.processing > kTimeEps;
        }
        EXPECT_EQ(fast.ScheduleOne(req, got),
                  oracle.ScheduleOneRescan(req, want))
            << "planes=" << planes << " trial=" << trial << " coflow=" << id;
        // Next start: a release already on the PRT, exactly or ε/2 off.
        const auto& made = fast.prt().reservations();
        const Time release =
            made[static_cast<std::size_t>(rng.UniformInt(
                     0, static_cast<std::int64_t>(made.size()) - 1))]
                .end;
        static constexpr double kOffsets[] = {-0.5, 0.0, 0.5};
        start = release + kOffsets[rng.UniformInt(0, 2)] * kTimeEps;
      }
      ExpectSchedulesEqual(got, want);
      ExpectReservationsEqual(fast.prt().reservations(),
                              oracle.prt().reservations());
      // The walk really herded: on average each wake instant retried
      // several flows.
      const std::uint64_t woken =
          read("core.plan.retries") - retries0 - first_pass;
      const std::uint64_t instants =
          read("core.plan.wake_instants") - instants0;
      EXPECT_GT(woken, 2 * instants)
          << "planes=" << planes << " trial=" << trial;
    }
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

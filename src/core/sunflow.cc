#include "core/sunflow.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_sink.h"

namespace sunflow {

const char* ToString(ReservationOrder order) {
  switch (order) {
    case ReservationOrder::kOrderedPort:
      return "OrderedPort";
    case ReservationOrder::kRandom:
      return "Random";
    case ReservationOrder::kSortedDemandDesc:
      return "SortedDemandDesc";
    case ReservationOrder::kSortedDemandAsc:
      return "SortedDemandAsc";
  }
  return "?";
}

Time SunflowSchedule::MaxCompletion() const {
  Time best = 0;
  for (const auto& [id, cct] : completion_time) best = std::max(best, cct);
  return best;
}

std::vector<PlaneSpec> ResolvePlanes(const SunflowConfig& config) {
  if (config.fabric.is_default()) {
    return {PlaneSpec{config.delta, config.bandwidth}};
  }
  return config.fabric.planes;
}

PlanRequest PlanRequest::FromCoflow(const Coflow& coflow, Bandwidth bandwidth,
                                    std::optional<Time> start) {
  SUNFLOW_CHECK(bandwidth > 0);
  PlanRequest req;
  req.coflow = coflow.id();
  req.start = start.value_or(coflow.arrival());
  req.demand.reserve(coflow.size());
  for (const Flow& f : coflow.flows()) {
    req.demand.push_back({f.src, f.dst, f.bytes / bandwidth});
  }
  return req;
}

SunflowPlanner::SunflowPlanner(PortId num_ports, SunflowConfig config)
    : prt_(num_ports, config.fabric.num_planes()), config_(std::move(config)) {
  SUNFLOW_CHECK(config_.bandwidth > 0);
  SUNFLOW_CHECK(config_.delta >= 0);
  // The empty (default) fabric resolves to one plane at the config's delta
  // and bandwidth, which makes plane_scale_[0] exactly 1.0 — the K=1
  // equivalence contract (core/fabric.h) rests on that.
  planes_ = ResolvePlanes(config_);
  plane_scale_.reserve(planes_.size());
  for (const PlaneSpec& p : planes_) {
    SUNFLOW_CHECK(p.delta >= 0);
    SUNFLOW_CHECK(p.rate > 0);
    plane_scale_.push_back(config_.bandwidth / p.rate);
  }
  established_.resize(planes_.size());
}

void SunflowPlanner::SetEstablishedCircuits(EstablishedCircuits circuits,
                                            Time at) {
  established_.assign(planes_.size(), {});
  established_[0] = std::move(circuits);
  established_at_ = at;
}

void SunflowPlanner::SetEstablishedCircuitsByPlane(FabricEstablished by_plane,
                                                   Time at) {
  SUNFLOW_CHECK(by_plane.size() == planes_.size());
  established_ = std::move(by_plane);
  established_at_ = at;
}

bool SunflowPlanner::has_established() const {
  for (const EstablishedCircuits& e : established_) {
    if (!e.empty()) return true;
  }
  return false;
}

void SunflowPlanner::SetReservationCallback(ReservationCallback callback) {
  callback_ = std::move(callback);
}

void SunflowPlanner::ImportReservations(
    const std::vector<CircuitReservation>& reservations) {
  for (const CircuitReservation& r : reservations) {
    prt_.Reserve(r);
    if (callback_) callback_(r);
    obs::Emit(sink_, {.type = obs::EventType::kCircuitSetup,
                      .t = r.start,
                      .dur = r.length(),
                      .coflow = r.coflow,
                      .in = r.in,
                      .out = r.out,
                      .value = r.setup,
                      .plane = r.plane});
    obs::Emit(sink_, {.type = obs::EventType::kCircuitTeardown,
                      .t = r.end,
                      .coflow = r.coflow,
                      .in = r.in,
                      .out = r.out,
                      .plane = r.plane});
  }
}

std::vector<FlowDemand> SunflowPlanner::Ordered(
    const PlanRequest& request) const {
  std::vector<FlowDemand> p = request.demand;
  if (config_.demand_quantum > 0) {
    for (FlowDemand& f : p) {
      f.processing = std::ceil(f.processing / config_.demand_quantum) *
                     config_.demand_quantum;
    }
  }
  switch (config_.order) {
    case ReservationOrder::kOrderedPort:
      std::sort(p.begin(), p.end(), [](const FlowDemand& a, const FlowDemand& b) {
        return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
      });
      break;
    case ReservationOrder::kRandom: {
      // Seed mixes in the coflow id so different coflows get different
      // shuffles while the whole run stays deterministic.
      Rng rng(config_.shuffle_seed * 0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(request.coflow));
      rng.Shuffle(p);
      break;
    }
    case ReservationOrder::kSortedDemandDesc:
      std::stable_sort(p.begin(), p.end(),
                       [](const FlowDemand& a, const FlowDemand& b) {
                         return a.processing > b.processing;
                       });
      break;
    case ReservationOrder::kSortedDemandAsc:
      std::stable_sort(p.begin(), p.end(),
                       [](const FlowDemand& a, const FlowDemand& b) {
                         return a.processing < b.processing;
                       });
      break;
  }
  return p;
}

Time SunflowPlanner::NextWakeInstant(Time t, Time wake,
                                     CoflowId coflow) const {
  // `wake` is the earliest pending wakeup: always the end of a recorded
  // reservation, strictly later than t + ε. The legacy loop visited every
  // release instant after t; instants that do not yet cover the wakeup
  // (wake > v + ε) are provably no-ops (reservations are never removed,
  // so a blocked flow only gets more blocked), which lets the walk jump —
  // but only onto an instant the legacy chain itself would have visited,
  // because a release within ε above a chain instant is absorbed into it
  // by the tolerant comparison. Every test below is written as the PRT
  // probes write theirs (x + ε against y, never y - x against ε): the two
  // forms round differently when instants sit a hair more than ε apart.
  Time a = prt_.FirstReleaseAtOrAfter(wake - kTimeEps);
  // wake - ε and a + ε round independently: settle `a` on the first
  // release that covers the wakeup.
  for (Time p = prt_.LastReleaseBefore(a); wake <= p + kTimeEps;
       p = prt_.LastReleaseBefore(a)) {
    a = p;
  }
  while (a < kTimeInf && wake > a + kTimeEps) {
    a = prt_.FirstReleaseAtOrAfter(std::nextafter(a, kTimeInf));
  }
  SUNFLOW_CHECK_MSG(a < kTimeInf,
                    "Sunflow stuck: pending demand but no future release "
                    "(coflow "
                        << coflow << ")");
  const Time b = prt_.LastReleaseBefore(a);
  if (b <= t + kTimeEps) {
    // Nothing releases strictly between here and the target, so the next
    // chain instant is simply the first release past t + ε; that is `a`
    // itself unless the target sits within ε of t (then the chain steps
    // over it and the tolerant retry at the next instant picks it up).
    return a > t + kTimeEps ? a : prt_.NextReleaseAfter(t);
  }
  if (a > b + kTimeEps) return a;  // `a` opens its own chain instant
  // A sub-ε cluster of release times straddles the target: replay the
  // legacy chain step by step so the visited instant matches it exactly.
  Time v = t;
  while (wake > v + kTimeEps) {
    const Time next = prt_.NextReleaseAfter(v);
    SUNFLOW_CHECK(next < kTimeInf && next > v);
    v = next;
  }
  return v;
}

Time SunflowPlanner::ScheduleOne(const PlanRequest& request,
                                 SunflowSchedule& out) {
  SUNFLOW_PROFILE_SCOPE("core.plan");
  // The wakeup index assumes a setup never shrinks as t advances. That
  // holds when carried-over circuits are observed up no later than the
  // request start (the replay engine declares them exactly at the replan
  // instant); circuits declared later could zero a setup mid-plan.
  SUNFLOW_CHECK_MSG(!has_established() ||
                        established_at_ <= request.start + kTimeEps,
                    "established circuits declared at t="
                        << established_at_ << " after the start t="
                        << request.start << " of coflow " << request.coflow
                        << "; declare carried-over circuits at or before "
                           "the request start");
  const std::vector<FlowDemand> ordered = Ordered(request);

  Time finish = request.start;
  Time t = request.start;
  int reservations_made = 0;

  // Remaining demand per ordered index; 0 once the flow is done.
  std::vector<Time> remaining(ordered.size(), 0);

  // Blocked-episode tracking, trace emission only (inert without a sink —
  // the cursor-free owner probes are never called and no state allocates).
  // One open episode per flow; an episode closes and a new one opens when
  // the blocking cause (reason, blamer) changes, so contention spans
  // attribute to the coflow actually in the way at each instant.
  std::vector<Time> blk_since;
  std::vector<obs::BlockReason> blk_reason;
  std::vector<CoflowId> blk_blamer;
  if (sink_ != nullptr) {
    blk_since.assign(ordered.size(), kTimeInf);
    blk_reason.assign(ordered.size(), obs::BlockReason::kInputPortBusy);
    blk_blamer.assign(ordered.size(), -1);
  }
  auto close_episode = [&](std::size_t idx, const FlowDemand& f) {
    if (sink_ == nullptr || blk_since[idx] >= kTimeInf) return;
    obs::Emit(sink_, {.type = obs::EventType::kFlowUnblocked,
                      .t = t,
                      .dur = t - blk_since[idx],
                      .coflow = request.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .value = static_cast<double>(blk_blamer[idx]),
                      .count = static_cast<std::int64_t>(blk_reason[idx])});
    blk_since[idx] = kTimeInf;
  };
  auto note_blocked = [&](std::size_t idx, const FlowDemand& f,
                          obs::BlockReason reason, CoflowId blamer) {
    if (blk_since[idx] < kTimeInf && blk_reason[idx] == reason &&
        blk_blamer[idx] == blamer) {
      return;  // same cause still in the way: the episode continues
    }
    close_episode(idx, f);
    blk_since[idx] = t;
    blk_reason[idx] = reason;
    blk_blamer[idx] = blamer;
    obs::Emit(sink_, {.type = obs::EventType::kFlowBlocked,
                      .t = t,
                      .coflow = request.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .value = static_cast<double>(blamer),
                      .count = static_cast<std::int64_t>(reason)});
  };

  // MakeReservation (Algorithm 1 lines 13-23) for one flow at the current
  // instant t. Returns the flow's next wakeup: kTimeInf when its demand is
  // finished, its own reservation end when the reservation was truncated,
  // and otherwise the earliest future instant at which the blocking
  // constraint can change — the busy port's release, or the release of the
  // reservation whose start capped the gap. Every wakeup is the end of a
  // recorded reservation and lies strictly beyond t + ε, so the walk
  // always makes progress.
  // Plane assignment is earliest-feasible-plane greedy: planes are probed
  // in id order at the current instant and the first one where the pair is
  // free and the gap admits a useful circuit takes the reservation. When
  // every plane is blocked, the flow sleeps until the earliest instant any
  // plane's binding constraint can change, and the blocked episode blames
  // that plane's blocker (ties to the lowest plane id). With one plane
  // this is exactly the single-switch MakeReservation, branch for branch.
  auto finish_flow = [&](std::size_t idx, const FlowDemand& f, Time at) {
    remaining[idx] = 0;
    out.flow_finish[{request.coflow, f.src, f.dst}] = at;
    finish = std::max(finish, at);
    obs::Emit(sink_, {.type = obs::EventType::kFlowFinished,
                      .t = at,
                      .coflow = request.coflow,
                      .in = f.src,
                      .out = f.dst});
  };
  const auto num_planes = static_cast<PlaneId>(planes_.size());
  auto try_flow = [&](std::size_t idx) -> Time {
    const FlowDemand& f = ordered[idx];
    Time best_wake = kTimeInf;
    PlaneId best_plane = 0;
    bool best_gap_limited = false;
    Time best_in_busy = 0;
    Time best_out_busy = 0;
    for (PlaneId p = 0; p < num_planes; ++p) {
      const Time in_busy =
          prt_.BusyUntil(FabricReservationTable::Side::kIn, f.src, t, p);
      const Time out_busy =
          prt_.BusyUntil(FabricReservationTable::Side::kOut, f.dst, t, p);
      if (in_busy > t || out_busy > t) {
        const Time wake = std::max(in_busy, out_busy);
        if (wake < best_wake) {
          best_wake = wake;
          best_plane = p;
          best_gap_limited = false;
          best_in_busy = in_busy;
          best_out_busy = out_busy;
        }
        continue;
      }
      // Setup is free when this pair is already an established circuit on
      // this plane and the reservation begins at the instant the circuit
      // was observed up.
      Time setup = planes_[static_cast<std::size_t>(p)].delta;
      if (TimeEq(t, established_at_)) {
        const EstablishedCircuits& est =
            established_[static_cast<std::size_t>(p)];
        auto it = est.find(f.src);
        if (it != est.end() && it->second == f.dst) setup = 0;
      }
      const auto [tm, tm_release] =
          prt_.NextReservationAfter(f.src, f.dst, t, p);
      const Time lm = tm - t;  // max length before blocking a prior one
      // Desired length: the remaining demand is in processing units at the
      // config bandwidth; this plane drains it plane_scale_ times slower
      // (or faster). Scale 1.0 on the default fabric keeps the arithmetic
      // bit-identical to the single-plane code.
      const Time ld =
          setup + remaining[idx] * plane_scale_[static_cast<std::size_t>(p)];
      const Time l = std::min(lm, ld);
      // A reservation of length <= setup would transmit nothing: skip. So
      // would one the PRT stores as empty: at δ = 0 a length a hair above
      // ε can still round to t + l <= t + ε.
      const bool empty = t + l <= t + kTimeEps;
      if (lm <= setup + kTimeEps || (empty && l == lm)) {
        if (tm_release < best_wake) {
          best_wake = tm_release;
          best_plane = p;
          best_gap_limited = true;
        }
        continue;
      }
      if (empty) {
        // A demand residue that short is within ε of done.
        close_episode(idx, f);
        finish_flow(idx, f, t);
        return kTimeInf;
      }
      const CircuitReservation reservation{f.src, f.dst,        t, t + l,
                                           setup, request.coflow, p};
      prt_.Reserve(reservation);
      ++reservations_made;
      close_episode(idx, f);
      if (callback_) callback_(reservation);
      obs::Emit(sink_, {.type = obs::EventType::kCircuitSetup,
                        .t = reservation.start,
                        .dur = reservation.length(),
                        .coflow = request.coflow,
                        .in = f.src,
                        .out = f.dst,
                        .value = setup,
                        .plane = p});
      obs::Emit(sink_, {.type = obs::EventType::kCircuitTeardown,
                        .t = reservation.end,
                        .coflow = request.coflow,
                        .in = f.src,
                        .out = f.dst,
                        .plane = p});
      const Time rest = std::max(0.0, ld - l);
      if (rest <= kTimeEps) {
        finish_flow(idx, f, t + l);
        return kTimeInf;
      }
      remaining[idx] = rest / plane_scale_[static_cast<std::size_t>(p)];
      return reservation.end;
    }
    // Every plane blocked: report the binding constraint of the plane that
    // wakes first.
    if (sink_ != nullptr) {
      if (best_gap_limited) {
        note_blocked(idx, f, obs::BlockReason::kCircuitConflict,
                     prt_.NextOwnerAfter(f.src, f.dst, t, best_plane));
      } else {
        // Blame the port whose release is the binding constraint (the
        // later of the two busy-until instants — that is the wakeup).
        const bool input = best_in_busy > t &&
                           (best_out_busy <= t || best_in_busy >= best_out_busy);
        note_blocked(idx, f,
                     input ? obs::BlockReason::kInputPortBusy
                           : obs::BlockReason::kOutputPortBusy,
                     input ? prt_.OwnerAt(FabricReservationTable::Side::kIn,
                                          f.src, t, best_plane)
                           : prt_.OwnerAt(FabricReservationTable::Side::kOut,
                                          f.dst, t, best_plane));
      }
    }
    return best_wake;
  };

  // First pass at the request start, in Ordered() order, dropping
  // zero-demand entries (Equation 3: t_ij = 0 when p_ij = 0). Flows that
  // cannot finish here enter the wakeup queue, which is bucketed by wake
  // instant: sleeping flows cluster on a few release instants (a busy
  // port's release wakes every flow blocked on it), so one entry per
  // distinct instant keeps the queue far shallower than one per flow.
  std::map<Time, std::vector<std::size_t>> wakeups;
  std::uint64_t retries = 0;
  std::uint64_t wake_instants = 0;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (ordered[i].processing <= kTimeEps) continue;
    remaining[i] = ordered[i].processing;
    ++retries;
    const Time w = try_flow(i);
    if (w < kTimeInf) wakeups[w].push_back(i);
  }

  // Event-indexed walk: advance to the chain instant covering the
  // earliest pending wakeup and retry only the flows woken there. The
  // legacy loop retried the whole pending list in Ordered() order at
  // every release instant; sorting the woken indices replays that order
  // within the subset, and the flows left sleeping are exactly the ones
  // the rescan would have retried and failed.
  std::vector<std::size_t> woken;
  while (!wakeups.empty()) {
    const Time next =
        NextWakeInstant(t, wakeups.begin()->first, request.coflow);
    SUNFLOW_CHECK(next > t);
    t = next;
    ++wake_instants;
    woken.clear();
    auto due = wakeups.begin();
    for (; due != wakeups.end() && due->first <= t + kTimeEps; ++due) {
      woken.insert(woken.end(), due->second.begin(), due->second.end());
    }
    wakeups.erase(wakeups.begin(), due);
    std::sort(woken.begin(), woken.end());
    retries += woken.size();
    for (std::size_t idx : woken) {
      const Time w = try_flow(idx);
      if (w < kTimeInf) wakeups[w].push_back(idx);
    }
  }

  // Tallied locally and published once per call: per-retry increments
  // would sit on the hottest loop in the planner.
  static thread_local obs::Counter& retry_counter =
      obs::GlobalMetrics().GetCounter("core.plan.retries");
  static thread_local obs::Counter& wake_counter =
      obs::GlobalMetrics().GetCounter("core.plan.wake_instants");
  retry_counter.Increment(retries);
  wake_counter.Increment(wake_instants);

  out.completion_time[request.coflow] = finish - request.start;
  out.reservation_count[request.coflow] += reservations_made;
  return finish;
}

Time SunflowPlanner::ScheduleOneRescan(const PlanRequest& request,
                                       SunflowSchedule& out) {
  SUNFLOW_PROFILE_SCOPE("core.plan");
  // A flow holds at most one circuit at a time, so it is not retried
  // before its last reservation ends (`held_until`). With one plane that
  // changes nothing, since its own circuit keeps both its ports busy; with
  // K > 1 planes it keeps the loop from striping the flow onto a second
  // plane mid-reservation, which ScheduleOne never does.
  struct PendingFlow {
    FlowDemand demand;
    Time held_until = 0;
  };
  std::vector<PendingFlow> pending;
  for (const FlowDemand& f : Ordered(request)) {
    // Drop zero-demand entries up front (Equation 3: t_ij = 0 when p_ij = 0).
    if (f.processing > kTimeEps) pending.push_back({f, request.start});
  }

  Time finish = request.start;
  Time t = request.start;
  int reservations_made = 0;

  // Blocked-episode tracking, trace emission only — the rescan analogue of
  // ScheduleOne's per-index vectors, keyed by port pair because `pending`
  // is compacted in place. Same episode semantics: close + reopen when the
  // blocking cause changes, close on acquisition.
  struct BlockEpisode {
    Time since = 0;
    obs::BlockReason reason = obs::BlockReason::kInputPortBusy;
    CoflowId blamer = -1;
  };
  std::map<std::pair<PortId, PortId>, BlockEpisode> episodes;
  auto close_episode = [&](const FlowDemand& f) {
    const auto it = episodes.find({f.src, f.dst});
    if (it == episodes.end()) return;
    obs::Emit(sink_, {.type = obs::EventType::kFlowUnblocked,
                      .t = t,
                      .dur = t - it->second.since,
                      .coflow = request.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .value = static_cast<double>(it->second.blamer),
                      .count = static_cast<std::int64_t>(it->second.reason)});
    episodes.erase(it);
  };
  auto note_blocked = [&](const FlowDemand& f, obs::BlockReason reason,
                          CoflowId blamer) {
    const auto it = episodes.find({f.src, f.dst});
    if (it != episodes.end() && it->second.reason == reason &&
        it->second.blamer == blamer) {
      return;  // same cause still in the way: the episode continues
    }
    close_episode(f);
    episodes[{f.src, f.dst}] = {t, reason, blamer};
    obs::Emit(sink_, {.type = obs::EventType::kFlowBlocked,
                      .t = t,
                      .coflow = request.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .value = static_cast<double>(blamer),
                      .count = static_cast<std::int64_t>(reason)});
  };

  // MakeReservation (Algorithm 1 lines 13-23), generalised to the
  // earliest-feasible-plane greedy exactly as in ScheduleOne (the rescan
  // is the differential oracle, so its plane choices and emissions must
  // match branch for branch). Returns remaining demand in processing
  // units at the config bandwidth.
  auto finish_flow = [&](const FlowDemand& f, Time at) {
    out.flow_finish[{request.coflow, f.src, f.dst}] = at;
    finish = std::max(finish, at);
    obs::Emit(sink_, {.type = obs::EventType::kFlowFinished,
                      .t = at,
                      .coflow = request.coflow,
                      .in = f.src,
                      .out = f.dst});
  };
  const auto num_planes = static_cast<PlaneId>(planes_.size());
  auto make_reservation = [&](PendingFlow& pending_flow) -> Time {
    const FlowDemand& f = pending_flow.demand;
    Time best_wake = kTimeInf;
    PlaneId best_plane = 0;
    bool best_gap_limited = false;
    Time best_in_busy = 0;
    Time best_out_busy = 0;
    for (PlaneId p = 0; p < num_planes; ++p) {
      const Time in_busy =
          prt_.BusyUntil(FabricReservationTable::Side::kIn, f.src, t, p);
      const Time out_busy =
          prt_.BusyUntil(FabricReservationTable::Side::kOut, f.dst, t, p);
      if (in_busy > t || out_busy > t) {
        const Time wake = std::max(in_busy, out_busy);
        if (wake < best_wake) {
          best_wake = wake;
          best_plane = p;
          best_gap_limited = false;
          best_in_busy = in_busy;
          best_out_busy = out_busy;
        }
        continue;
      }
      // Setup is free when this pair is already an established circuit on
      // this plane and the reservation begins at the instant the circuit
      // was observed up.
      Time setup = planes_[static_cast<std::size_t>(p)].delta;
      if (TimeEq(t, established_at_)) {
        const EstablishedCircuits& est =
            established_[static_cast<std::size_t>(p)];
        auto it = est.find(f.src);
        if (it != est.end() && it->second == f.dst) setup = 0;
      }
      const auto [tm, tm_release] =
          prt_.NextReservationAfter(f.src, f.dst, t, p);
      const Time lm = tm - t;  // max length before blocking a prior one
      const Time ld =
          setup + f.processing * plane_scale_[static_cast<std::size_t>(p)];
      const Time l = std::min(lm, ld);
      // A reservation of length <= setup would transmit nothing: skip. So
      // would one the PRT stores as empty (t + l <= t + ε at δ = 0).
      const bool empty = t + l <= t + kTimeEps;
      if (lm <= setup + kTimeEps || (empty && l == lm)) {
        if (tm_release < best_wake) {
          best_wake = tm_release;
          best_plane = p;
          best_gap_limited = true;
        }
        continue;
      }
      if (empty) {
        // A demand residue that short is within ε of done.
        if (sink_ != nullptr) close_episode(f);
        finish_flow(f, t);
        return 0;
      }
      const CircuitReservation reservation{f.src, f.dst,        t, t + l,
                                           setup, request.coflow, p};
      prt_.Reserve(reservation);
      pending_flow.held_until = reservation.end;
      ++reservations_made;
      if (sink_ != nullptr) close_episode(f);
      if (callback_) callback_(reservation);
      obs::Emit(sink_, {.type = obs::EventType::kCircuitSetup,
                        .t = reservation.start,
                        .dur = reservation.length(),
                        .coflow = request.coflow,
                        .in = f.src,
                        .out = f.dst,
                        .value = setup,
                        .plane = p});
      obs::Emit(sink_, {.type = obs::EventType::kCircuitTeardown,
                        .t = reservation.end,
                        .coflow = request.coflow,
                        .in = f.src,
                        .out = f.dst,
                        .plane = p});
      const Time remaining = std::max(0.0, ld - l);
      if (remaining <= kTimeEps) {
        finish_flow(f, t + l);  // flow finished in this reservation
        return 0;
      }
      return remaining / plane_scale_[static_cast<std::size_t>(p)];
    }
    // Every plane blocked at t; demand is unchanged until a release.
    if (sink_ != nullptr) {
      if (best_gap_limited) {
        note_blocked(f, obs::BlockReason::kCircuitConflict,
                     prt_.NextOwnerAfter(f.src, f.dst, t, best_plane));
      } else {
        const bool input = best_in_busy > t &&
                           (best_out_busy <= t || best_in_busy >= best_out_busy);
        note_blocked(f,
                     input ? obs::BlockReason::kInputPortBusy
                           : obs::BlockReason::kOutputPortBusy,
                     input ? prt_.OwnerAt(FabricReservationTable::Side::kIn,
                                          f.src, t, best_plane)
                           : prt_.OwnerAt(FabricReservationTable::Side::kOut,
                                          f.dst, t, best_plane));
      }
    }
    return f.processing;
  };

  while (!pending.empty()) {
    for (PendingFlow& f : pending) {
      if (f.held_until <= t + kTimeEps) {
        f.demand.processing = make_reservation(f);
      }
    }
    std::erase_if(pending, [](const PendingFlow& f) {
      return f.demand.processing <= kTimeEps;
    });
    if (pending.empty()) break;
    const Time next = prt_.NextReleaseAfter(t);
    SUNFLOW_CHECK_MSG(next < kTimeInf,
                      "Sunflow stuck: pending demand but no future release "
                      "(coflow "
                          << request.coflow << ")");
    SUNFLOW_CHECK(next > t);
    t = next;
  }

  out.completion_time[request.coflow] = finish - request.start;
  out.reservation_count[request.coflow] += reservations_made;
  return finish;
}

SunflowSchedule SunflowPlanner::ScheduleAll(
    const std::vector<PlanRequest>& requests) {
  std::vector<const PlanRequest*> ptrs;
  ptrs.reserve(requests.size());
  for (const PlanRequest& req : requests) ptrs.push_back(&req);
  return ScheduleAll(ptrs);
}

SunflowSchedule SunflowPlanner::ScheduleAll(
    const std::vector<const PlanRequest*>& requests) {
  SunflowSchedule out;
  for (const PlanRequest* req : requests) ScheduleOne(*req, out);
  out.reservations = prt_.reservations();
  return out;
}

SunflowSchedule ScheduleSingleCoflow(const Coflow& coflow, PortId num_ports,
                                     const SunflowConfig& config,
                                     obs::TraceSink* sink) {
  SunflowPlanner planner(num_ports, config);
  planner.SetTraceSink(sink);
  SunflowSchedule out;
  PlanRequest req = PlanRequest::FromCoflow(coflow, config.bandwidth,
                                            /*start=*/coflow.arrival());
  planner.ScheduleOne(req, out);
  out.reservations = planner.prt().reservations();
  return out;
}

}  // namespace sunflow

#include "core/sunflow.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
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

// Per-request planning state shared by ScheduleOne and ScheduleOneRescan:
// the demand in Ordered() order, each flow's remaining demand, the current
// instant and the running results.
struct SunflowPlanner::PlanCall {
  PlanCall(const SunflowPlanner& planner, const PlanRequest& req,
           SunflowSchedule& schedule)
      : request(req),
        out(schedule),
        sink(planner.sink_),
        ordered(planner.Ordered(req)),
        remaining(ordered.size(), 0),
        t(req.start),
        finish(req.start) {
    if (sink != nullptr) {
      blk_since.assign(ordered.size(), kTimeInf);
      blk_reason.assign(ordered.size(), obs::BlockReason::kInputPortBusy);
      blk_blamer.assign(ordered.size(), -1);
    }
  }

  const PlanRequest& request;
  SunflowSchedule& out;
  obs::TraceSink* sink;
  std::vector<FlowDemand> ordered;
  /// Remaining demand per ordered index, in processing units at the config
  /// bandwidth; exactly 0 once the flow is done.
  std::vector<Time> remaining;
  Time t;
  Time finish;
  int reservations_made = 0;

  // Blocked-episode tracking, trace emission only (inert and unallocated
  // without a sink; the cursor-free owner probes are never called). One
  // open episode per flow; an episode closes and a new one opens when the
  // blocking cause (reason, blamer) changes, so contention spans attribute
  // to the coflow actually in the way at each retry.
  std::vector<Time> blk_since;
  std::vector<obs::BlockReason> blk_reason;
  std::vector<CoflowId> blk_blamer;

  void CloseEpisode(std::size_t idx) {
    if (sink == nullptr || blk_since[idx] >= kTimeInf) return;
    const FlowDemand& f = ordered[idx];
    obs::Emit(sink, {.type = obs::EventType::kFlowUnblocked,
                     .t = t,
                     .dur = t - blk_since[idx],
                     .coflow = request.coflow,
                     .in = f.src,
                     .out = f.dst,
                     .value = static_cast<double>(blk_blamer[idx]),
                     .count = static_cast<std::int64_t>(blk_reason[idx])});
    blk_since[idx] = kTimeInf;
  }

  void NoteBlocked(std::size_t idx, obs::BlockReason reason, CoflowId blamer) {
    if (blk_since[idx] < kTimeInf && blk_reason[idx] == reason &&
        blk_blamer[idx] == blamer) {
      return;  // same cause still in the way: the episode continues
    }
    CloseEpisode(idx);
    blk_since[idx] = t;
    blk_reason[idx] = reason;
    blk_blamer[idx] = blamer;
    const FlowDemand& f = ordered[idx];
    obs::Emit(sink, {.type = obs::EventType::kFlowBlocked,
                     .t = t,
                     .coflow = request.coflow,
                     .in = f.src,
                     .out = f.dst,
                     .value = static_cast<double>(blamer),
                     .count = static_cast<std::int64_t>(reason)});
  }

  void FinishFlow(std::size_t idx, Time at) {
    const FlowDemand& f = ordered[idx];
    remaining[idx] = 0;
    out.flow_finish[{request.coflow, f.src, f.dst}] = at;
    finish = std::max(finish, at);
    obs::Emit(sink, {.type = obs::EventType::kFlowFinished,
                     .t = at,
                     .coflow = request.coflow,
                     .in = f.src,
                     .out = f.dst});
  }

  /// Publishes the request's CCT and reservation count; returns its finish.
  Time Done() {
    out.completion_time[request.coflow] = finish - request.start;
    out.reservation_count[request.coflow] += reservations_made;
    return finish;
  }
};

namespace {

/// A plane on which a flow is blocked by a busy port: the side of the
/// later-releasing of its two ports there (the binding port; the input on
/// a tie) and the instant that port releases.
struct PortWait {
  FabricReservationTable::Side side;
  PlaneId plane;
  Time release;
};

// The waiter lists of one ScheduleOne call: per plane, one list per port
// the request uses, holding the flows blocked on that port in Ordered()
// index order. The flows that use one port form its group: slot k = 2i
// (input) or 2i + 1 (output) of flow i sits at position pos_[k] of
// `slots_`, inside its group's range [first_[g], first_[g + 1]). A list
// is a bitset over its group's range, so joining and leaving are O(1) and
// the head, the lowest index, is the lowest set bit.
class WaiterLists {
 public:
  using Side = FabricReservationTable::Side;

  WaiterLists(const std::vector<FlowDemand>& flows, std::size_t num_planes)
      : flows_(flows),
        num_planes_(num_planes),
        slots_(2 * flows.size()),
        pos_(slots_.size()),
        group_(slots_.size()),
        words_((slots_.size() + 63) / 64),
        waiting_(num_planes * words_, 0) {
    std::iota(slots_.begin(), slots_.end(), 0u);
    std::stable_sort(slots_.begin(), slots_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return PortOf(a) < PortOf(b);
                     });
    for (std::uint32_t j = 0; j < slots_.size(); ++j) {
      if (j == 0 || PortOf(slots_[j]) != PortOf(slots_[j - 1])) {
        first_.push_back(j);
      }
      pos_[slots_[j]] = j;
      group_[slots_[j]] = static_cast<std::uint32_t>(first_.size() - 1);
    }
    groups_ = first_.size();
    first_.push_back(static_cast<std::uint32_t>(slots_.size()));
    lists_.resize(num_planes * groups_);
    for (std::size_t id = 0; id < lists_.size(); ++id) {
      lists_[id].lo = first_[id % groups_];
    }
  }

  /// Puts flow `idx` on the list of its `side` port on `plane`; returns
  /// the list's id.
  std::uint32_t Join(std::uint32_t idx, Side side, PlaneId plane) {
    const std::uint32_t k = 2 * idx + (side == Side::kIn ? 0 : 1);
    const auto p = static_cast<std::size_t>(plane);
    const auto id = static_cast<std::uint32_t>(p * groups_ + group_[k]);
    Word(p, pos_[k]) |= Mask(pos_[k]);
    List& list = lists_[id];
    ++list.size;
    list.lo = std::min(list.lo, pos_[k]);
    return id;
  }

  /// Takes flow `idx` off every list it waits on.
  void Leave(std::uint32_t idx) {
    for (std::size_t p = 0; p < num_planes_; ++p) {
      for (std::uint32_t k = 2 * idx; k < 2 * idx + 2; ++k) {
        std::uint64_t& word = Word(p, pos_[k]);
        if ((word & Mask(pos_[k])) == 0) continue;
        word &= ~Mask(pos_[k]);
        --lists_[p * groups_ + group_[k]].size;
      }
    }
  }

  bool empty(std::uint32_t id) const { return lists_[id].size == 0; }

  /// The flow at the head of a non-empty list.
  std::uint32_t Head(std::uint32_t id) {
    List& list = lists_[id];
    const std::size_t p = id / groups_;
    std::uint32_t j = list.lo;
    while ((Word(p, j) >> (j % 64)) == 0) j = (j / 64 + 1) * 64;
    j += static_cast<std::uint32_t>(std::countr_zero(Word(p, j) >> (j % 64)));
    list.lo = j;
    return slots_[j] / 2;
  }

  /// The busy-until instant at t of the port a list waits on.
  Time BusyUntil(const FabricReservationTable& prt, std::uint32_t id,
                 Time t) const {
    const auto [side, port] = PortOf(slots_[first_[id % groups_]]);
    return prt.BusyUntil(side == 0 ? Side::kIn : Side::kOut, port, t,
                         static_cast<PlaneId>(id / groups_));
  }

  /// A list is armed while it has an entry in the wake map or is due at
  /// the current instant. Arm returns false when it was armed already.
  bool Arm(std::uint32_t id) { return !std::exchange(lists_[id].armed, true); }
  void Disarm(std::uint32_t id) { lists_[id].armed = false; }

 private:
  struct List {
    std::uint32_t size = 0;  ///< flows waiting
    std::uint32_t lo = 0;    ///< no flow waits below this position
    bool armed = false;
  };

  std::pair<std::uint32_t, PortId> PortOf(std::uint32_t k) const {
    const FlowDemand& f = flows_[k / 2];
    return {k % 2, k % 2 == 0 ? f.src : f.dst};
  }
  std::uint64_t& Word(std::size_t plane, std::uint32_t j) {
    return waiting_[plane * words_ + j / 64];
  }
  static std::uint64_t Mask(std::uint32_t j) {
    return std::uint64_t{1} << (j % 64);
  }

  const std::vector<FlowDemand>& flows_;
  std::size_t num_planes_;
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> group_;
  std::vector<std::uint32_t> first_;
  std::size_t groups_ = 0;
  std::size_t words_;
  std::vector<std::uint64_t> waiting_;
  std::vector<List> lists_;
};

}  // namespace

/// Outcome of one MakeReservation attempt.
struct SunflowPlanner::Attempt {
  /// kTimeInf once the flow's demand is done; the end of the flow's own
  /// reservation when that was truncated (`reserved`); otherwise — blocked
  /// on every plane — the earliest instant any plane's constraint can
  /// change. Always the end of a recorded reservation beyond t + ε.
  Time wake = kTimeInf;
  bool reserved = false;
  /// Blocked only: the earliest release among the gap-limited planes
  /// (kTimeInf if none), and the binding port of every plane blocked by a
  /// busy port, in plane order.
  Time gap_wake = kTimeInf;
  std::vector<PortWait> ports;
};

// MakeReservation (Algorithm 1 lines 13-23) for flow `idx` at call.t.
// Plane assignment is earliest-feasible-plane greedy: planes are probed in
// id order and the first one where the pair is free and the gap admits a
// useful circuit takes the reservation. When every plane is blocked, the
// flow's demand is unchanged and the blocked episode blames the binding
// constraint of the plane that wakes first (ties to the lowest plane id).
// With one plane this is exactly the single-switch MakeReservation, branch
// for branch.
void SunflowPlanner::MakeReservation(PlanCall& call, std::size_t idx,
                                     Attempt& attempt) {
  using Side = FabricReservationTable::Side;
  const FlowDemand& f = call.ordered[idx];
  const Time t = call.t;
  attempt.wake = kTimeInf;
  attempt.reserved = false;
  attempt.gap_wake = kTimeInf;
  attempt.ports.clear();
  PlaneId best_plane = 0;
  bool best_gap_limited = false;
  bool best_input = false;
  const auto num_planes = static_cast<PlaneId>(planes_.size());
  for (PlaneId p = 0; p < num_planes; ++p) {
    const auto plane = static_cast<std::size_t>(p);
    const Time in_busy = prt_.BusyUntil(Side::kIn, f.src, t, p);
    const Time out_busy = prt_.BusyUntil(Side::kOut, f.dst, t, p);
    if (in_busy > t || out_busy > t) {
      // BusyUntil returns t itself for a free port, so the later release
      // is the busy port's, and it binds the flow on this plane.
      const bool input = in_busy >= out_busy;
      const Time release = input ? in_busy : out_busy;
      attempt.ports.push_back({input ? Side::kIn : Side::kOut, p, release});
      if (release < attempt.wake) {
        attempt.wake = release;
        best_plane = p;
        best_gap_limited = false;
        best_input = input;
      }
      continue;
    }
    // Setup is free when this pair is already an established circuit on
    // this plane and the reservation begins at the instant the circuit was
    // observed up.
    Time setup = planes_[plane].delta;
    if (TimeEq(t, established_at_)) {
      const EstablishedCircuits& est = established_[plane];
      auto it = est.find(f.src);
      if (it != est.end() && it->second == f.dst) setup = 0;
    }
    const auto [tm, tm_release] = prt_.NextReservationAfter(f.src, f.dst, t, p);
    const Time lm = tm - t;  // max length before blocking a prior one
    // Desired length: the remaining demand is in processing units at the
    // config bandwidth; this plane drains it plane_scale_ times slower (or
    // faster). Scale 1.0 on the default fabric keeps the arithmetic
    // bit-identical to the single-plane code.
    const Time ld = setup + call.remaining[idx] * plane_scale_[plane];
    const Time l = std::min(lm, ld);
    // A reservation of length <= setup would transmit nothing: skip. So
    // would one the PRT stores as empty: at δ = 0 a length a hair above ε
    // can still round to t + l <= t + ε.
    const bool empty = t + l <= t + kTimeEps;
    if (lm <= setup + kTimeEps || (empty && l == lm)) {
      // Gap-limited: the constraint relaxes when the reservation whose
      // start capped the gap releases.
      attempt.gap_wake = std::min(attempt.gap_wake, tm_release);
      if (tm_release < attempt.wake) {
        attempt.wake = tm_release;
        best_plane = p;
        best_gap_limited = true;
      }
      continue;
    }
    if (empty) {
      // A demand residue that short is within ε of done.
      call.CloseEpisode(idx);
      call.FinishFlow(idx, t);
      attempt.wake = kTimeInf;
      return;
    }
    const CircuitReservation reservation{f.src, f.dst,         t, t + l,
                                         setup, call.request.coflow, p};
    prt_.Reserve(reservation);
    ++call.reservations_made;
    call.CloseEpisode(idx);
    if (callback_) callback_(reservation);
    obs::Emit(sink_, {.type = obs::EventType::kCircuitSetup,
                      .t = reservation.start,
                      .dur = reservation.length(),
                      .coflow = reservation.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .value = setup,
                      .plane = p});
    obs::Emit(sink_, {.type = obs::EventType::kCircuitTeardown,
                      .t = reservation.end,
                      .coflow = reservation.coflow,
                      .in = f.src,
                      .out = f.dst,
                      .plane = p});
    const Time rest = std::max(0.0, ld - l);
    if (rest <= kTimeEps) {
      call.FinishFlow(idx, t + l);
      attempt.wake = kTimeInf;
      return;
    }
    call.remaining[idx] = rest / plane_scale_[plane];
    attempt.wake = reservation.end;
    attempt.reserved = true;
    return;
  }
  if (sink_ == nullptr) return;
  if (best_gap_limited) {
    call.NoteBlocked(idx, obs::BlockReason::kCircuitConflict,
                     prt_.NextOwnerAfter(f.src, f.dst, t, best_plane));
  } else {
    // Blame the port whose release is the binding constraint.
    call.NoteBlocked(
        idx,
        best_input ? obs::BlockReason::kInputPortBusy
                   : obs::BlockReason::kOutputPortBusy,
        best_input ? prt_.OwnerAt(Side::kIn, f.src, t, best_plane)
                   : prt_.OwnerAt(Side::kOut, f.dst, t, best_plane));
  }
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
  PlanCall call(*this, request, out);
  Attempt attempt;
  const std::size_t n = call.ordered.size();
  SUNFLOW_CHECK(n < UINT32_MAX / 2);

  // A flow blocked by a busy port sleeps on that port's waiter list,
  // which is armed once in `wakeups` at the port's release. A gap-limited
  // flow, and a flow whose own truncated reservation has to end first,
  // gets its own `wakeups` entry. On K > 1 planes a blocked flow
  // registers on every plane that blocks it (a list per busy plane, one
  // entry for the earliest gap-limited plane); the first registration to
  // come due retries it, and the retry takes it off every list and bumps
  // its generation stamp, which makes its own entries stale.
  struct Waiter {
    std::uint32_t idx;
    std::uint32_t gen;
  };
  struct Due {
    std::vector<Waiter> flows;
    std::vector<std::uint32_t> lists;
  };
  std::map<Time, Due> wakeups;
  std::vector<std::uint32_t> gen(n, 0);
  WaiterLists lists(call.ordered, planes_.size());

  std::uint64_t retries = 0;
  std::uint64_t wake_instants = 0;
  // Retries flow `idx` at call.t and registers it wherever it sleeps next.
  const auto retry = [&](std::uint32_t idx) {
    ++gen[idx];
    lists.Leave(idx);
    ++retries;
    MakeReservation(call, idx, attempt);
    if (attempt.wake >= kTimeInf) return;
    const Waiter w{idx, gen[idx]};
    if (attempt.reserved) {
      wakeups[attempt.wake].flows.push_back(w);
      return;
    }
    if (attempt.gap_wake < kTimeInf) {
      wakeups[attempt.gap_wake].flows.push_back(w);
    }
    for (const PortWait& p : attempt.ports) {
      const std::uint32_t id = lists.Join(idx, p.side, p.plane);
      // An armed list is armed at this same release (or is due now, and
      // its port is busy at t).
      if (lists.Arm(id)) wakeups[p.release].lists.push_back(id);
    }
  };

  // First pass at the request start, in Ordered() order, dropping
  // zero-demand entries (Equation 3: t_ij = 0 when p_ij = 0).
  for (std::size_t i = 0; i < n; ++i) {
    if (call.ordered[i].processing <= kTimeEps) continue;
    call.remaining[i] = call.ordered[i].processing;
    retry(static_cast<std::uint32_t>(i));
  }

  // Event-indexed walk: advance to the chain instant covering the
  // earliest pending wakeup and retry only what is due there. The legacy
  // loop retried every pending flow in Ordered() order at every release
  // instant; merging the due flows and the heads of the due lists by
  // index replays that order within the subset. A list's head is retried
  // only while the list's port is free at t: once the port is taken again
  // (by a lower index this instant, or by a higher-priority reservation
  // starting at t), every flow left in the list would fail, so the list
  // stays as it is and is re-armed at the port's new release. Every flow
  // left sleeping would have failed its rescan retry; an early wake after
  // a re-arm fails just as that retry does.
  std::vector<Waiter> woken;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> heads;  // (idx, list)
  const auto by_head = std::greater<>();
  const auto queue_head = [&](std::uint32_t id) {
    if (lists.empty(id)) {
      lists.Disarm(id);  // its flows were retried already
      return;
    }
    heads.emplace_back(lists.Head(id), id);
    std::push_heap(heads.begin(), heads.end(), by_head);
  };
  while (!wakeups.empty()) {
    const Time next =
        NextWakeInstant(call.t, wakeups.begin()->first, request.coflow);
    SUNFLOW_CHECK(next > call.t);
    call.t = next;
    ++wake_instants;
    woken.clear();
    heads.clear();
    auto due = wakeups.begin();
    for (; due != wakeups.end() && due->first <= call.t + kTimeEps; ++due) {
      woken.insert(woken.end(), due->second.flows.begin(),
                   due->second.flows.end());
      for (const std::uint32_t id : due->second.lists) queue_head(id);
    }
    wakeups.erase(wakeups.begin(), due);
    std::sort(woken.begin(), woken.end(),
              [](const Waiter& a, const Waiter& b) { return a.idx < b.idx; });
    std::size_t next_flow = 0;
    while (next_flow < woken.size() || !heads.empty()) {
      if (next_flow < woken.size() &&
          (heads.empty() || woken[next_flow].idx <= heads[0].first)) {
        const Waiter w = woken[next_flow++];
        if (w.gen == gen[w.idx]) retry(w.idx);  // else retried already
        continue;
      }
      std::pop_heap(heads.begin(), heads.end(), by_head);
      const auto [key, id] = heads.back();
      heads.pop_back();
      if (lists.empty(id) || lists.Head(id) != key) {
        queue_head(id);  // the head left or moved
        continue;
      }
      const Time busy = lists.BusyUntil(prt_, id, call.t);
      if (busy > call.t) {
        wakeups[busy].lists.push_back(id);
        continue;
      }
      retry(key);
      queue_head(id);
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
  return call.Done();
}

Time SunflowPlanner::ScheduleOneRescan(const PlanRequest& request,
                                       SunflowSchedule& out) {
  SUNFLOW_PROFILE_SCOPE("core.plan");
  PlanCall call(*this, request, out);
  Attempt attempt;
  // A flow holds at most one circuit at a time, so it is not retried
  // before its last reservation ends (`held_until`). With one plane that
  // changes nothing, since its own circuit keeps both its ports busy; with
  // K > 1 planes it keeps the loop from striping the flow onto a second
  // plane mid-reservation, which ScheduleOne never does.
  struct PendingFlow {
    std::size_t idx;
    Time held_until;
  };
  std::vector<PendingFlow> pending;
  for (std::size_t i = 0; i < call.ordered.size(); ++i) {
    // Drop zero-demand entries up front (Equation 3: t_ij = 0 when p_ij = 0).
    if (call.ordered[i].processing <= kTimeEps) continue;
    call.remaining[i] = call.ordered[i].processing;
    pending.push_back({i, request.start});
  }
  while (!pending.empty()) {
    for (PendingFlow& f : pending) {
      if (f.held_until > call.t + kTimeEps) continue;
      MakeReservation(call, f.idx, attempt);
      if (attempt.reserved) f.held_until = attempt.wake;
    }
    std::erase_if(pending, [&](const PendingFlow& f) {
      return call.remaining[f.idx] == 0;
    });
    if (pending.empty()) break;
    const Time next = prt_.NextReleaseAfter(call.t);
    SUNFLOW_CHECK_MSG(next < kTimeInf,
                      "Sunflow stuck: pending demand but no future release "
                      "(coflow "
                          << request.coflow << ")");
    SUNFLOW_CHECK(next > call.t);
    call.t = next;
  }
  return call.Done();
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

// Port-disjoint request groups (§6's parallelization note).
//
// §6 suggests reducing scheduler latency "by computing circuit schedules
// on partitioned demands in parallel" at some cost in optimality. One
// partitioning is *free*: coflows whose port footprints are disjoint can
// never constrain each other on the PRT, so an InterCoflow replan can plan
// such groups concurrently (ScheduleRequestsParallel below) and merge them
// deterministically into exactly the serial schedule.
#pragma once

#include <vector>

#include "core/sunflow.h"

namespace sunflow::runtime {
class ThreadPool;
}  // namespace sunflow::runtime

namespace sunflow {

/// Intra-replan parallel InterCoflow: partitions `requests` (already in
/// priority order) into port-disjoint groups via union-find over their
/// joint port footprints and plans each group concurrently on `pool`,
/// then merges deterministically — group ids follow the smallest request
/// index they contain, and the merged reservation stream replays the
/// serial creation order (per request in global priority order, each
/// request's reservations contiguous). Output-equivalent to
/// planner.ScheduleAll(requests); falls back to exactly that call when
/// the pool is null/serial, the PRT is non-empty, a sink/callback would
/// observe the stream mid-plan, requests share a coflow id, or the
/// partition is a single group. The planner's PRT holds the merged
/// reservations on return, as after ScheduleAll.
SunflowSchedule ScheduleRequestsParallel(
    SunflowPlanner& planner, const std::vector<const PlanRequest*>& requests,
    runtime::ThreadPool* pool);

}  // namespace sunflow

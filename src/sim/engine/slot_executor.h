// Slot-schedule execution for the two switch models of §2.1.
//
// Not-all-stop (the accurate optical-switch model): reconfiguring one
// circuit costs δ on the two ports involved; unchanged circuits keep
// transmitting, and ports progress independently (Fig 1b's staggering).
//
// All-stop (the conventional TSA model): every assignment change stops all
// circuits for δ. Kept for the ablation of §3.1.2 — it shows why classic
// algorithms need preemption to avoid idle circuits.
#pragma once

#include <vector>

#include "common/units.h"
#include "sched/schedule.h"
#include "trace/demand_matrix.h"

namespace sunflow::obs {
class TraceSink;
}  // namespace sunflow::obs

namespace sunflow {

struct FlowCompletion {
  PortId src = 0;
  PortId dst = 0;
  Time finish = 0;  ///< absolute time the flow's last byte lands
};

struct ExecutionResult {
  Time cct = 0;  ///< max flow finish − start time
  std::vector<FlowCompletion> completions;
  /// Number of circuit setup events that paid δ (Fig 5's switching count).
  /// Also accumulated into the `executor.circuit_setups` metric, so traces,
  /// metrics and this field report from one count.
  int circuit_setups = 0;
  std::size_t num_slots = 0;
  /// When the last circuit of the schedule is released (≥ cct + start).
  Time schedule_end = 0;
};

}  // namespace sunflow

namespace sunflow::engine {

enum class SwitchModel {
  kNotAllStop,  ///< per-port staggered δ (Fig 1b)
  kAllStop,     ///< global δ barrier on any assignment change
};

/// Replays an assignment schedule against the *original* (real, unstuffed,
/// square) demand it was computed for; stuffed dummy demand occupies
/// circuit time but moves no bytes. Also a validator: leftover demand after
/// the last slot is a bug in the scheduler and throws. `sink` optionally
/// receives one kCircuitSetup event per δ paid (labelled `coflow`), and the
/// run's totals feed the `executor.circuit_setups` / `executor.slots`
/// metrics.
ExecutionResult ExecuteAssignmentSchedule(const DemandMatrix& demand,
                                          const AssignmentSchedule& schedule,
                                          Time delta, Time start,
                                          SwitchModel model,
                                          obs::TraceSink* sink,
                                          CoflowId coflow);

}  // namespace sunflow::engine

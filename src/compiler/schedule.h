// Operation scheduling (mapping step 2 in the paper's Sec. III):
// assign start cycles to gates, leveraging parallelism while honouring
//   * data dependencies (shared qubits serialise),
//   * gate durations from the device error/timing model, and
//   * shared classical-control constraints: qubits in the same control
//     group cannot run *different* gate kinds in overlapping cycles
//     (same-kind broadcast is what shared analog electronics allow).
#pragma once

#include <vector>

#include "circuit/circuit.h"
#include "device/device.h"

namespace qfs::compiler {

struct ScheduledGate {
  int gate_index = 0;      ///< index into circuit.gates()
  int start_cycle = 0;     ///< inclusive
  int duration_cycles = 0; ///< >= 1 for non-barrier gates
};

struct Schedule {
  std::vector<ScheduledGate> gates;  ///< one per circuit gate, program order
  int makespan_cycles = 0;
  double cycle_time_ns = 20.0;

  double makespan_ns() const { return makespan_cycles * cycle_time_ns; }
};

struct ScheduleOptions {
  double cycle_time_ns = 20.0;
  /// Apply the device's shared-control-group constraint (if configured).
  bool respect_control_groups = true;
  /// Forbid two two-qubit gates from overlapping in time when their edges
  /// are adjacent on the coupling graph (spatial crosstalk exclusion, the
  /// scheduling side of software crosstalk mitigation).
  bool avoid_crosstalk = false;
};

/// As-soon-as-possible list schedule. Throws qfs::AssertionError when a
/// gate kind the circuit uses lasts more cycles than an int holds, or a
/// gate would end past INT_MAX cycles.
Schedule asap_schedule(const circuit::Circuit& circuit,
                       const device::Device& device,
                       const ScheduleOptions& options = {});

/// As-late-as-possible schedule (same makespan as ASAP; gates pushed late).
Schedule alap_schedule(const circuit::Circuit& circuit,
                       const device::Device& device,
                       const ScheduleOptions& options = {});

/// Validate that a schedule respects dependencies, durations, qubit
/// exclusivity and (optionally) control groups and crosstalk exclusion.
/// Used by property tests.
bool schedule_is_valid(const circuit::Circuit& circuit,
                       const device::Device& device, const Schedule& schedule,
                       const ScheduleOptions& options = {});

/// Number of concurrently-scheduled two-qubit gate pairs on adjacent
/// coupling edges (the crosstalk events a crosstalk-aware schedule avoids).
int count_crosstalk_pairs(const circuit::Circuit& circuit,
                          const device::Device& device,
                          const Schedule& schedule);

/// Gate-fidelity product extended with a multiplicative crosstalk penalty:
/// every crosstalking pair costs one factor of `crosstalk_fidelity_factor`.
/// Returned as a log-fidelity (safe for large circuits).
double estimate_scheduled_log_fidelity(const circuit::Circuit& circuit,
                                       const device::Device& device,
                                       const Schedule& schedule,
                                       double crosstalk_fidelity_factor);

/// Gate-fidelity product plus idle decoherence: every active qubit decays
/// as exp(-idle_ns / T2) over its idle time within the schedule's makespan
/// (idle = makespan minus the qubit's busy cycles; unused qubits are
/// exempt). This is the quantitative reason scheduling "leverages
/// parallelism to shorten execution time" (mapping step 2).
double estimate_log_fidelity_with_decoherence(const circuit::Circuit& circuit,
                                              const device::Device& device,
                                              const Schedule& schedule);

}  // namespace qfs::compiler

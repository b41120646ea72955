// Timed instruction programs: the quantum-ISA / microarchitecture layer of
// the full stack (eQASM-style explicit timing).
//
// A compiled+scheduled circuit lowers to a TimedProgram: bundles of
// instructions that start on the same cycle, each carrying its physical
// operands and duration. This is the representation the control
// electronics would consume; utilisation queries expose how busy the chip
// and its shared control channels are.
#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "compiler/schedule.h"

namespace qfs::isa {

struct Instruction {
  circuit::GateKind kind = circuit::GateKind::kI;
  circuit::Qubits qubits;  ///< physical operands
  circuit::Params params;
  int duration_cycles = 1;
};

/// Instructions issued on the same cycle.
struct Bundle {
  int start_cycle = 0;
  std::vector<Instruction> instructions;
};

class TimedProgram {
 public:
  TimedProgram() = default;
  TimedProgram(std::string name, double cycle_time_ns, int num_qubits,
               std::vector<Bundle> bundles);

  const std::string& name() const { return name_; }
  double cycle_time_ns() const { return cycle_time_ns_; }
  int num_qubits() const { return num_qubits_; }
  const std::vector<Bundle>& bundles() const { return bundles_; }

  /// Total cycles from first issue to last completion.
  int makespan_cycles() const;

  /// Total instruction count (barriers never appear in timed programs).
  int instruction_count() const;

  /// Mean instructions issued per non-empty bundle (a parallelism measure).
  double average_bundle_width() const;

  /// Fraction of the makespan each qubit spends executing.
  std::vector<double> qubit_utilization() const;

  /// eQASM-style text:  "<cycle>: { cz Q0,Q2 | rx(1.57) Q5 }".
  std::string to_text() const;

 private:
  std::string name_;
  double cycle_time_ns_ = 20.0;
  int num_qubits_ = 0;
  std::vector<Bundle> bundles_;
};

/// Lower a circuit with its schedule into a timed program. Barriers are
/// structural and dropped. The schedule must come from the same circuit.
TimedProgram lower_to_timed_program(const circuit::Circuit& circuit,
                                    const compiler::Schedule& schedule);

}  // namespace qfs::isa

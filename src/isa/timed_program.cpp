#include "isa/timed_program.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/strings.h"

namespace qfs::isa {

using circuit::GateKind;

TimedProgram::TimedProgram(std::string name, double cycle_time_ns,
                           int num_qubits, std::vector<Bundle> bundles)
    : name_(std::move(name)),
      cycle_time_ns_(cycle_time_ns),
      num_qubits_(num_qubits),
      bundles_(std::move(bundles)) {
  QFS_ASSERT_MSG(cycle_time_ns_ > 0, "bad cycle time");
  int prev = -1;
  for (const Bundle& b : bundles_) {
    QFS_ASSERT_MSG(b.start_cycle > prev, "bundles must be strictly ordered");
    prev = b.start_cycle;
  }
}

int TimedProgram::makespan_cycles() const {
  int end = 0;
  for (const Bundle& b : bundles_) {
    for (const Instruction& ins : b.instructions) {
      end = std::max(end, b.start_cycle + ins.duration_cycles);
    }
  }
  return end;
}

int TimedProgram::instruction_count() const {
  int n = 0;
  for (const Bundle& b : bundles_) n += static_cast<int>(b.instructions.size());
  return n;
}

double TimedProgram::average_bundle_width() const {
  if (bundles_.empty()) return 0.0;
  return static_cast<double>(instruction_count()) /
         static_cast<double>(bundles_.size());
}

std::vector<double> TimedProgram::qubit_utilization() const {
  std::vector<double> busy(static_cast<std::size_t>(num_qubits_), 0.0);
  int span = makespan_cycles();
  if (span == 0) return busy;
  for (const Bundle& b : bundles_) {
    for (const Instruction& ins : b.instructions) {
      for (int q : ins.qubits) {
        busy[static_cast<std::size_t>(q)] += ins.duration_cycles;
      }
    }
  }
  for (double& v : busy) v /= span;
  return busy;
}

std::string TimedProgram::to_text() const {
  std::ostringstream os;
  os << "# timed program: " << (name_.empty() ? "<anonymous>" : name_) << "\n";
  os << ".qubits " << num_qubits_ << "\n";
  os << ".cycle_time_ns " << qfs::format_double(cycle_time_ns_, 1) << "\n";
  for (const Bundle& b : bundles_) {
    os << b.start_cycle << ": { ";
    for (std::size_t i = 0; i < b.instructions.size(); ++i) {
      const Instruction& ins = b.instructions[i];
      if (i) os << " | ";
      os << circuit::gate_name(ins.kind);
      if (!ins.params.empty()) {
        os << '(';
        for (std::size_t p = 0; p < ins.params.size(); ++p) {
          if (p) os << ',';
          os << qfs::format_double(ins.params[p], 6);
        }
        os << ')';
      }
      os << ' ';
      for (std::size_t q = 0; q < ins.qubits.size(); ++q) {
        if (q) os << ',';
        os << 'Q' << ins.qubits[q];
      }
    }
    os << " }\n";
  }
  return os.str();
}

TimedProgram lower_to_timed_program(const circuit::Circuit& circuit,
                                    const compiler::Schedule& schedule) {
  QFS_ASSERT_MSG(schedule.gates.size() == circuit.gates().size(),
                 "schedule does not match circuit");
  std::map<int, Bundle> by_cycle;
  for (const auto& sg : schedule.gates) {
    const auto& g = circuit.gates()[static_cast<std::size_t>(sg.gate_index)];
    if (g.kind == GateKind::kBarrier) continue;
    Bundle& b = by_cycle[sg.start_cycle];
    b.start_cycle = sg.start_cycle;
    b.instructions.push_back(
        Instruction{g.kind, g.qubits, g.params, sg.duration_cycles});
  }
  std::vector<Bundle> bundles;
  bundles.reserve(by_cycle.size());
  for (auto& [cycle, bundle] : by_cycle) {
    bundles.push_back(std::move(bundle));
  }
  return TimedProgram(circuit.name(), schedule.cycle_time_ns,
                      circuit.num_qubits(), std::move(bundles));
}

}  // namespace qfs::isa

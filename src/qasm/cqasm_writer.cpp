#include "qasm/cqasm_writer.h"

#include <sstream>

#include "support/strings.h"

namespace qfs::qasm {

using circuit::Gate;
using circuit::GateKind;

namespace {

/// cQASM 1.0 mnemonics; empty string means "decompose before emitting".
const char* cqasm_name(GateKind kind) {
  switch (kind) {
    case GateKind::kI: return "i";
    case GateKind::kX: return "x";
    case GateKind::kY: return "y";
    case GateKind::kZ: return "z";
    case GateKind::kH: return "h";
    case GateKind::kS: return "s";
    case GateKind::kSdg: return "sdag";
    case GateKind::kT: return "t";
    case GateKind::kTdg: return "tdag";
    case GateKind::kSx: return "x90";
    case GateKind::kSxdg: return "mx90";
    case GateKind::kRx: return "rx";
    case GateKind::kRy: return "ry";
    case GateKind::kRz: return "rz";
    case GateKind::kCx: return "cnot";
    case GateKind::kCz: return "cz";
    case GateKind::kCphase: return "cr";
    case GateKind::kSwap: return "swap";
    case GateKind::kCcx: return "toffoli";
    case GateKind::kMeasure: return "measure_z";
    case GateKind::kReset: return "prep_z";
    default: return "";
  }
}

/// One instruction body: "cnot q[0],q[1]" or "rx q[0],1.5708".
/// cQASM puts angle parameters after the operands.
void emit_instruction(std::ostringstream& os, GateKind kind,
                      const circuit::Qubits& qubits,
                      const circuit::Params& params) {
  const char* name = cqasm_name(kind);
  QFS_ASSERT_MSG(name[0] != '\0',
                 std::string("gate has no cQASM spelling: ") +
                     circuit::gate_name(kind) + " (decompose first)");
  os << name << ' ';
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    if (i) os << ',';
    os << "q[" << qubits[i] << ']';
  }
  for (double p : params) os << ',' << qfs::format_double(p, 6);
}

}  // namespace

std::string to_cqasm(const circuit::Circuit& circuit) {
  std::ostringstream os;
  os << "version 1.0\n";
  if (!circuit.name().empty()) os << "# circuit: " << circuit.name() << '\n';
  os << "qubits " << circuit.num_qubits() << "\n\n";
  os << "." << (circuit.name().empty() ? "kernel" : circuit.name()) << '\n';
  for (const Gate& g : circuit.gates()) {
    if (g.kind == GateKind::kBarrier) continue;  // structural only
    os << "    ";
    emit_instruction(os, g.kind, g.qubits, g.params);
    os << '\n';
  }
  return os.str();
}

std::string to_cqasm(const isa::TimedProgram& program) {
  std::ostringstream os;
  os << "version 1.0\n";
  if (!program.name().empty()) os << "# program: " << program.name() << '\n';
  os << "# cycle time: " << qfs::format_double(program.cycle_time_ns(), 1)
     << " ns\n";
  os << "qubits " << program.num_qubits() << "\n\n";
  os << "." << (program.name().empty() ? "kernel" : program.name()) << '\n';
  int cursor = 0;
  for (const auto& bundle : program.bundles()) {
    if (bundle.start_cycle > cursor) {
      os << "    wait " << (bundle.start_cycle - cursor) << '\n';
    }
    os << "    ";
    if (bundle.instructions.size() > 1) os << "{ ";
    for (std::size_t i = 0; i < bundle.instructions.size(); ++i) {
      const auto& ins = bundle.instructions[i];
      if (i) os << " | ";
      emit_instruction(os, ins.kind, ins.qubits, ins.params);
    }
    if (bundle.instructions.size() > 1) os << " }";
    os << '\n';
    // The next implicit issue point is one cycle after this bundle starts
    // (cQASM bundles advance the schedule by one cycle; longer durations
    // are covered by explicit waits).
    cursor = bundle.start_cycle + 1;
  }
  return os.str();
}

}  // namespace qfs::qasm

#include "qasm/writer.h"

#include <charconv>

#include "support/strings.h"

namespace qfs::qasm {

using circuit::Gate;
using circuit::GateKind;

namespace {

void append_angle(std::string& out, double value) {
  // 12 significant decimals round-trips doubles well enough for angles.
  qfs::append_double(out, value, 12);
}

void append_int(std::string& out, int value) {
  char buf[16];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;  // 16 bytes hold any int
  out.append(buf, end);
}

void append_qubit(std::string& out, int q) {
  out += "q[";
  append_int(out, q);
  out += ']';
}

void emit_operands(std::string& out, const Gate& g) {
  const char* separator = "";
  for (int q : g.qubits) {
    out += separator;
    append_qubit(out, q);
    separator = ",";
  }
  out += ";\n";
}

void emit_gate(std::string& out, const Gate& g) {
  switch (g.kind) {
    case GateKind::kMeasure:
      out += "measure ";
      append_qubit(out, g.qubits[0]);
      out += " -> c[";
      append_int(out, g.qubits[0]);
      out += "];\n";
      return;
    case GateKind::kReset:
      out += "reset ";
      append_qubit(out, g.qubits[0]);
      out += ";\n";
      return;
    case GateKind::kBarrier:
      out += "barrier ";
      emit_operands(out, g);
      return;
    case GateKind::kPhase:
      // qelib1 calls the phase gate u1.
      out += "u1(";
      append_angle(out, g.params[0]);
      out += ") ";
      emit_operands(out, g);
      return;
    case GateKind::kCphase:
      out += "cu1(";
      append_angle(out, g.params[0]);
      out += ") ";
      emit_operands(out, g);
      return;
    case GateKind::kCcz: {
      // qelib1 has no ccz; emit the standard h-ccx-h conjugation.
      const int t = g.qubits[2];
      out += "h ";
      append_qubit(out, t);
      out += ";\nccx ";
      emit_operands(out, g);
      out += "h ";
      append_qubit(out, t);
      out += ";\n";
      return;
    }
    default:
      break;
  }
  out += circuit::gate_name(g.kind);
  if (!g.params.empty()) {
    out += '(';
    for (std::size_t i = 0; i < g.params.size(); ++i) {
      if (i) out += ',';
      append_angle(out, g.params[i]);
    }
    out += ')';
  }
  out += ' ';
  emit_operands(out, g);
}

}  // namespace

std::string to_qasm(const circuit::Circuit& circuit) {
  std::string out;
  // Header plus about one short line per gate; append grows past it.
  out.reserve(96 + circuit.name().size() + 24 * circuit.gates().size());
  out += "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  if (!circuit.name().empty()) {
    out += "// circuit: ";
    out += circuit.name();
    out += '\n';
  }
  out += "qreg q[";
  append_int(out, circuit.num_qubits());
  out += "];\ncreg c[";
  append_int(out, circuit.num_qubits());
  out += "];\n";
  for (const Gate& g : circuit.gates()) emit_gate(out, g);
  return out;
}

}  // namespace qfs::qasm

#include "circuit/gate.h"

#include <algorithm>
#include <sstream>

#include "support/strings.h"

namespace qfs::circuit {

const char* gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::kI: return "id";
    case GateKind::kX: return "x";
    case GateKind::kY: return "y";
    case GateKind::kZ: return "z";
    case GateKind::kH: return "h";
    case GateKind::kS: return "s";
    case GateKind::kSdg: return "sdg";
    case GateKind::kT: return "t";
    case GateKind::kTdg: return "tdg";
    case GateKind::kSx: return "sx";
    case GateKind::kSxdg: return "sxdg";
    case GateKind::kRx: return "rx";
    case GateKind::kRy: return "ry";
    case GateKind::kRz: return "rz";
    case GateKind::kPhase: return "p";
    case GateKind::kU3: return "u3";
    case GateKind::kCx: return "cx";
    case GateKind::kCy: return "cy";
    case GateKind::kCz: return "cz";
    case GateKind::kCphase: return "cp";
    case GateKind::kSwap: return "swap";
    case GateKind::kCcx: return "ccx";
    case GateKind::kCcz: return "ccz";
    case GateKind::kCswap: return "cswap";
    case GateKind::kMeasure: return "measure";
    case GateKind::kReset: return "reset";
    case GateKind::kBarrier: return "barrier";
  }
  return "?";
}

bool is_two_qubit(GateKind kind) {
  return is_unitary(kind) && gate_arity(kind) == 2;
}

namespace detail {

bool wide_operands_distinct(const Qubits& qubits) {
  std::vector<int> sorted(qubits.begin(), qubits.end());
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

}  // namespace detail

Gate make_gate(GateKind kind, Qubits qubits, Params params) {
  Gate g{kind, std::move(qubits), std::move(params)};
  check_gate(g);
  return g;
}

Gate inverse_gate(const Gate& g) {
  QFS_ASSERT_MSG(is_unitary(g.kind), "inverse of non-unitary gate");
  switch (g.kind) {
    case GateKind::kS:
      return Gate{GateKind::kSdg, g.qubits, {}};
    case GateKind::kSdg:
      return Gate{GateKind::kS, g.qubits, {}};
    case GateKind::kT:
      return Gate{GateKind::kTdg, g.qubits, {}};
    case GateKind::kTdg:
      return Gate{GateKind::kT, g.qubits, {}};
    case GateKind::kSx:
      return Gate{GateKind::kSxdg, g.qubits, {}};
    case GateKind::kSxdg:
      return Gate{GateKind::kSx, g.qubits, {}};
    case GateKind::kRx:
    case GateKind::kRy:
    case GateKind::kRz:
    case GateKind::kPhase:
    case GateKind::kCphase:
      return Gate{g.kind, g.qubits, {-g.params[0]}};
    case GateKind::kU3:
      // (U3(t, p, l))^-1 = U3(-t, -l, -p)
      return Gate{g.kind, g.qubits, {-g.params[0], -g.params[2], -g.params[1]}};
    default:
      return g;  // self-inverse kinds
  }
}

std::string gate_to_string(const Gate& g) {
  std::ostringstream os;
  os << gate_name(g.kind);
  if (!g.params.empty()) {
    os << '(';
    for (std::size_t i = 0; i < g.params.size(); ++i) {
      if (i) os << ',';
      os << qfs::format_double(g.params[i], 6);
    }
    os << ')';
  }
  os << ' ';
  for (std::size_t i = 0; i < g.qubits.size(); ++i) {
    if (i) os << ',';
    os << "q[" << g.qubits[i] << ']';
  }
  return os.str();
}

}  // namespace qfs::circuit

// Gate model: the instruction vocabulary of the qfs IR.
//
// The set covers the common algorithm-level gates (H, T, Toffoli, ...), the
// parametrised rotations used by variational workloads, the primitive sets
// of the modelled devices (CZ + rotations for surface-code superconducting
// chips; CX + SX/RZ for IBM-style chips), and non-unitary operations
// (measure, reset) plus scheduling barriers.
#pragma once

#include <string>
#include <vector>

#include "support/assert.h"

namespace qfs::circuit {

enum class GateKind {
  // single-qubit, parameter-free
  kI,
  kX,
  kY,
  kZ,
  kH,
  kS,
  kSdg,
  kT,
  kTdg,
  kSx,
  kSxdg,
  // single-qubit, parametrised
  kRx,     // params: theta
  kRy,     // params: theta
  kRz,     // params: theta
  kPhase,  // params: lambda (diag(1, e^{i lambda}))
  kU3,     // params: theta, phi, lambda (generic SU(2) up to phase)
  // two-qubit
  kCx,
  kCy,
  kCz,
  kCphase,  // params: lambda
  kSwap,
  // three-qubit
  kCcx,
  kCcz,
  kCswap,
  // non-unitary / structural
  kMeasure,
  kReset,
  kBarrier,
};

/// Number of distinct GateKind values (for iteration in tests/tables).
inline constexpr int kNumGateKinds = static_cast<int>(GateKind::kBarrier) + 1;

/// Lower-case mnemonic ("h", "cx", "rz", ...), matching OpenQASM where the
/// gate exists there.
const char* gate_name(GateKind kind);

/// Number of qubit operands; 0 means variable arity (barrier only).
int gate_arity(GateKind kind);

/// Number of angle parameters the kind carries.
int gate_param_count(GateKind kind);

/// True for gates with a unitary matrix (everything except measure, reset,
/// barrier).
bool is_unitary(GateKind kind);

/// True for two-qubit unitary gates (what an interaction graph records).
bool is_two_qubit(GateKind kind);

/// One instruction: a kind, its qubit operands, and its angle parameters.
struct Gate {
  GateKind kind = GateKind::kI;
  std::vector<int> qubits;
  std::vector<double> params;

  bool operator==(const Gate& other) const = default;
};

/// True when no qubit appears twice. Allocates only for more than three
/// operands (wide barriers).
bool operands_distinct(const std::vector<int>& qubits);

/// Validated constructor: checks arity, parameter count, and operand
/// distinctness.
Gate make_gate(GateKind kind, std::vector<int> qubits,
               std::vector<double> params = {});

/// The exact inverse of a unitary gate (e.g. s -> sdg, rx(t) -> rx(-t)).
/// Calling this on a non-unitary gate is a contract violation.
Gate inverse_gate(const Gate& g);

/// Render "cx q[0],q[1]" style text for logs and golden tests.
std::string gate_to_string(const Gate& g);

}  // namespace qfs::circuit

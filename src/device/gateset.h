// Primitive gate sets: which gate kinds a device executes natively.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "circuit/circuit.h"

namespace qfs::device {

/// The native vocabulary of a quantum processor.
class GateSet {
 public:
  GateSet() : GateSet(std::string(), {}) {}
  GateSet(std::string name, std::set<circuit::GateKind> kinds);

  const std::string& name() const { return name_; }

  /// Measure/reset/barrier are always permitted; unitary kinds must be in
  /// the set.
  bool supports(circuit::GateKind kind) const {
    return ((supported_ >> static_cast<unsigned>(kind)) & 1u) != 0;
  }

  /// True when every gate of the circuit is native.
  bool supports_circuit(const circuit::Circuit& circuit) const;

  const std::set<circuit::GateKind>& kinds() const { return kinds_; }

 private:
  static_assert(circuit::kNumGateKinds <= 32,
                "supported_ holds one bit per gate kind");

  std::string name_;
  std::set<circuit::GateKind> kinds_;
  /// Bit k is set when supports(GateKind(k)): every kind in kinds_ plus
  /// the non-unitary kinds.
  std::uint32_t supported_ = 0;
};

/// Surface-code superconducting chip set (Versluis et al. style): arbitrary
/// x/y/z-axis rotations plus CZ.
GateSet surface_code_gateset();

/// IBM-style basis: rz, sx, x, cx.
GateSet ibm_gateset();

/// Sycamore-style basis: the fSim-class entangler modelled as CZ over the
/// discrete {rz, sx, x} single-qubit vocabulary (phased-XZ with virtual Z).
GateSet sycamore_gateset();

/// Trapped-ion basis: MS/GPI class — arbitrary-axis rotations plus the
/// Mølmer–Sørensen entangler modelled as CX.
GateSet ion_trap_gateset();

/// Neutral-atom basis: global Raman rotations plus the Rydberg-blockade CZ.
GateSet rydberg_gateset();

/// Every unitary kind: used for "no decomposition" experiments.
GateSet universal_gateset();

}  // namespace qfs::device

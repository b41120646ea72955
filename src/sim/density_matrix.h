// Density-matrix simulation: exact evolution under the depolarizing
// channel the Monte-Carlo simulator samples. Used to triangulate all three
// fidelity estimates (analytic product, MC trajectories, exact channel) on
// small circuits.
#pragma once

#include "circuit/circuit.h"
#include "circuit/matrix.h"
#include "device/error_model.h"
#include "sim/statevector.h"

namespace qfs::sim {

class DensityMatrix {
 public:
  /// |0...0><0...0| on n qubits (n <= 8 by contract: 4^n entries).
  explicit DensityMatrix(int num_qubits);

  static DensityMatrix from_pure(const StateVector& state);

  int num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return static_cast<std::size_t>(rho_.dim()); }

  /// rho -> U rho U^dagger for a unitary gate.
  void apply_gate(const circuit::Gate& g);

  /// k-qubit depolarizing channel on `qubits` with error probability p:
  /// rho -> (1-p) rho + p/(4^k - 1) * sum_{P != I} P rho P^dagger.
  void apply_depolarizing(const circuit::Qubits& qubits, double p);

  /// <psi| rho |psi>.
  double fidelity_with(const StateVector& pure) const;

  /// Tr(rho) — 1 up to numerical error for valid states.
  double trace() const;

  /// Tr(rho^2) — 1 for pure states, 1/2^n for the maximally mixed state.
  double purity() const;

 private:
  int num_qubits_ = 0;
  circuit::CMatrix rho_;
};

/// Exact fidelity of running `circuit` under the error model's
/// depolarizing channel (the quantity MC trajectories estimate): evolves
/// the density matrix gate by gate and returns overlap with the ideal
/// output. Circuit width <= 8 by contract.
double exact_noisy_fidelity(const circuit::Circuit& circuit,
                            const device::ErrorModel& em);

}  // namespace qfs::sim

#include "sim/density_matrix.h"

namespace qfs::sim {

using circuit::CMatrix;
using circuit::Complex;
using circuit::Gate;
using circuit::GateKind;

DensityMatrix::DensityMatrix(int num_qubits) : num_qubits_(num_qubits) {
  QFS_ASSERT_MSG(0 <= num_qubits && num_qubits <= 8,
                 "density matrix limited to 8 qubits");
  rho_ = CMatrix(1 << num_qubits);
  rho_.at(0, 0) = 1.0;
}

DensityMatrix DensityMatrix::from_pure(const StateVector& state) {
  DensityMatrix dm(state.num_qubits());
  const auto n = static_cast<int>(state.dim());
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      dm.rho_.at(r, c) = state.amplitude(static_cast<std::size_t>(r)) *
                         std::conj(state.amplitude(static_cast<std::size_t>(c)));
    }
  }
  return dm;
}

void DensityMatrix::apply_gate(const Gate& g) {
  if (g.kind == GateKind::kBarrier) return;
  QFS_ASSERT_MSG(circuit::is_unitary(g.kind),
                 "density-matrix unitary application needs a unitary gate");
  const int dim = rho_.dim();
  // U rho: apply the gate to every column viewed as a state vector.
  CMatrix next(dim);
  for (int col = 0; col < dim; ++col) {
    std::vector<Complex> amps(static_cast<std::size_t>(dim));
    for (int row = 0; row < dim; ++row) {
      amps[static_cast<std::size_t>(row)] = rho_.at(row, col);
    }
    StateVector sv = StateVector::from_amplitudes(std::move(amps));
    sv.apply_gate(g);
    for (int row = 0; row < dim; ++row) {
      next.at(row, col) = sv.amplitude(static_cast<std::size_t>(row));
    }
  }
  // (U rho) U^dagger == (U (U rho)^dagger)^dagger.
  CMatrix adj = next.adjoint();
  for (int col = 0; col < dim; ++col) {
    std::vector<Complex> amps(static_cast<std::size_t>(dim));
    for (int row = 0; row < dim; ++row) {
      amps[static_cast<std::size_t>(row)] = adj.at(row, col);
    }
    StateVector sv = StateVector::from_amplitudes(std::move(amps));
    sv.apply_gate(g);
    for (int row = 0; row < dim; ++row) {
      adj.at(row, col) = sv.amplitude(static_cast<std::size_t>(row));
    }
  }
  rho_ = adj.adjoint();
}

void DensityMatrix::apply_depolarizing(const circuit::Qubits& qubits,
                                       double p) {
  QFS_ASSERT_MSG(0.0 <= p && p <= 1.0, "bad error probability");
  const int k = static_cast<int>(qubits.size());
  QFS_ASSERT_MSG(1 <= k && k <= 2, "depolarizing supports 1 or 2 qubits");
  if (p == 0.0) return;

  const int num_paulis = (k == 1) ? 4 : 16;  // including identity
  CMatrix mixed(rho_.dim());
  const GateKind paulis[4] = {GateKind::kI, GateKind::kX, GateKind::kY,
                              GateKind::kZ};
  for (int code = 1; code < num_paulis; ++code) {
    DensityMatrix term = *this;
    int c = code;
    for (int i = 0; i < k; ++i) {
      GateKind pk = paulis[c % 4];
      c /= 4;
      if (pk != GateKind::kI) {
        term.apply_gate(circuit::make_gate(pk, {qubits[static_cast<std::size_t>(i)]}));
      }
    }
    mixed = mixed + term.rho_;
  }
  double share = p / static_cast<double>(num_paulis - 1);
  rho_ = rho_.scaled(Complex(1.0 - p, 0.0)) + mixed.scaled(Complex(share, 0.0));
}

double DensityMatrix::fidelity_with(const StateVector& pure) const {
  QFS_ASSERT_MSG(pure.dim() == dim(), "dimension mismatch");
  Complex acc{};
  const int dim_i = rho_.dim();
  for (int r = 0; r < dim_i; ++r) {
    for (int c = 0; c < dim_i; ++c) {
      acc += std::conj(pure.amplitude(static_cast<std::size_t>(r))) *
             rho_.at(r, c) * pure.amplitude(static_cast<std::size_t>(c));
    }
  }
  return acc.real();
}

double DensityMatrix::trace() const {
  Complex acc{};
  for (int i = 0; i < rho_.dim(); ++i) acc += rho_.at(i, i);
  return acc.real();
}

double DensityMatrix::purity() const {
  // Tr(rho^2) = sum_ij rho_ij * rho_ji = sum_ij |rho_ij|^2 (hermitian).
  double acc = 0.0;
  for (int r = 0; r < rho_.dim(); ++r) {
    for (int c = 0; c < rho_.dim(); ++c) {
      acc += std::norm(rho_.at(r, c));
    }
  }
  return acc;
}

double exact_noisy_fidelity(const circuit::Circuit& circuit,
                            const device::ErrorModel& em) {
  QFS_ASSERT_MSG(circuit.num_qubits() <= 8,
                 "exact noisy fidelity limited to 8 qubits");
  StateVector ideal(circuit.num_qubits());
  DensityMatrix rho(circuit.num_qubits());
  for (const auto& g : circuit.gates()) {
    if (!circuit::is_unitary(g.kind)) continue;
    ideal.apply_gate(g);
    rho.apply_gate(g);
    rho.apply_depolarizing(g.qubits, 1.0 - em.gate_fidelity(g));
  }
  return rho.fidelity_with(ideal);
}

}  // namespace qfs::sim

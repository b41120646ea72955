#include "sim/noisy.h"

namespace qfs::sim {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

namespace {

GateKind random_pauli(qfs::Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return GateKind::kX;
    case 1: return GateKind::kY;
    default: return GateKind::kZ;
  }
}

/// Apply a uniformly random non-identity Pauli string on `qubits`.
void inject_pauli_error(StateVector& sv, const circuit::Qubits& qubits,
                        qfs::Rng& rng) {
  // Draw until at least one factor is non-identity (uniform over the 4^k-1
  // non-identity strings).
  while (true) {
    bool any = false;
    std::vector<GateKind> picks(qubits.size(), GateKind::kI);
    for (std::size_t i = 0; i < qubits.size(); ++i) {
      if (rng.uniform_int(0, 3) != 0) {  // 3/4 chance non-identity factor
        picks[i] = random_pauli(rng);
        any = true;
      }
    }
    if (!any) continue;
    for (std::size_t i = 0; i < qubits.size(); ++i) {
      if (picks[i] != GateKind::kI) {
        sv.apply_gate(circuit::make_gate(picks[i], {qubits[i]}));
      }
    }
    return;
  }
}

}  // namespace

NoisyRunResult run_noisy(const Circuit& circuit,
                         const device::ErrorModel& em, qfs::Rng& rng,
                         const NoisyRunOptions& options) {
  QFS_ASSERT_MSG(circuit.num_qubits() <= 16,
                 "noisy simulation limited to 16 qubits");
  QFS_ASSERT_MSG(options.shots > 0, "need at least one shot");

  // Ideal reference state.
  StateVector ideal(circuit.num_qubits());
  for (const Gate& g : circuit.gates()) {
    if (circuit::is_unitary(g.kind)) ideal.apply_gate(g);
  }

  NoisyRunResult result;
  result.shots = options.shots;
  double fidelity_sum = 0.0;
  int error_free = 0;
  long long total_errors = 0;

  for (int shot = 0; shot < options.shots; ++shot) {
    StateVector sv(circuit.num_qubits());
    int errors = 0;
    for (const Gate& g : circuit.gates()) {
      if (g.kind == GateKind::kBarrier) continue;
      if (!circuit::is_unitary(g.kind)) {
        if (options.include_measurement_errors &&
            rng.bernoulli(1.0 - em.gate_fidelity(g))) {
          ++errors;
        }
        continue;
      }
      sv.apply_gate(g);
      double p_error = 1.0 - em.gate_fidelity(g);
      if (rng.bernoulli(p_error)) {
        inject_pauli_error(sv, g.qubits, rng);
        ++errors;
      }
    }
    fidelity_sum += state_fidelity(ideal, sv);
    if (errors == 0) ++error_free;
    total_errors += errors;
  }

  result.mean_state_fidelity = fidelity_sum / options.shots;
  result.error_free_fraction =
      static_cast<double>(error_free) / options.shots;
  result.mean_errors_per_shot =
      static_cast<double>(total_errors) / options.shots;
  return result;
}

}  // namespace qfs::sim

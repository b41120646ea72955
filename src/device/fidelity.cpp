#include "device/fidelity.h"

#include <cmath>

namespace qfs::device {

using circuit::GateKind;

namespace {

/// log of one gate fidelity, clamped to the documented floor. The negated
/// comparison also routes NaN reports to the floor.
double log_clamped(double fidelity) {
  if (!(fidelity >= kMinGateFidelity)) fidelity = kMinGateFidelity;
  return std::log(fidelity);
}

}  // namespace

double estimate_log_gate_fidelity(const circuit::Circuit& circuit,
                                  const Device& device) {
  const ErrorModel& em = device.error_model();
  double log_f = 0.0;
  for (const auto& g : circuit.gates()) {
    if (!circuit::is_unitary(g.kind)) continue;
    QFS_ASSERT_MSG(g.qubits.size() <= 2,
                   "fidelity of undecomposed 3-qubit gate");
    log_f += log_clamped(em.gate_fidelity(g));
  }
  return log_f;
}

double estimate_gate_fidelity(const circuit::Circuit& circuit,
                              const Device& device) {
  return std::exp(estimate_log_gate_fidelity(circuit, device));
}

}  // namespace qfs::device

// Circuit fidelity estimation.
//
// Following the caption of the paper's Fig. 3, the estimated circuit
// fidelity is the product of the fidelities of all one- and two-qubit gates
// in the circuit, using the device error model. Measurements/resets are not
// part of that product (the paper's metric is gate fidelity only); a
// variant including them is provided for completeness.
#pragma once

#include "circuit/circuit.h"
#include "device/device.h"

namespace qfs::device {

/// Floor applied to every per-gate fidelity before taking its log. A
/// faulted or degraded device can report a gate fidelity of (or rounding
/// to) zero, and log(0) = -inf poisons every downstream ratio with NaN;
/// clamping here keeps log-fidelities finite. 1e-12 is far below any
/// physical gate fidelity, so the floor never distorts healthy estimates.
inline constexpr double kMinGateFidelity = 1e-12;

/// Product of gate fidelities over all one- and two-qubit unitaries.
double estimate_gate_fidelity(const circuit::Circuit& circuit,
                              const Device& device);

/// log(fidelity): numerically safe for the paper's 100k-gate circuits where
/// the product itself underflows to zero.
double estimate_log_gate_fidelity(const circuit::Circuit& circuit,
                                  const Device& device);

}  // namespace qfs::device

// Calibration data ingestion: the mechanism by which measured hardware
// parameters flow bottom-up into the compiler (the paper's grey arrows in
// Fig. 1).
//
// Format: CSV-like lines, '#' comments allowed.
//   defaults,<f1>,<f2>,<fmeas>
//   qubit,<id>,<fidelity>
//   edge,<a>,<b>,<fidelity>
//   durations_ns,<single>,<two>,<measure>
//   coherence_ns,<t1>,<t2>          (optional; model defaults when absent)
#pragma once

#include <string>

#include "device/error_model.h"
#include "device/topology.h"
#include "support/status.h"

namespace qfs::device {

/// Parse calibration text into an error model. Unknown record types,
/// non-finite numbers, fidelities outside (0, 1], non-positive durations and
/// duplicate qubit/edge records are errors naming the offending line
/// (calibration files must not silently lose or corrupt information).
/// When `num_qubits` >= 0, qubit and edge ids must be < num_qubits.
qfs::StatusOr<ErrorModel> parse_calibration(const std::string& text,
                                            int num_qubits = -1);

/// Parse a topology description:
///   name,<label>        (optional; defaults to "custom")
///   qubits,<n>
///   edge,<a>,<b>        (one per coupling)
/// '#' comments allowed. The graph must be connected (the mapper's routing
/// contract) — disconnected descriptions are rejected.
qfs::StatusOr<Topology> parse_topology(const std::string& text);

}  // namespace qfs::device

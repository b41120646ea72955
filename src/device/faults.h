// Fault injection: degrade a Device the way NISQ hardware degrades between
// calibration runs — dead qubits, dead couplers, fidelity drift — so the
// compilation stack can be exercised and benchmarked against imperfect
// hardware instead of assuming a pristine chip.
//
// The injector is seeded and fully deterministic. Applying a FaultSpec
// yields a DegradedDevice: the largest connected healthy subgraph of the
// original chip, compacted to dense qubit ids, with the error model and
// control groups translated, plus the id maps back to the parent chip.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "device/device.h"
#include "support/status.h"

namespace qfs::device {

/// What breaks. Explicit lists name parent-chip qubits/couplers; fractions
/// add randomly chosen casualties on top (rounded to whole counts).
struct FaultSpec {
  std::vector<int> dead_qubits;
  std::vector<std::pair<int, int>> dead_edges;
  /// Fraction of the chip's qubits additionally killed at random, in [0, 1].
  double dead_qubit_fraction = 0.0;
  /// Fraction of the chip's couplers additionally killed at random, in [0, 1].
  double dead_edge_fraction = 0.0;
  /// Multiplicative fidelity drift: every surviving per-qubit/per-edge
  /// fidelity f becomes f * (1 - u) with u ~ uniform(0, drift), in [0, 1).
  double fidelity_drift = 0.0;
  std::uint64_t seed = 2022;

  bool empty() const {
    return dead_qubits.empty() && dead_edges.empty() &&
           dead_qubit_fraction == 0.0 && dead_edge_fraction == 0.0 &&
           fidelity_drift == 0.0;
  }
};

/// Parse a CLI fault spec: semicolon-separated key=value pairs.
///   dead_qubits=3|17|42 ; dead_edges=0-1|4-5 ; dead_qubit_fraction=0.1 ;
///   dead_edge_fraction=0.1 ; drift=0.02 ; seed=7
/// Unknown keys, malformed numbers, non-finite or out-of-range values are
/// rejected with an invalid_argument Status naming the offending pair.
qfs::StatusOr<FaultSpec> parse_fault_spec(const std::string& text);

/// A degraded chip: the largest connected healthy region of the parent,
/// presented as a valid standalone Device.
struct DegradedDevice {
  Device device;
  /// Degraded qubit id -> parent qubit id (ascending).
  std::vector<int> to_parent;
  /// Parent qubit id -> degraded qubit id, or -1 if the qubit was lost.
  std::vector<int> from_parent;

  int dead_qubits = 0;      ///< qubits killed (explicit + random)
  int dead_edges = 0;       ///< couplers killed directly (explicit + random)
  int stranded_qubits = 0;  ///< healthy qubits lost to disconnection

  /// One-line human-readable report for logs and CLI diagnostics.
  std::string summary() const;
};

/// Applies a FaultSpec to devices. Stateless apart from the spec; every
/// apply() re-seeds, so the same injector is reusable across devices.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {}

  const FaultSpec& spec() const { return spec_; }

  /// Degrade `parent`. Fails with invalid_argument when the spec names
  /// qubits or couplers the chip does not have, and with resource_exhausted
  /// when no healthy qubit survives (an unsalvageable device).
  qfs::StatusOr<DegradedDevice> apply(const Device& parent) const;

 private:
  FaultSpec spec_;
};

}  // namespace qfs::device

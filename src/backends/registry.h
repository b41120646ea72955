// The backend registry: every compilable target, by name.
//
// A backend is a named, parameterized device generator — topology, native
// gate set, error/timing model, control groups, and a deterministic default
// calibration, bundled into a device::Device. The registry is the single
// resolution point: qfsc/qfsd/the benches all turn a spec string
// ("heavy_hex(rows=3,cols=9)") into a Device here, so adding a backend is
// one registration, not a scavenger hunt through flag parsers.
//
// Four connectivity regimes beyond the surface-code family:
//  - heavy_hex(rows,cols): IBM heavy-hex lattice, {rz,sx,x,cx} basis.
//  - sycamore(rows,cols): Google-style 2D grid with alternating diagonal
//    couplers; fSim-class entangler modelled as CZ over a {rz,sx,x} basis.
//  - trapped_ion(ions): all-to-all MS/GPI-class chain. The chain-length
//    cost model folds into the global two-qubit duration/fidelity, and an
//    ion-separation shuttling penalty into per-edge fidelities.
//  - neutral_atom(rows,cols,radius): square lattice with interaction-radius
//    connectivity (Rydberg-blockade CZ); longer-range pairs pay a fidelity
//    penalty.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "backends/spec.h"
#include "device/device.h"
#include "support/status.h"

namespace qfs::backends {

/// One declared parameter of a backend: range, default, integrality.
struct ParamInfo {
  std::string name;
  double min_value = 0.0;
  double max_value = 0.0;
  double default_value = 0.0;
  bool integer = true;
  std::string doc;
};

/// Registry metadata for one backend (what --list-devices prints).
struct BackendInfo {
  std::string name;
  std::string summary;
  std::vector<ParamInfo> params;
};

/// Named, parameterized device generators with strict spec validation.
class BackendRegistry {
 public:
  /// The process-wide registry with every built-in backend registered.
  static const BackendRegistry& global();

  const std::vector<BackendInfo>& entries() const { return infos_; }
  const BackendInfo* find(std::string_view name) const;

  /// Resolve a parsed spec: unknown backends get a did-you-mean, unknown or
  /// duplicate parameters are rejected, missing ones take their defaults,
  /// and every value is range- and integrality-checked before the factory
  /// runs. The returned Device carries the canonical spec (Device::spec()).
  qfs::StatusOr<device::Device> make(const DeviceSpec& spec) const;

  /// Parse + resolve in one step.
  qfs::StatusOr<device::Device> make(std::string_view spec_text) const;

 private:
  using Factory =
      qfs::StatusOr<device::Device> (*)(const std::vector<double>& values);

  BackendRegistry();
  void add(BackendInfo info, Factory factory);

  std::vector<BackendInfo> infos_;
  std::vector<Factory> factories_;
};

/// Resolve `spec_text` through the global registry.
qfs::StatusOr<device::Device> make_device(std::string_view spec_text);

/// Human-readable registry listing for `qfsc --list-devices`: one backend
/// per stanza with parameter ranges and defaults.
std::string list_devices_text();

}  // namespace qfs::backends

#include "device/gateset.h"

namespace qfs::device {

using circuit::GateKind;

GateSet::GateSet(std::string name, std::set<GateKind> kinds)
    : name_(std::move(name)), kinds_(std::move(kinds)) {
  for (int k = 0; k < circuit::kNumGateKinds; ++k) {
    const auto kind = static_cast<GateKind>(k);
    if (!circuit::is_unitary(kind) || kinds_.count(kind) != 0) {
      supported_ |= std::uint32_t{1} << k;
    }
  }
}

bool GateSet::supports_circuit(const circuit::Circuit& circuit) const {
  for (const auto& g : circuit.gates()) {
    if (!supports(g.kind)) return false;
  }
  return true;
}

GateSet surface_code_gateset() {
  return GateSet("surface-code",
                 {GateKind::kI, GateKind::kX, GateKind::kY, GateKind::kRx,
                  GateKind::kRy, GateKind::kRz, GateKind::kZ, GateKind::kCz});
}

GateSet ibm_gateset() {
  return GateSet("ibm", {GateKind::kI, GateKind::kRz, GateKind::kSx,
                         GateKind::kX, GateKind::kCx});
}

GateSet sycamore_gateset() {
  return GateSet("sycamore", {GateKind::kI, GateKind::kRz, GateKind::kSx,
                              GateKind::kX, GateKind::kCz});
}

GateSet ion_trap_gateset() {
  return GateSet("ion-ms",
                 {GateKind::kI, GateKind::kX, GateKind::kY, GateKind::kZ,
                  GateKind::kRx, GateKind::kRy, GateKind::kRz, GateKind::kCx});
}

GateSet rydberg_gateset() {
  return GateSet("rydberg-cz", {GateKind::kI, GateKind::kRx, GateKind::kRy,
                                GateKind::kRz, GateKind::kCz});
}

GateSet universal_gateset() {
  std::set<GateKind> all;
  for (int k = 0; k < circuit::kNumGateKinds; ++k) {
    auto kind = static_cast<GateKind>(k);
    if (circuit::is_unitary(kind)) all.insert(kind);
  }
  return GateSet("universal", std::move(all));
}

}  // namespace qfs::device

#include "cache/fingerprint.h"

#include <charconv>

namespace qfs::cache {

namespace {

/// Appends canonical-text fields to one string: ints in decimal, doubles
/// as their shortest exact rendering, to_chars(general, 17), which the
/// standard defines as printf's %.17g (so 1-ulp calibration drift changes
/// the key).
struct Text {
  std::string out;

  template <typename... Parts>
  Text& put(const Parts&... parts) {
    (one(parts), ...);
    return *this;
  }
  void one(std::string_view s) { out.append(s); }
  void one(char c) { out.push_back(c); }
  void one(int v) {
    char buf[16];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
  void one(double v) {
    char buf[32];
    const auto end =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
    out.append(buf, end.ptr);
  }
};

}  // namespace

FingerprintBuilder& FingerprintBuilder::field(std::string_view tag,
                                              std::string_view value) {
  // Length-prefix tag and value so field boundaries cannot be forged by
  // concatenation ("ab"+"c" never hashes like "a"+"bc").
  std::uint64_t sizes[2] = {tag.size(), value.size()};
  for (std::uint64_t size : sizes) {
    unsigned char le[8];
    for (int i = 0; i < 8; ++i) {
      le[i] = static_cast<unsigned char>((size >> (8 * i)) & 0xff);
    }
    hasher_.update(le, sizeof(le));
  }
  hasher_.update(tag);
  hasher_.update(value);
  return *this;
}

std::string canonical_device_text(const device::Device& device) {
  Text text;
  const auto& topo = device.topology();
  const auto& em = device.error_model();
  text.put("device ", device.name(), '\n');
  // The registry spec (backend name + resolved parameters): two backends
  // that happen to share a coupling graph and error model still get
  // distinct cache keys.
  text.put("spec ", device.spec(), '\n');
  text.put("qubits ", device.num_qubits(), '\n');
  text.put("edges");
  for (const auto& [a, b] : topo.edge_list()) text.put(' ', a, '-', b);
  text.put("\ngateset ", device.gateset().name());
  for (circuit::GateKind kind : device.gateset().kinds()) {
    text.put(' ', circuit::gate_name(kind));
  }
  text.put("\nbase-fidelity ", em.single_qubit_fidelity(), ' ',
           em.two_qubit_fidelity(), ' ', em.measurement_fidelity(), '\n');
  text.put("durations-ns ", em.single_qubit_duration_ns(), ' ',
           em.two_qubit_duration_ns(), ' ', em.measurement_duration_ns(), '\n');
  text.put("coherence-ns ", em.t1_ns(), ' ', em.t2_ns(), '\n');
  // Effective per-qubit / per-edge fidelities: calibration overrides are
  // private to the model, but evaluating every site captures them exactly.
  text.put("qubit-fidelity");
  for (int q = 0; q < device.num_qubits(); ++q) {
    text.put(' ', em.qubit_fidelity(q));
  }
  text.put("\nedge-fidelity");
  for (const auto& [a, b] : topo.edge_list()) {
    text.put(' ', em.edge_fidelity(a, b));
  }
  text.put("\ncontrol-groups");
  if (device.has_control_groups()) {
    for (int q = 0; q < device.num_qubits(); ++q) {
      text.put(' ', device.control_group(q));
    }
  }
  text.put('\n');
  return std::move(text.out);
}

std::string canonical_options_text(const mapper::MappingOptions& options) {
  Text text;
  text.put("placer ", options.placer, '\n');
  text.put("router ", options.router, '\n');
  text.put("sabre-rounds ", options.sabre_refinement_rounds, '\n');
  text.put("initial-layout");
  for (int p : options.initial_layout) text.put(' ', p);
  text.put("\ncompute-latency ", options.compute_latency ? 1 : 0, '\n');
  return std::move(text.out);
}

Fingerprint compile_fingerprint(std::string_view canonical_qasm,
                                const device::Device& device,
                                const mapper::MappingOptions& options,
                                std::uint64_t seed, std::string_view salt) {
  FingerprintBuilder builder;
  builder.field("salt", salt)
      .field("qasm", canonical_qasm)
      .field("device", canonical_device_text(device))
      .field("options", canonical_options_text(options))
      .field("seed", std::to_string(seed));
  return builder.finish();
}

}  // namespace qfs::cache

#include "backends/registry.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/strings.h"

namespace qfs::backends {

namespace {

using device::Device;
using device::ErrorModel;
using device::Topology;

double clamp_fidelity(double f) { return std::min(1.0, std::max(0.5, f)); }

/// Deterministic pseudo-calibration: a fixed index-keyed wave over qubits
/// and edges so noise-aware passes see realistic cross-chip variation
/// without an RNG (registry resolution must be bit-reproducible).
void apply_default_calibration(Device& d, double qubit_spread,
                               double edge_spread) {
  ErrorModel& em = d.mutable_error_model();
  const double f1 = em.single_qubit_fidelity();
  const double f2 = em.two_qubit_fidelity();
  for (int q = 0; q < d.num_qubits(); ++q) {
    const double t = static_cast<double>((q * 37) % 11) / 10.0;  // 0..1
    em.set_qubit_fidelity(q, clamp_fidelity(f1 * (1.0 - qubit_spread * t)));
  }
  const auto& edges = d.topology().edge_list();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const double t = static_cast<double>((i * 53) % 13) / 12.0;
    em.set_edge_fidelity(edges[i].first, edges[i].second,
                         clamp_fidelity(f2 * (1.0 - edge_spread * t)));
  }
}

// ---------------------------------------------------------------------------
// Factories. Each receives the resolved parameter values in declaration
// order (defaults already applied, ranges already checked) and returns the
// assembled device; structural constraints the range metadata cannot
// express (heavy-hex column phase) are typed errors here.
// ---------------------------------------------------------------------------

qfs::StatusOr<Device> make_surface7(const std::vector<double>&) {
  return device::surface7_device();
}
qfs::StatusOr<Device> make_surface17(const std::vector<double>&) {
  return device::surface17_device();
}
qfs::StatusOr<Device> make_surface97(const std::vector<double>&) {
  return device::surface97_device();
}
qfs::StatusOr<Device> make_heavyhex27(const std::vector<double>&) {
  return device::heavy_hex27_device();
}
qfs::StatusOr<Device> make_line(const std::vector<double>& v) {
  return device::line_device(static_cast<int>(v[0]));
}
qfs::StatusOr<Device> make_grid(const std::vector<double>& v) {
  return device::grid_device(static_cast<int>(v[0]), static_cast<int>(v[1]));
}
qfs::StatusOr<Device> make_full(const std::vector<double>& v) {
  return device::fully_connected_device(static_cast<int>(v[0]));
}

/// IBM heavy-hex lattice: {rz,sx,x,cx} basis, Falcon/Eagle-flavoured rates.
qfs::StatusOr<Device> make_heavy_hex(const std::vector<double>& v) {
  const int rows = static_cast<int>(v[0]);
  const int cols = static_cast<int>(v[1]);
  if (cols % 4 != 1) {
    return qfs::invalid_argument(
        "heavy_hex cols must satisfy cols % 4 == 1 (got " +
        std::to_string(cols) + ")");
  }
  ErrorModel model(0.9995, 0.99, 0.98);
  model.set_durations_ns(35.0, 300.0, 700.0);
  model.set_coherence_times_ns(120000.0, 90000.0);
  Topology topo = device::heavy_hex_lattice(rows, cols);
  std::string name = topo.name();
  Device d(std::move(name), std::move(topo), device::ibm_gateset(), model);
  apply_default_calibration(d, 0.0008, 0.006);
  return d;
}

/// Sycamore-style diagonal grid: fSim-as-CZ over {rz,sx,x}, supremacy-paper
/// flavoured rates (1q 0.15 %, 2q 0.6 %, readout 3.5 %).
qfs::StatusOr<Device> make_sycamore(const std::vector<double>& v) {
  const int rows = static_cast<int>(v[0]);
  const int cols = static_cast<int>(v[1]);
  ErrorModel model(0.9985, 0.994, 0.965);
  model.set_durations_ns(25.0, 32.0, 4000.0);
  model.set_coherence_times_ns(15000.0, 10000.0);
  Topology topo = device::sycamore_topology(rows, cols);
  std::string name = topo.name();
  Device d(std::move(name), std::move(topo), device::sycamore_gateset(),
           model);
  apply_default_calibration(d, 0.001, 0.005);
  return d;
}

/// Trapped-ion chain: all-to-all MS/GPI class. The chain-length cost model
/// folds into the *global* two-qubit duration and fidelity (a longer chain
/// means slower, noisier MS gates for everyone), and the ion-shuttling cost
/// into per-edge fidelities (distant ions pay extra transport/recooling).
qfs::StatusOr<Device> make_trapped_ion(const std::vector<double>& v) {
  const int ions = static_cast<int>(v[0]);
  const double chain = static_cast<double>(ions);
  // Base MS fidelity 99.6 % for a 2-ion crystal, degrading 0.05 % per
  // additional ion (spectral crowding of the motional modes).
  const double f2 = clamp_fidelity(0.996 - 0.0005 * (chain - 2.0));
  ErrorModel model(0.9999, f2, 0.9952);
  // 1q Raman gates ~12 us; MS gate 200 us base plus 4 us per ion in the
  // chain; state detection ~130 us.
  model.set_durations_ns(12000.0, 200000.0 + 4000.0 * chain, 130000.0);
  model.set_coherence_times_ns(1.0e10, 1.0e9);
  Topology topo = device::fully_connected_topology(ions);
  std::string name = "trapped-ion-" + std::to_string(ions);
  Device d(std::move(name), std::move(topo), device::ion_trap_gateset(),
           model);
  ErrorModel& em = d.mutable_error_model();
  for (const auto& [a, b] : d.topology().edge_list()) {
    // 0.03 % extra infidelity per unit of ion separation beyond neighbours.
    const double separation = static_cast<double>(b - a);
    em.set_edge_fidelity(a, b,
                         clamp_fidelity(f2 * (1.0 - 0.0003 * (separation - 1.0))));
  }
  return d;
}

/// Neutral-atom square lattice: Rydberg-blockade CZ within the interaction
/// radius; longer-range pairs sit nearer the blockade edge and pay a
/// distance-dependent fidelity penalty.
qfs::StatusOr<Device> make_neutral_atom(const std::vector<double>& v) {
  const int rows = static_cast<int>(v[0]);
  const int cols = static_cast<int>(v[1]);
  const double radius = v[2];
  ErrorModel model(0.9995, 0.989, 0.975);
  model.set_durations_ns(500.0, 270.0, 20000.0);
  model.set_coherence_times_ns(1.5e9, 4.0e6);
  Topology topo = device::neutral_atom_topology(rows, cols, radius);
  std::string name = topo.name();
  Device d(std::move(name), std::move(topo), device::rydberg_gateset(), model);
  ErrorModel& em = d.mutable_error_model();
  for (const auto& [a, b] : d.topology().edge_list()) {
    const double dr = a / cols - b / cols;
    const double dc = a % cols - b % cols;
    const double dist = std::sqrt(dr * dr + dc * dc);
    // 2 % extra infidelity per unit of distance beyond nearest neighbour.
    em.set_edge_fidelity(
        a, b, clamp_fidelity(0.989 * (1.0 - 0.02 * (dist - 1.0))));
  }
  return d;
}

ParamInfo int_param(std::string name, double min, double max, double def,
                    std::string doc) {
  ParamInfo p;
  p.name = std::move(name);
  p.min_value = min;
  p.max_value = max;
  p.default_value = def;
  p.integer = true;
  p.doc = std::move(doc);
  return p;
}

ParamInfo real_param(std::string name, double min, double max, double def,
                     std::string doc) {
  ParamInfo p = int_param(std::move(name), min, max, def, std::move(doc));
  p.integer = false;
  return p;
}

}  // namespace

BackendRegistry::BackendRegistry() {
  add({"surface7", "7-qubit surface-code chip (Fig. 2 of the paper)", {}},
      &make_surface7);
  add({"surface17",
       "17-qubit Versluis et al. surface-code chip with 3-way flux groups",
       {}},
      &make_surface17);
  add({"surface97",
       "97-qubit extended surface lattice (the paper's 100-qubit target)",
       {}},
      &make_surface97);
  add({"heavyhex27", "27-qubit IBM Falcon heavy-hex chip, {rz,sx,x,cx} basis",
       {}},
      &make_heavyhex27);
  add({"line",
       "1D nearest-neighbour chain with the surface-code basis",
       {int_param("n", 2, 4096, 16, "number of qubits")}},
      &make_line);
  add({"grid",
       "2D nearest-neighbour grid with the surface-code basis",
       {int_param("rows", 1, 64, 4, "grid rows"),
        int_param("cols", 1, 64, 5, "grid columns")}},
      &make_grid);
  add({"full",
       "fully connected coupling with the surface-code basis",
       {int_param("n", 2, 256, 9, "number of qubits")}},
      &make_full);
  add({"heavy_hex",
       "IBM-style heavy-hex lattice, {rz,sx,x,cx} basis, degree <= 3",
       {int_param("rows", 1, 32, 3, "horizontal qubit rows"),
        int_param("cols", 5, 65, 9, "qubits per row (cols % 4 == 1)")}},
      &make_heavy_hex);
  add({"sycamore",
       "Sycamore-style grid with diagonal couplers, fSim-as-CZ over {rz,sx,x}",
       {int_param("rows", 2, 32, 5, "grid rows"),
        int_param("cols", 2, 32, 4, "grid columns")}},
      &make_sycamore);
  add({"trapped_ion",
       "all-to-all trapped-ion chain, MS/GPI basis, chain-length cost model",
       {int_param("ions", 2, 64, 20, "ions in the chain")}},
      &make_trapped_ion);
  add({"neutral_atom",
       "neutral-atom lattice with interaction-radius Rydberg-CZ connectivity",
       {int_param("rows", 2, 32, 4, "lattice rows"),
        int_param("cols", 2, 32, 5, "lattice columns"),
        real_param("radius", 1.0, 3.0, 1.5,
                   "interaction radius in lattice units")}},
      &make_neutral_atom);
}

void BackendRegistry::add(BackendInfo info, Factory factory) {
  infos_.push_back(std::move(info));
  factories_.push_back(factory);
}

const BackendRegistry& BackendRegistry::global() {
  static const BackendRegistry registry;
  return registry;
}

const BackendInfo* BackendRegistry::find(std::string_view name) const {
  for (const auto& info : infos_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

qfs::StatusOr<device::Device> BackendRegistry::make(
    const DeviceSpec& spec) const {
  const BackendInfo* info = nullptr;
  Factory factory = nullptr;
  for (std::size_t i = 0; i < infos_.size(); ++i) {
    if (infos_[i].name == spec.name) {
      info = &infos_[i];
      factory = factories_[i];
      break;
    }
  }
  if (info == nullptr) {
    std::vector<std::string> names;
    names.reserve(infos_.size());
    for (const auto& e : infos_) names.push_back(e.name);
    std::string message = "unknown device '" + spec.name + "'";
    std::string suggestion = closest_match(spec.name, names);
    if (!suggestion.empty()) {
      message += " (did you mean '" + suggestion + "'?)";
    } else {
      message += " (try --list-devices)";
    }
    return qfs::invalid_argument(message);
  }

  if (spec.args.size() > info->params.size()) {
    return qfs::invalid_argument(
        "backend '" + info->name + "' takes at most " +
        std::to_string(info->params.size()) + " parameter(s), got " +
        std::to_string(spec.args.size()));
  }
  std::vector<double> values;
  std::vector<bool> assigned(info->params.size(), false);
  values.reserve(info->params.size());
  for (const auto& p : info->params) values.push_back(p.default_value);

  for (std::size_t i = 0; i < spec.args.size(); ++i) {
    const SpecArg& arg = spec.args[i];
    std::size_t slot = i;
    if (!arg.name.empty()) {
      slot = info->params.size();
      for (std::size_t j = 0; j < info->params.size(); ++j) {
        if (info->params[j].name == arg.name) {
          slot = j;
          break;
        }
      }
      if (slot == info->params.size()) {
        std::vector<std::string> names;
        for (const auto& p : info->params) names.push_back(p.name);
        std::string message = "backend '" + info->name +
                              "' has no parameter '" + arg.name + "'";
        std::string suggestion = closest_match(arg.name, names);
        if (!suggestion.empty()) {
          message += " (did you mean '" + suggestion + "'?)";
        }
        return qfs::invalid_argument(message);
      }
    }
    if (assigned[slot]) {
      return qfs::invalid_argument("duplicate parameter '" +
                                   info->params[slot].name + "' for backend '" +
                                   info->name + "'");
    }
    const ParamInfo& param = info->params[slot];
    if (arg.value < param.min_value || arg.value > param.max_value) {
      return qfs::invalid_argument(
          "parameter '" + param.name + "' of backend '" + info->name +
          "' must be in [" + format_spec_value(param.min_value) + ", " +
          format_spec_value(param.max_value) + "], got " +
          format_spec_value(arg.value));
    }
    if (param.integer && arg.value != std::nearbyint(arg.value)) {
      return qfs::invalid_argument("parameter '" + param.name +
                                   "' of backend '" + info->name +
                                   "' must be an integer, got " +
                                   format_spec_value(arg.value));
    }
    values[slot] = arg.value;
    assigned[slot] = true;
  }

  auto made = factory(values);
  if (!made.is_ok()) return made.status();
  device::Device dev = std::move(made).value();

  // Stamp the fully resolved canonical spec (every parameter named, in
  // declaration order) — the identity the cache fingerprint hashes.
  DeviceSpec canonical;
  canonical.name = info->name;
  for (std::size_t j = 0; j < info->params.size(); ++j) {
    canonical.args.push_back({info->params[j].name, values[j]});
  }
  dev.set_spec(spec_to_string(canonical));
  return dev;
}

qfs::StatusOr<device::Device> BackendRegistry::make(
    std::string_view spec_text) const {
  auto spec = parse_device_spec(spec_text);
  if (!spec.is_ok()) return spec.status();
  return make(spec.value());
}

qfs::StatusOr<device::Device> make_device(std::string_view spec_text) {
  return BackendRegistry::global().make(spec_text);
}

std::string list_devices_text() {
  std::ostringstream os;
  for (const auto& info : BackendRegistry::global().entries()) {
    os << info.name;
    if (!info.params.empty()) {
      os << '(';
      for (std::size_t j = 0; j < info.params.size(); ++j) {
        if (j > 0) os << ',';
        os << info.params[j].name << '='
           << format_spec_value(info.params[j].default_value);
      }
      os << ')';
    }
    os << '\n';
    os << "    " << info.summary << '\n';
    for (const auto& p : info.params) {
      os << "    " << p.name << ": " << p.doc << ", "
         << (p.integer ? "integer" : "real") << " in ["
         << format_spec_value(p.min_value) << ", "
         << format_spec_value(p.max_value) << "], default "
         << format_spec_value(p.default_value) << '\n';
    }
  }
  return os.str();
}

}  // namespace qfs::backends

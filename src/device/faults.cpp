#include "device/faults.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "graph/algorithms.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qfs::device {

namespace {

std::pair<int, int> ordered(int a, int b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

qfs::Status spec_error(const std::string& pair, const std::string& why) {
  return qfs::invalid_argument("fault spec '" + pair + "': " + why);
}

bool parse_fraction(const std::string& value, double lo_excl_hi, double& out) {
  // Accepts [0, lo_excl_hi]; rejects non-finite values.
  if (!qfs::parse_double(value, out)) return false;
  return std::isfinite(out) && 0.0 <= out && out <= lo_excl_hi;
}

}  // namespace

qfs::StatusOr<FaultSpec> parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  for (const auto& raw : qfs::split(text, ';')) {
    std::string pair(qfs::trim(raw));
    if (pair.empty()) continue;
    auto eq = pair.find('=');
    if (eq == std::string::npos) {
      return spec_error(pair, "expected key=value");
    }
    std::string key(qfs::trim(pair.substr(0, eq)));
    std::string value(qfs::trim(pair.substr(eq + 1)));
    if (key == "dead_qubits") {
      for (const auto& tok : qfs::split(value, '|')) {
        int q = 0;
        if (!qfs::parse_int(tok, q) || q < 0) {
          return spec_error(pair, "bad qubit id '" + tok + "'");
        }
        spec.dead_qubits.push_back(q);
      }
    } else if (key == "dead_edges") {
      for (const auto& tok : qfs::split(value, '|')) {
        auto ends = qfs::split(tok, '-');
        int a = 0, b = 0;
        if (ends.size() != 2 || !qfs::parse_int(ends[0], a) ||
            !qfs::parse_int(ends[1], b) || a < 0 || b < 0 || a == b) {
          return spec_error(pair, "bad edge '" + tok + "' (expected a-b)");
        }
        spec.dead_edges.push_back(ordered(a, b));
      }
    } else if (key == "dead_qubit_fraction") {
      if (!parse_fraction(value, 1.0, spec.dead_qubit_fraction)) {
        return spec_error(pair, "fraction must be in [0, 1]");
      }
    } else if (key == "dead_edge_fraction") {
      if (!parse_fraction(value, 1.0, spec.dead_edge_fraction)) {
        return spec_error(pair, "fraction must be in [0, 1]");
      }
    } else if (key == "drift") {
      if (!parse_fraction(value, 1.0, spec.fidelity_drift) ||
          spec.fidelity_drift >= 1.0) {
        return spec_error(pair, "drift must be in [0, 1)");
      }
    } else if (key == "seed") {
      int seed = 0;
      if (!qfs::parse_int(value, seed) || seed < 0) {
        return spec_error(pair, "bad seed");
      }
      spec.seed = static_cast<std::uint64_t>(seed);
    } else {
      return spec_error(pair, "unknown key '" + key + "'");
    }
  }
  return spec;
}

std::string DegradedDevice::summary() const {
  std::ostringstream os;
  os << device.name() << ": " << device.num_qubits() << "/"
     << from_parent.size() << " qubits healthy (" << dead_qubits << " dead, "
     << stranded_qubits << " stranded), " << dead_edges << " couplers dead";
  return os.str();
}

qfs::StatusOr<DegradedDevice> FaultInjector::apply(const Device& parent) const {
  const Topology& topo = parent.topology();
  const int n = topo.num_qubits();
  const auto all_edges = topo.edge_list();

  // Explicit casualties, validated against the chip and deduplicated.
  std::set<int> dead_q;
  for (int q : spec_.dead_qubits) {
    if (q < 0 || q >= n) {
      return qfs::invalid_argument("fault spec kills qubit " +
                                   std::to_string(q) + " but " +
                                   parent.name() + " has qubits 0.." +
                                   std::to_string(n - 1));
    }
    dead_q.insert(q);
  }
  std::set<std::pair<int, int>> dead_e;
  for (const auto& [a, b] : spec_.dead_edges) {
    if (a >= n || b >= n || !topo.adjacent(a, b)) {
      return qfs::invalid_argument("fault spec kills coupler " +
                                   std::to_string(a) + "-" +
                                   std::to_string(b) + " which " +
                                   parent.name() + " does not have");
    }
    dead_e.insert(ordered(a, b));
  }

  qfs::Rng rng(spec_.seed);

  // Random qubit casualties on top of the explicit ones.
  std::vector<int> alive;
  for (int q = 0; q < n; ++q) {
    if (dead_q.count(q) == 0) alive.push_back(q);
  }
  int want_q = static_cast<int>(std::lround(spec_.dead_qubit_fraction * n));
  want_q = std::min(want_q, static_cast<int>(alive.size()));
  if (want_q > 0) {
    for (int idx : rng.sample_without_replacement(
             static_cast<int>(alive.size()), want_q)) {
      dead_q.insert(alive[static_cast<std::size_t>(idx)]);
    }
  }

  // Random coupler casualties among edges that are still operational.
  std::vector<std::pair<int, int>> live_edges;
  for (const auto& [a, b] : all_edges) {
    if (dead_q.count(a) || dead_q.count(b) || dead_e.count({a, b})) continue;
    live_edges.push_back({a, b});
  }
  int want_e = static_cast<int>(
      std::lround(spec_.dead_edge_fraction * all_edges.size()));
  want_e = std::min(want_e, static_cast<int>(live_edges.size()));
  if (want_e > 0) {
    for (int idx : rng.sample_without_replacement(
             static_cast<int>(live_edges.size()), want_e)) {
      dead_e.insert(live_edges[static_cast<std::size_t>(idx)]);
    }
  }

  if (static_cast<int>(dead_q.size()) == n) {
    return qfs::resource_exhausted("all " + std::to_string(n) + " qubits of " +
                                   parent.name() + " are dead");
  }

  // Healthy coupling graph over parent ids, then its largest connected
  // component restricted to healthy qubits becomes the degraded chip.
  graph::Graph healthy(n);
  for (const auto& [a, b] : all_edges) {
    if (dead_q.count(a) || dead_q.count(b) || dead_e.count({a, b})) continue;
    healthy.add_edge(a, b);
  }
  auto comp = graph::connected_components(healthy);
  std::vector<int> comp_size;
  for (int q = 0; q < n; ++q) {
    if (dead_q.count(q)) continue;  // dead qubits never count as members
    int c = comp[static_cast<std::size_t>(q)];
    if (c >= static_cast<int>(comp_size.size())) {
      comp_size.resize(static_cast<std::size_t>(c) + 1, 0);
    }
    ++comp_size[static_cast<std::size_t>(c)];
  }
  int best = -1;
  for (int c = 0; c < static_cast<int>(comp_size.size()); ++c) {
    if (best == -1 ||
        comp_size[static_cast<std::size_t>(c)] >
            comp_size[static_cast<std::size_t>(best)]) {
      best = c;
    }
  }
  std::vector<int> keep;
  for (int q = 0; q < n; ++q) {
    if (dead_q.count(q) == 0 && comp[static_cast<std::size_t>(q)] == best) {
      keep.push_back(q);
    }
  }
  QFS_ASSERT_MSG(!keep.empty(), "healthy component empty despite live qubits");

  DegradedDevice out;
  out.from_parent.assign(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    out.from_parent[static_cast<std::size_t>(keep[i])] = static_cast<int>(i);
  }
  out.to_parent = keep;
  out.dead_qubits = static_cast<int>(dead_q.size());
  out.dead_edges = static_cast<int>(dead_e.size());
  out.stranded_qubits =
      n - static_cast<int>(dead_q.size()) - static_cast<int>(keep.size());

  Topology degraded_topo(parent.name() + "-degraded",
                         graph::induced_subgraph(healthy, keep));

  // Translate the error model: surviving per-qubit/per-edge fidelities are
  // pinned as overrides on the new ids, then drifted downward.
  const ErrorModel& base = parent.error_model();
  ErrorModel em(base.single_qubit_fidelity(), base.two_qubit_fidelity(),
                base.measurement_fidelity());
  em.set_durations_ns(base.single_qubit_duration_ns(),
                      base.two_qubit_duration_ns(),
                      base.measurement_duration_ns());
  em.set_coherence_times_ns(base.t1_ns(), base.t2_ns());
  auto drifted = [this, &rng](double f) {
    if (spec_.fidelity_drift > 0.0) {
      f *= 1.0 - rng.uniform_real(0.0, spec_.fidelity_drift);
    }
    return std::clamp(f, 1e-6, 1.0);
  };
  for (int q = 0; q < degraded_topo.num_qubits(); ++q) {
    em.set_qubit_fidelity(
        q, drifted(base.qubit_fidelity(out.to_parent[static_cast<std::size_t>(q)])));
  }
  for (const auto& [a, b] : degraded_topo.edge_list()) {
    em.set_edge_fidelity(
        a, b,
        drifted(base.edge_fidelity(out.to_parent[static_cast<std::size_t>(a)],
                                   out.to_parent[static_cast<std::size_t>(b)])));
  }

  std::string name = degraded_topo.name();
  out.device = Device(name, std::move(degraded_topo), parent.gateset(), em);
  if (parent.has_control_groups()) {
    std::vector<int> groups;
    groups.reserve(keep.size());
    for (int p : keep) groups.push_back(parent.control_group(p));
    out.device.set_control_groups(std::move(groups));
  }
  return out;
}

}  // namespace qfs::device

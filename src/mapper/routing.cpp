#include "mapper/routing.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <queue>

#include "circuit/dag.h"
#include "circuit/flat.h"
#include "mapper/optimal.h"

namespace qfs::mapper {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using device::Device;

namespace {

/// Emit `g` with operands translated from virtual to physical.
void emit_remapped(Circuit& out, const Gate& g, const Layout& layout) {
  std::vector<int> phys;
  phys.reserve(g.qubits.size());
  for (int v : g.qubits) phys.push_back(layout.physical(v));
  out.add(g.kind, std::move(phys), g.params);
}

/// Swap the virtual contents of two coupled physical qubits, recording the
/// gate and the layout update.
void emit_swap(Circuit& out, Layout& layout, int pa, int pb, int& counter) {
  out.add(GateKind::kSwap, {pa, pb});
  layout.apply_swap(pa, pb);
  ++counter;
}

void check_routable(const Circuit& circuit, const Device& device) {
  QFS_ASSERT_MSG(circuit.num_qubits() <= device.num_qubits(),
                 "circuit wider than device");
  for (const Gate& g : circuit.gates()) {
    QFS_ASSERT_MSG(g.kind == GateKind::kBarrier || g.qubits.size() <= 2,
                   "route requires gates of arity <= 2; decompose first");
  }
}

/// Route one two-qubit gate by swapping operand A along `path` until it is
/// adjacent to operand B. `path` runs from A's location to B's location.
void swap_along_path(Circuit& out, Layout& layout,
                     const std::vector<int>& path, int& counter) {
  QFS_ASSERT_MSG(path.size() >= 2, "path too short");
  for (std::size_t i = 0; i + 2 < path.size(); ++i) {
    emit_swap(out, layout, path[i], path[i + 1], counter);
  }
}

}  // namespace

bool respects_connectivity(const Circuit& mapped, const Device& device) {
  const auto& topo = device.topology();
  return mapped.satisfies_connectivity(
      [&topo](int a, int b) { return topo.adjacent(a, b); });
}

// ---------------------------------------------------------------------------
// TrivialRouter
// ---------------------------------------------------------------------------

RoutingResult TrivialRouter::route(const Circuit& circuit, const Device& device,
                                   const Layout& initial,
                                   [[maybe_unused]] qfs::Rng& rng) const {
  check_routable(circuit, device);
  RoutingResult result;
  result.mapped = Circuit(device.num_qubits(), circuit.name());
  result.final_layout = initial;
  Layout& layout = result.final_layout;
  const auto& topo = device.topology();

  for (const Gate& g : circuit.gates()) {
    if (circuit::is_unitary(g.kind) && g.qubits.size() == 2) {
      int pa = layout.physical(g.qubits[0]);
      int pb = layout.physical(g.qubits[1]);
      if (!topo.adjacent(pa, pb)) {
        swap_along_path(result.mapped, layout, topo.shortest_path(pa, pb),
                        result.swaps_inserted);
      }
    }
    emit_remapped(result.mapped, g, layout);
  }
  return result;
}

// ---------------------------------------------------------------------------
// BridgeRouter
// ---------------------------------------------------------------------------

RoutingResult BridgeRouter::route(const Circuit& circuit, const Device& device,
                                  const Layout& initial,
                                  [[maybe_unused]] qfs::Rng& rng) const {
  check_routable(circuit, device);
  RoutingResult result;
  result.mapped = Circuit(device.num_qubits(), circuit.name());
  result.final_layout = initial;
  Layout& layout = result.final_layout;
  const auto& topo = device.topology();

  auto emit_bridge_cx = [&](int pc, int pm, int pt) {
    // CX(c,t) == CX(c,m) CX(m,t) CX(c,m) CX(m,t) with m between them.
    result.mapped.cx(pc, pm);
    result.mapped.cx(pm, pt);
    result.mapped.cx(pc, pm);
    result.mapped.cx(pm, pt);
  };

  for (const Gate& g : circuit.gates()) {
    if (circuit::is_unitary(g.kind) && g.qubits.size() == 2) {
      int pa = layout.physical(g.qubits[0]);
      int pb = layout.physical(g.qubits[1]);
      int dist = topo.distance(pa, pb);
      bool bridgeable =
          dist == 2 && (g.kind == GateKind::kCx || g.kind == GateKind::kCz);
      if (bridgeable) {
        auto path = topo.shortest_path(pa, pb);
        QFS_ASSERT(path.size() == 3);
        int middle = path[1];
        if (g.kind == GateKind::kCz) {
          // CZ = (I ⊗ H) CX (I ⊗ H); the pipeline lowers H afterwards.
          result.mapped.h(pb);
          emit_bridge_cx(pa, middle, pb);
          result.mapped.h(pb);
        } else {
          emit_bridge_cx(pa, middle, pb);
        }
        continue;  // gate realised without touching the layout
      }
      if (!topo.adjacent(pa, pb)) {
        swap_along_path(result.mapped, layout, topo.shortest_path(pa, pb),
                        result.swaps_inserted);
      }
    }
    emit_remapped(result.mapped, g, layout);
  }
  return result;
}

// ---------------------------------------------------------------------------
// LookaheadRouter (SABRE-style)
// ---------------------------------------------------------------------------

namespace {

/// Per-Op unitarity, precomputed so the flat inner loops replace the
/// is_unitary(kind) switch with one table load.
struct OpTraits {
  bool is_unitary[circuit::kNumOps] = {};
};

const OpTraits& op_traits() {
  static const OpTraits traits = [] {
    OpTraits t;
    for (int k = 0; k < circuit::kNumOps; ++k) {
      t.is_unitary[k] = circuit::is_unitary(static_cast<GateKind>(k));
    }
    return t;
  }();
  return traits;
}

/// Scratch buffers of the lookahead router. thread_local: the
/// compile_resilient fallback ladder retries the same circuit several
/// times on one thread, and SABRE refinement routes it forward and backward
/// per round — every attempt reuses these allocations (a per-circuit arena)
/// instead of re-growing a fresh DAG bookkeeping set each time.
struct LookaheadScratch {
  circuit::FlatCircuit flat;
  std::vector<int> unresolved;
  std::vector<std::uint8_t> emitted;
  std::deque<int> ready;
  std::vector<int> ahead;
};

LookaheadScratch& lookahead_scratch() {
  static thread_local LookaheadScratch scratch;
  return scratch;
}

}  // namespace

/// Scans the flat IR (Instr operands, flat distance rows) in its inner
/// loops and emits from the original Gate objects. Candidate swaps are
/// tried arithmetically (p==ea -> eb, p==eb -> ea) rather than by mutating
/// the layout.
RoutingResult LookaheadRouter::route(const Circuit& circuit,
                                     const Device& device,
                                     const Layout& initial,
                                     [[maybe_unused]] qfs::Rng& rng) const {
  check_routable(circuit, device);
  const auto& topo = device.topology();
  const device::TopologyTables& tables = *topo.tables();
  if (!tables.connected) {
    // Swaps never move a qubit across components, so a two-qubit gate whose
    // operands start in different components can never be routed. Checked
    // once up front: the inner loops read the distance table unchecked.
    for (const Gate& g : circuit.gates()) {
      if (circuit::is_unitary(g.kind) && g.qubits.size() == 2) {
        topo.distance(initial.physical(g.qubits[0]),
                      initial.physical(g.qubits[1]));
      }
    }
  }

  RoutingResult result;
  result.mapped = Circuit(device.num_qubits(), circuit.name());
  result.final_layout = initial;
  Layout& layout = result.final_layout;
  const auto& gates = circuit.gates();
  const std::vector<int>& v2p = layout.v2p();
  const OpTraits& traits = op_traits();

  LookaheadScratch& scratch = lookahead_scratch();
  scratch.flat = circuit::flatten(circuit);
  const std::vector<circuit::Instr>& instrs = scratch.flat.instrs;

  circuit::DependencyDag dag(circuit);
  std::vector<int>& unresolved = scratch.unresolved;
  unresolved.assign(instrs.size(), 0);
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    unresolved[i] =
        static_cast<int>(dag.predecessors(static_cast<int>(i)).size());
  }

  std::deque<int>& ready = scratch.ready;
  ready.clear();
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (unresolved[i] == 0) ready.push_back(static_cast<int>(i));
  }

  std::vector<std::uint8_t>& emitted = scratch.emitted;
  emitted.assign(instrs.size(), 0);
  auto resolve = [&](int gi) {
    emitted[static_cast<std::size_t>(gi)] = 1;
    for (int s : dag.successors(gi)) {
      if (--unresolved[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }
  };

  const int* dist = tables.dist.data();
  const int n = tables.n;
  auto is_blocked_2q = [&](int gi) {
    const circuit::Instr& ins = instrs[static_cast<std::size_t>(gi)];
    if (!(ins.num_qubits == 2 &&
          traits.is_unitary[static_cast<int>(ins.op)]))
      return false;
    const int pa = v2p[static_cast<std::size_t>(ins.q[0])];
    const int pb = v2p[static_cast<std::size_t>(ins.q[1])];
    return dist[static_cast<std::size_t>(pa) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(pb)] != 1;
  };

  // Collect the next `window_` two-qubit gates after the front (by program
  // order among not-yet-emitted gates) for the lookahead term. `scan_start`
  // is a persistent cursor at the first not-yet-emitted gate: indices below
  // it stay emitted forever, so each call resumes there instead of
  // rescanning from 0 — without it routing is O(gates x window) quadratic
  // on the paper's 100k-gate circuits.
  std::size_t scan_start = 0;
  auto lookahead_set = [&]() -> const std::vector<int>& {
    while (scan_start < instrs.size() && emitted[scan_start] != 0)
      ++scan_start;
    std::vector<int>& ahead = scratch.ahead;
    ahead.clear();
    for (std::size_t i = scan_start;
         i < instrs.size() && static_cast<int>(ahead.size()) < window_; ++i) {
      if (emitted[i] != 0) continue;
      const circuit::Instr& ins = instrs[i];
      if (ins.num_qubits == 2 && traits.is_unitary[static_cast<int>(ins.op)]) {
        ahead.push_back(static_cast<int>(i));
      }
    }
    return ahead;
  };

  int last_swap_a = -1, last_swap_b = -1;
  int swaps_since_progress = 0;
  const int stall_limit = 4 * std::max(4, device.num_qubits());

  while (true) {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t k = 0; k < ready.size();) {
        int gi = ready[k];
        if (!is_blocked_2q(gi)) {
          emit_remapped(result.mapped, gates[static_cast<std::size_t>(gi)],
                        layout);
          resolve(gi);
          ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(k));
          progressed = true;
          swaps_since_progress = 0;
          last_swap_a = last_swap_b = -1;
        } else {
          ++k;
        }
      }
    }
    if (ready.empty()) break;  // all gates emitted

    // Every ready gate is a blocked two-qubit gate: pick a swap.
    if (swaps_since_progress >= stall_limit) {
      // Safety valve: force-route the first blocked gate trivially.
      int gi = ready.front();
      const circuit::Instr& ins = instrs[static_cast<std::size_t>(gi)];
      int pa = v2p[static_cast<std::size_t>(ins.q[0])];
      int pb = v2p[static_cast<std::size_t>(ins.q[1])];
      swap_along_path(result.mapped, layout, topo.shortest_path(pa, pb),
                      result.swaps_inserted);
      swaps_since_progress = 0;
      continue;
    }

    const std::vector<int>& ahead = lookahead_set();

    // Candidate swaps: coupling edges touching an operand of a front gate,
    // scanned over the cached SoA edge arrays in lexicographic order. Only
    // a strictly better score replaces the best, so that order fixes the
    // tie-breaks, and with them the output bytes.
    double best_score = std::numeric_limits<double>::infinity();
    int best_a = -1, best_b = -1;
    const std::size_t num_edges = tables.edge_a.size();
    for (std::size_t e = 0; e < num_edges; ++e) {
      const int ea = tables.edge_a[e];
      const int eb = tables.edge_b[e];
      bool touches_front = false;
      for (int gi : ready) {
        const circuit::Instr& ins = instrs[static_cast<std::size_t>(gi)];
        for (int s = 0; s < ins.num_qubits; ++s) {
          const int p = v2p[static_cast<std::size_t>(ins.q[s])];
          if (p == ea || p == eb) {
            touches_front = true;
            break;
          }
        }
        if (touches_front) break;
      }
      if (!touches_front) continue;
      if (ea == last_swap_a && eb == last_swap_b) continue;  // no ping-pong

      double front_term = 0.0;
      for (int gi : ready) {
        const circuit::Instr& ins = instrs[static_cast<std::size_t>(gi)];
        int pa = v2p[static_cast<std::size_t>(ins.q[0])];
        int pb = v2p[static_cast<std::size_t>(ins.q[1])];
        if (pa == ea) pa = eb;
        else if (pa == eb) pa = ea;
        if (pb == ea) pb = eb;
        else if (pb == eb) pb = ea;
        front_term +=
            dist[static_cast<std::size_t>(pa) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(pb)];
      }
      double ahead_term = 0.0;
      for (int gi : ahead) {
        const circuit::Instr& ins = instrs[static_cast<std::size_t>(gi)];
        int pa = v2p[static_cast<std::size_t>(ins.q[0])];
        int pb = v2p[static_cast<std::size_t>(ins.q[1])];
        if (pa == ea) pa = eb;
        else if (pa == eb) pa = ea;
        if (pb == ea) pb = eb;
        else if (pb == eb) pb = ea;
        ahead_term +=
            dist[static_cast<std::size_t>(pa) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(pb)];
      }

      double score = front_term / static_cast<double>(ready.size());
      if (!ahead.empty()) {
        score += weight_ * ahead_term / static_cast<double>(ahead.size());
      }
      if (score < best_score) {
        best_score = score;
        best_a = ea;
        best_b = eb;
      }
    }
    QFS_ASSERT_MSG(best_a >= 0, "no candidate swap found");
    emit_swap(result.mapped, layout, best_a, best_b, result.swaps_inserted);
    last_swap_a = best_a;
    last_swap_b = best_b;
    ++swaps_since_progress;
  }
  return result;
}

// ---------------------------------------------------------------------------
// NoiseAwareRouter
// ---------------------------------------------------------------------------

namespace {

/// Highest-fidelity routing path between two physical qubits: Dijkstra on
/// -log(edge fidelity). Returns the node sequence from `from` to `to`.
std::vector<int> best_fidelity_path(const Device& device, int from, int to) {
  const auto& coupling = device.topology().coupling();
  const auto& em = device.error_model();
  const int n = coupling.num_nodes();
  std::vector<double> dist(static_cast<std::size_t>(n),
                           std::numeric_limits<double>::infinity());
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<std::size_t>(from)] = 0.0;
  pq.emplace(0.0, from);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == to) break;
    for (const auto& [v, w] : coupling.neighbors(u)) {
      double cost = -std::log(em.edge_fidelity(u, v));
      if (d + cost < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = d + cost;
        parent[static_cast<std::size_t>(v)] = u;
        pq.emplace(d + cost, v);
      }
    }
  }
  QFS_ASSERT_MSG(dist[static_cast<std::size_t>(to)] <
                     std::numeric_limits<double>::infinity(),
                 "disconnected coupling graph");
  std::vector<int> path;
  for (int x = to; x != -1; x = parent[static_cast<std::size_t>(x)]) {
    path.push_back(x);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

RoutingResult NoiseAwareRouter::route(const Circuit& circuit,
                                      const Device& device,
                                      const Layout& initial,
                                      [[maybe_unused]] qfs::Rng& rng) const {
  check_routable(circuit, device);
  RoutingResult result;
  result.mapped = Circuit(device.num_qubits(), circuit.name());
  result.final_layout = initial;
  Layout& layout = result.final_layout;
  const auto& topo = device.topology();

  for (const Gate& g : circuit.gates()) {
    if (circuit::is_unitary(g.kind) && g.qubits.size() == 2) {
      int pa = layout.physical(g.qubits[0]);
      int pb = layout.physical(g.qubits[1]);
      if (!topo.adjacent(pa, pb)) {
        swap_along_path(result.mapped, layout,
                        best_fidelity_path(device, pa, pb),
                        result.swaps_inserted);
      }
    }
    emit_remapped(result.mapped, g, layout);
  }
  return result;
}

std::unique_ptr<Router> make_router(const std::string& name) {
  if (name == "trivial") return std::make_unique<TrivialRouter>();
  if (name == "lookahead") return std::make_unique<LookaheadRouter>();
  if (name == "noise-aware") return std::make_unique<NoiseAwareRouter>();
  if (name == "bridge") return std::make_unique<BridgeRouter>();
  if (name == "optimal") return std::make_unique<OptimalRouter>();
  QFS_ASSERT_MSG(false, "unknown router: " + name);
  return nullptr;
}

const std::vector<std::string>& known_router_names() {
  static const std::vector<std::string> names = {
      "trivial", "lookahead", "noise-aware", "bridge", "optimal"};
  return names;
}

bool is_known_router(const std::string& name) {
  const auto& names = known_router_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace qfs::mapper

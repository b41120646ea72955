#include "mapper/routing.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>

#include "circuit/dependencies.h"
#include "mapper/optimal.h"

namespace qfs::mapper {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using device::Device;

namespace {

/// Emit a copy of `g` with its operands translated from virtual to
/// physical.
void emit_remapped(Circuit& out, const Gate& g, const Layout& layout) {
  Gate phys = g;
  for (int& q : phys.qubits) q = layout.physical(q);
  out.add(std::move(phys));
}

/// The empty routed circuit on the device's register, with room for every
/// source gate: the inserted SWAPs grow it past that at most once.
Circuit routed_circuit(const Circuit& circuit, const Device& device) {
  Circuit out(device.num_qubits(), circuit.name());
  out.reserve(circuit.size());
  return out;
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
  result.mapped = routed_circuit(circuit, device);
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
  result.mapped = routed_circuit(circuit, device);
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

/// Decision state of one physical qubit, valid while `stamp` equals the
/// router's current epoch (a rebuild bumps the epoch instead of clearing
/// the array). It describes the virtual qubit held there, so a SWAP on
/// (a, b) moves it by exchanging the two entries.
struct QubitSlot {
  int stamp = -1;
  /// Virtual partner of the front gate with an operand here, or -1.
  int front_partner = -1;
  /// First node of the list of window gates with an operand here, or -1.
  int ahead_head = -1;
};

/// One operand of a window gate: its partner's virtual qubit and the next
/// node in the same physical qubit's list.
struct AheadNode {
  int partner;
  int next;
};

/// Scratch buffers of the lookahead router. thread_local: the
/// compile_resilient fallback ladder retries the same circuit several
/// times on one thread, and SABRE refinement routes it forward and backward
/// per round — every attempt reuses these allocations (a per-circuit arena)
/// instead of re-growing a fresh bookkeeping set each time.
///
/// A route that grows them past kRetainedScratchBytes releases them when it
/// returns, so a thread keeps no bookkeeping sized by the largest circuit it
/// ever routed; retries of such a circuit re-grow them.
struct LookaheadScratch {
  circuit::Dependencies deps;
  std::vector<std::uint8_t> emitted;
  std::vector<int> ready;
  std::vector<int> ahead;
  std::vector<QubitSlot> slots;
  std::vector<AheadNode> nodes;

  template <typename T>
  static std::size_t bytes(const std::vector<T>& v) {
    return v.capacity() * sizeof(T);
  }
  std::size_t capacity_bytes() const {
    return bytes(deps.num_preds) + bytes(deps.succ_offsets) +
           bytes(deps.succs) + bytes(emitted) + bytes(ready) + bytes(ahead) +
           bytes(slots) + bytes(nodes);
  }
};

constexpr std::size_t kRetainedScratchBytes = std::size_t{1} << 20;

LookaheadScratch& lookahead_scratch() {
  static thread_local LookaheadScratch scratch;
  return scratch;
}

}  // namespace

/// Scans the circuit's gates, its CSR dependency lists and the flat
/// distance rows in its inner loops.
///
/// Each SWAP decision scores only the couplers next to the front layer,
/// found through the CSR neighbours of the ready gates' physical qubits.
/// A candidate's score is the decision's base front and lookahead sums
/// plus the distance deltas of the few gates with an operand on the
/// coupler. The sums are integers below 2^53, so they equal a double
/// accumulation over every gate bit for bit; the minimum score with the
/// smallest edge index wins, which is what a strict-< scan over the
/// lexicographic edge list picks. The bytes are pinned by RoutingGolden.
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
  result.mapped = routed_circuit(circuit, device);
  result.final_layout = initial;
  Layout& layout = result.final_layout;
  const auto& gates = circuit.gates();
  const std::vector<int>& v2p = layout.v2p();

  LookaheadScratch& scratch = lookahead_scratch();
  const std::size_t num_gates = gates.size();
  circuit::Dependencies& deps = scratch.deps;
  circuit::build_dependencies(circuit, deps);

  // Predecessor counts, counted down as predecessors are emitted.
  std::vector<int>& unresolved = deps.num_preds;
  // Ready gates in the order they became ready: the emission order.
  std::vector<int>& ready = scratch.ready;
  ready.clear();
  for (std::size_t i = 0; i < num_gates; ++i) {
    if (unresolved[i] == 0) ready.push_back(static_cast<int>(i));
  }
  std::vector<std::uint8_t>& emitted = scratch.emitted;
  emitted.assign(num_gates, 0);

  const int* dist = tables.dist.data();
  const auto n = static_cast<std::size_t>(tables.n);
  auto row = [&](int p) { return dist + static_cast<std::size_t>(p) * n; };
  auto is_2q = [&](std::size_t i) {
    return gates[i].qubits.size() == 2 &&
           circuit::is_unitary(gates[i].kind);
  };
  auto is_blocked_2q = [&](int gi) {
    const Gate& g = gates[static_cast<std::size_t>(gi)];
    return is_2q(static_cast<std::size_t>(gi)) &&
           row(v2p[static_cast<std::size_t>(g.qubits[0])])
               [v2p[static_cast<std::size_t>(g.qubits[1])]] != 1;
  };

  // Emit every ready gate that is not a blocked two-qubit gate, appending
  // the gates each emission makes ready to the same pass; the blocked ones
  // are compacted in place, keeping their order. No gate a pass leaves
  // blocked can unblock before the next SWAP, so one pass is a fixpoint.
  auto emit_ready = [&]() {
    bool progressed = false;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < ready.size(); ++k) {
      const int gi = ready[k];
      if (is_blocked_2q(gi)) {
        ready[kept++] = gi;
        continue;
      }
      emit_remapped(result.mapped, gates[static_cast<std::size_t>(gi)],
                    layout);
      emitted[static_cast<std::size_t>(gi)] = 1;
      const int* succ = deps.successors(static_cast<std::size_t>(gi));
      for (int j = deps.num_successors(static_cast<std::size_t>(gi)); j > 0;
           --j, ++succ) {
        if (--unresolved[static_cast<std::size_t>(*succ)] == 0) {
          ready.push_back(*succ);
        }
      }
      progressed = true;
    }
    ready.resize(kept);
    return progressed;
  };

  // The lookahead window: the first `window_` not-yet-emitted two-qubit
  // gates in program order (front gates included). Emission only removes
  // gates, so every not-yet-emitted two-qubit gate below `ahead_cursor` is
  // already in the window: a refresh drops the emitted ones and resumes
  // the scan at the cursor, O(gates + window) over the whole route.
  std::vector<int>& ahead = scratch.ahead;
  ahead.clear();
  std::size_t ahead_cursor = 0;
  auto refresh_window = [&]() {
    std::erase_if(ahead, [&](int gi) {
      return emitted[static_cast<std::size_t>(gi)] != 0;
    });
    while (static_cast<int>(ahead.size()) < window_ &&
           ahead_cursor < num_gates) {
      const std::size_t i = ahead_cursor++;
      if (emitted[i] == 0 && is_2q(i)) ahead.push_back(static_cast<int>(i));
    }
  };

  // Decision state, rebuilt after each emission and kept up to date across
  // consecutive SWAPs: per-qubit front partners and window-gate lists, and
  // the integer distance sums over the front and the window.
  std::vector<QubitSlot>& slots = scratch.slots;
  slots.assign(n, QubitSlot{});
  std::vector<AheadNode>& nodes = scratch.nodes;
  int epoch = 0;
  bool state_valid = false;
  std::int64_t front_sum = 0;
  std::int64_t ahead_sum = 0;
  auto slot_at = [&](int p) -> QubitSlot& {
    QubitSlot& slot = slots[static_cast<std::size_t>(p)];
    if (slot.stamp != epoch) slot = QubitSlot{epoch, -1, -1};
    return slot;
  };
  auto rebuild_state = [&]() {
    ++epoch;
    front_sum = 0;
    for (int gi : ready) {
      const Gate& g = gates[static_cast<std::size_t>(gi)];
      const int pa = v2p[static_cast<std::size_t>(g.qubits[0])];
      const int pb = v2p[static_cast<std::size_t>(g.qubits[1])];
      front_sum += row(pa)[pb];
      slot_at(pa).front_partner = g.qubits[1];
      slot_at(pb).front_partner = g.qubits[0];
    }
    refresh_window();
    ahead_sum = 0;
    nodes.clear();
    for (int gi : ahead) {
      const Gate& g = gates[static_cast<std::size_t>(gi)];
      const int pa = v2p[static_cast<std::size_t>(g.qubits[0])];
      const int pb = v2p[static_cast<std::size_t>(g.qubits[1])];
      ahead_sum += row(pa)[pb];
      QubitSlot& sa = slot_at(pa);
      nodes.push_back(AheadNode{g.qubits[1], sa.ahead_head});
      sa.ahead_head = static_cast<int>(nodes.size()) - 1;
      QubitSlot& sb = slot_at(pb);
      nodes.push_back(AheadNode{g.qubits[0], sb.ahead_head});
      sb.ahead_head = static_cast<int>(nodes.size()) - 1;
    }
    state_valid = true;
  };
  // Change of the window sum when the gates listed at `from` move to `to`;
  // a gate on both qubits keeps its distance and is skipped.
  auto ahead_delta = [&](int from, int to) {
    const int* row_from = row(from);
    const int* row_to = row(to);
    std::int64_t delta = 0;
    const QubitSlot& slot = slots[static_cast<std::size_t>(from)];
    for (int k = slot.stamp == epoch ? slot.ahead_head : -1; k >= 0;) {
      const AheadNode& node = nodes[static_cast<std::size_t>(k)];
      const int other = v2p[static_cast<std::size_t>(node.partner)];
      if (other != to) delta += row_to[other] - row_from[other];
      k = node.next;
    }
    return delta;
  };

  int last_swap_a = -1, last_swap_b = -1;
  int swaps_since_progress = 0;
  const int stall_limit = 4 * std::max(4, device.num_qubits());

  while (true) {
    if (emit_ready()) {
      swaps_since_progress = 0;
      last_swap_a = last_swap_b = -1;
      state_valid = false;
    }
    if (ready.empty()) break;  // all gates emitted

    // Every ready gate is a blocked two-qubit gate: pick a swap.
    if (swaps_since_progress >= stall_limit) {
      // Safety valve: force-route the first blocked gate trivially.
      const Gate& g = gates[static_cast<std::size_t>(ready[0])];
      int pa = v2p[static_cast<std::size_t>(g.qubits[0])];
      int pb = v2p[static_cast<std::size_t>(g.qubits[1])];
      swap_along_path(result.mapped, layout, topo.shortest_path(pa, pb),
                      result.swaps_inserted);
      swaps_since_progress = 0;
      state_valid = false;
      continue;
    }
    if (!state_valid) rebuild_state();

    // Candidates: the couplers at a front gate's physical qubits. Ready
    // gates share no qubit and a blocked gate's operands are not coupled,
    // so a coupler touches at most two front gates, one per end; one with
    // front gates at both ends is scored from its smaller end only.
    const double front_size = static_cast<double>(ready.size());
    const double ahead_size = static_cast<double>(ahead.size());
    double best_score = std::numeric_limits<double>::infinity();
    int best_edge = -1, best_a = -1, best_b = -1;
    std::int64_t best_front_delta = 0, best_ahead_delta = 0;
    for (int gi : ready) {
      const Gate& g = gates[static_cast<std::size_t>(gi)];
      for (int s = 0; s < 2; ++s) {
        const int p = v2p[static_cast<std::size_t>(g.qubits[s])];
        const int partner = v2p[static_cast<std::size_t>(g.qubits[1 - s])];
        const int* row_p = row(p);
        const int end = tables.nbr_offsets[static_cast<std::size_t>(p) + 1];
        for (int k = tables.nbr_offsets[static_cast<std::size_t>(p)]; k < end;
             ++k) {
          const int q = tables.nbr[static_cast<std::size_t>(k)];
          const QubitSlot& at_q = slots[static_cast<std::size_t>(q)];
          const bool q_in_front =
              at_q.stamp == epoch && at_q.front_partner >= 0;
          if (q_in_front && q < p) continue;  // scored from q
          const int ea = std::min(p, q), eb = std::max(p, q);
          if (ea == last_swap_a && eb == last_swap_b) continue;  // no ping-pong

          const int* row_q = row(q);
          std::int64_t front_delta = row_q[partner] - row_p[partner];
          if (q_in_front) {
            const int other =
                v2p[static_cast<std::size_t>(at_q.front_partner)];
            front_delta += row_p[other] - row_q[other];
          }
          const std::int64_t window_delta =
              ahead_delta(p, q) + ahead_delta(q, p);

          const auto front_term = static_cast<double>(front_sum + front_delta);
          const auto ahead_term =
              static_cast<double>(ahead_sum + window_delta);
          double score = front_term / front_size;
          if (!ahead.empty()) score += weight_ * ahead_term / ahead_size;
          const int edge = tables.nbr_edge[static_cast<std::size_t>(k)];
          if (score < best_score || (score == best_score && edge < best_edge)) {
            best_score = score;
            best_edge = edge;
            best_a = ea;
            best_b = eb;
            best_front_delta = front_delta;
            best_ahead_delta = window_delta;
          }
        }
      }
    }
    QFS_ASSERT_MSG(best_a >= 0, "no candidate swap found");
    emit_swap(result.mapped, layout, best_a, best_b, result.swaps_inserted);
    std::swap(slots[static_cast<std::size_t>(best_a)],
              slots[static_cast<std::size_t>(best_b)]);
    front_sum += best_front_delta;
    ahead_sum += best_ahead_delta;
    last_swap_a = best_a;
    last_swap_b = best_b;
    ++swaps_since_progress;
  }
  if (scratch.capacity_bytes() > kRetainedScratchBytes) {
    scratch = LookaheadScratch{};
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
  result.mapped = routed_circuit(circuit, device);
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

#include "mapper/optimal.h"

#include <algorithm>
#include <map>
#include <queue>
#include <unordered_map>

namespace qfs::mapper {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using device::Device;

namespace {

/// Two-qubit interaction (virtual operand pair) extracted per gate; -1 for
/// gates that never block routing.
struct GatePair {
  int a = -1;
  int b = -1;
};

std::vector<GatePair> blocking_pairs(const Circuit& circuit) {
  std::vector<GatePair> pairs;
  pairs.reserve(circuit.gates().size());
  for (const Gate& g : circuit.gates()) {
    if (circuit::is_unitary(g.kind) && g.qubits.size() == 2) {
      pairs.push_back(GatePair{g.qubits[0], g.qubits[1]});
    } else {
      pairs.push_back(GatePair{});
    }
  }
  return pairs;
}

struct SearchState {
  std::vector<int> p2v;  ///< physical -> virtual (full permutation)
  int next_gate = 0;     ///< first unexecuted gate index
};

struct StateKey {
  std::string bytes;
  bool operator==(const StateKey& other) const { return bytes == other.bytes; }
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& k) const {
    return std::hash<std::string>()(k.bytes);
  }
};

StateKey make_key(const SearchState& s) {
  StateKey key;
  key.bytes.reserve(s.p2v.size() * sizeof(int) + sizeof(int));
  auto append_int = [&key](int value) {
    key.bytes.append(reinterpret_cast<const char*>(&value), sizeof(int));
  };
  for (int v : s.p2v) append_int(v);
  append_int(s.next_gate);
  return key;
}

}  // namespace

RoutingResult OptimalRouter::route(const Circuit& circuit,
                                   const Device& device, const Layout& initial,
                                   qfs::Rng& rng) const {
  QFS_ASSERT_MSG(circuit.num_qubits() <= device.num_qubits(),
                 "circuit wider than device");
  for (const Gate& g : circuit.gates()) {
    QFS_ASSERT_MSG(g.kind == GateKind::kBarrier || g.qubits.size() <= 2,
                   "route requires gates of arity <= 2; decompose first");
  }
  const auto& topo = device.topology();
  const int np = device.num_qubits();
  const auto pairs = blocking_pairs(circuit);
  const int num_gates = static_cast<int>(pairs.size());
  const auto edges = topo.edge_list();

  // Virtual -> physical lookup from a p2v vector.
  auto phys_of = [np](const std::vector<int>& p2v, int virtual_qubit) {
    for (int p = 0; p < np; ++p) {
      if (p2v[static_cast<std::size_t>(p)] == virtual_qubit) return p;
    }
    QFS_ASSERT_MSG(false, "virtual qubit not in layout");
    return -1;
  };

  // Advance past all gates executable under the given layout.
  auto advance = [&](SearchState& s) {
    while (s.next_gate < num_gates) {
      const GatePair& gp = pairs[static_cast<std::size_t>(s.next_gate)];
      if (gp.a >= 0) {
        int pa = phys_of(s.p2v, gp.a);
        int pb = phys_of(s.p2v, gp.b);
        if (!topo.adjacent(pa, pb)) return;
      }
      ++s.next_gate;
    }
  };

  // Admissible heuristic: the next blocked gate alone needs dist-1 swaps.
  auto heuristic = [&](const SearchState& s) {
    if (s.next_gate >= num_gates) return 0;
    const GatePair& gp = pairs[static_cast<std::size_t>(s.next_gate)];
    if (gp.a < 0) return 0;
    return topo.distance(phys_of(s.p2v, gp.a), phys_of(s.p2v, gp.b)) - 1;
  };

  SearchState start;
  start.p2v.resize(static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) start.p2v[static_cast<std::size_t>(p)] = initial.virtual_qubit(p);
  advance(start);

  struct QueueItem {
    int f = 0;
    int g = 0;
    long long id = 0;  ///< index into `parents`/`states`
  };
  auto cmp = [](const QueueItem& a, const QueueItem& b) { return a.f > b.f; };
  std::priority_queue<QueueItem, std::vector<QueueItem>, decltype(cmp)> open(cmp);

  struct NodeRecord {
    SearchState state;
    long long parent = -1;
    int via_edge = -1;  ///< index into `edges` of the swap that led here
  };
  std::vector<NodeRecord> nodes;
  std::unordered_map<StateKey, int, StateKeyHash> best_cost;

  nodes.push_back(NodeRecord{start, -1, -1});
  best_cost[make_key(start)] = 0;
  open.push(QueueItem{heuristic(start), 0, 0});

  long long explored = 0;
  long long goal_id = -1;
  while (!open.empty()) {
    QueueItem item = open.top();
    open.pop();
    // Copy: nodes may reallocate while this state's successors are pushed.
    const SearchState s = nodes[static_cast<std::size_t>(item.id)].state;
    auto it = best_cost.find(make_key(s));
    if (it != best_cost.end() && it->second < item.g) continue;  // stale
    if (s.next_gate >= num_gates) {
      goal_id = item.id;
      break;
    }
    if (++explored > state_budget_) break;

    for (std::size_t e = 0; e < edges.size(); ++e) {
      SearchState next = s;
      std::swap(next.p2v[static_cast<std::size_t>(edges[e].first)],
                next.p2v[static_cast<std::size_t>(edges[e].second)]);
      advance(next);
      int g_cost = item.g + 1;
      StateKey key = make_key(next);
      auto found = best_cost.find(key);
      if (found != best_cost.end() && found->second <= g_cost) continue;
      best_cost[key] = g_cost;
      nodes.push_back(NodeRecord{std::move(next), item.id, static_cast<int>(e)});
      open.push(QueueItem{g_cost + heuristic(nodes.back().state), g_cost,
                          static_cast<long long>(nodes.size()) - 1});
    }
  }

  if (goal_id < 0) {
    // Budget exceeded: fall back to the always-correct trivial router.
    return TrivialRouter().route(circuit, device, initial, rng);
  }

  // Reconstruct the swap sequence.
  std::vector<int> swap_edges;
  for (long long id = goal_id; id >= 0;
       id = nodes[static_cast<std::size_t>(id)].parent) {
    int e = nodes[static_cast<std::size_t>(id)].via_edge;
    if (e >= 0) swap_edges.push_back(e);
  }
  std::reverse(swap_edges.begin(), swap_edges.end());

  // Replay: emit gates in order, inserting the planned swaps exactly when
  // the next gate is blocked.
  RoutingResult result;
  result.mapped = Circuit(np, circuit.name());
  result.final_layout = initial;
  Layout& layout = result.final_layout;
  std::size_t swap_cursor = 0;
  for (std::size_t i = 0; i < circuit.gates().size(); ++i) {
    const Gate& g = circuit.gates()[i];
    const GatePair& gp = pairs[i];
    if (gp.a >= 0) {
      while (!topo.adjacent(layout.physical(gp.a), layout.physical(gp.b))) {
        QFS_ASSERT_MSG(swap_cursor < swap_edges.size(),
                       "optimal plan exhausted before gates executable");
        const auto& edge = edges[static_cast<std::size_t>(
            swap_edges[swap_cursor++])];
        result.mapped.add(GateKind::kSwap, {edge.first, edge.second});
        layout.apply_swap(edge.first, edge.second);
        ++result.swaps_inserted;
      }
    }
    Gate phys = g;
    for (int& q : phys.qubits) q = layout.physical(q);
    result.mapped.add(std::move(phys));
  }
  // Any remaining planned swaps are unnecessary for correctness; the A*
  // cost function means there are none on an optimal plan.
  QFS_ASSERT_MSG(swap_cursor == swap_edges.size(),
                 "optimal plan left unused swaps");
  return result;
}

}  // namespace qfs::mapper

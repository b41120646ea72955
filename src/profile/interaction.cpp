#include "profile/interaction.h"

#include <utility>

namespace qfs::profile {

using circuit::Gate;

graph::Graph interaction_graph(const circuit::Circuit& circuit) {
  graph::Graph g(circuit.num_qubits());
  for (const Gate& gate : circuit.gates()) {
    if (!circuit::is_unitary(gate.kind) || gate.qubits.size() < 2) continue;
    for (std::size_t i = 0; i < gate.qubits.size(); ++i) {
      for (std::size_t j = i + 1; j < gate.qubits.size(); ++j) {
        g.add_edge(gate.qubits[i], gate.qubits[j], 1.0);
      }
    }
  }
  return g;
}

graph::Graph active_interaction_graph(const circuit::Circuit& circuit,
                                      std::vector<int>* qubit_of_node) {
  graph::Graph full = interaction_graph(circuit);
  std::vector<int> mapping(static_cast<std::size_t>(full.num_nodes()), -1);
  std::vector<int> active;
  for (int q = 0; q < full.num_nodes(); ++q) {
    if (full.degree(q) > 0) {
      mapping[static_cast<std::size_t>(q)] = static_cast<int>(active.size());
      active.push_back(q);
    }
  }
  graph::Graph compact(static_cast<int>(active.size()));
  for (const auto& e : full.edges()) {
    compact.add_edge(mapping[static_cast<std::size_t>(e.u)],
                     mapping[static_cast<std::size_t>(e.v)], e.weight);
  }
  if (qubit_of_node != nullptr) *qubit_of_node = std::move(active);
  return compact;
}

}  // namespace qfs::profile

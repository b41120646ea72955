// Qubit interaction graphs (Sec. III/IV of the paper).
//
// The interaction graph of a circuit has a node per qubit and an edge per
// interacting qubit pair, weighted by how many two-qubit gates act on that
// pair. It captures "the core constraint that needs to be dealt with during
// the mapping process".
#pragma once

#include <vector>

#include "circuit/circuit.h"
#include "graph/graph.h"

namespace qfs::profile {

/// Interaction graph over the full circuit register (isolated nodes for
/// qubits without two-qubit gates). Multi-qubit gates beyond two qubits
/// contribute an edge per operand pair.
graph::Graph interaction_graph(const circuit::Circuit& circuit);

/// Interaction graph compacted to the qubits that participate in at least
/// one two-qubit interaction; `qubit_of_node[i]` maps node i back to the
/// original qubit index. Metrics are computed on this graph so that unused
/// register padding does not dilute averages.
graph::Graph active_interaction_graph(const circuit::Circuit& circuit,
                                      std::vector<int>* qubit_of_node = nullptr);

}  // namespace qfs::profile

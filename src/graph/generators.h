// Canonical graph families: used by tests (known closed-form metric values),
// by device topologies, and by the QAOA workload generator (problem graphs).
#pragma once

#include "graph/graph.h"
#include "support/rng.h"

namespace qfs::graph {

/// Path 0-1-...-(n-1).
Graph path_graph(int n);

/// Cycle of n >= 3 nodes.
Graph cycle_graph(int n);

/// Complete graph K_n, unit weights.
Graph complete_graph(int n);

/// Star with node 0 at the centre and n-1 leaves.
Graph star_graph(int n);

/// rows x cols 2D grid with nearest-neighbour edges.
Graph grid_graph(int rows, int cols);

/// Connected random graph: a uniform random spanning tree plus extra
/// G(n, p)-style edges. Every node pair stays reachable.
Graph random_connected_graph(int n, double extra_edge_prob, qfs::Rng& rng);

/// Random k-regular-ish graph built by pairing node stubs; simple (no
/// multi-edges) but may fall short of k on a few nodes when n*k is small.
Graph random_regular_graph(int n, int k, qfs::Rng& rng);

}  // namespace qfs::graph

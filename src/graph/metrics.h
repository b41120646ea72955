// Graph-theoretic metrics used to characterise qubit interaction graphs
// (Table I of the paper) plus the auxiliary metrics the paper's Sec. IV
// starts from before Pearson reduction.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace qfs::graph {

/// Average hop count over all ordered connected pairs ("hopcount" in
/// Table I). 0 for graphs with < 2 nodes; pairs in different components are
/// ignored (the paper's suite graphs are connected on their active qubits).
double average_shortest_path(const Graph& g);

/// Closeness centrality of one node: (n-1) / sum of hop distances to all
/// reachable nodes, 0 when isolated.
double closeness(const Graph& g, Node u);

/// Mean closeness over all nodes.
double average_closeness(const Graph& g);

/// Local clustering coefficient of u: fraction of neighbour pairs that are
/// themselves connected; 0 when degree < 2.
double local_clustering(const Graph& g, Node u);

/// Global (average-of-local) clustering coefficient.
double average_clustering(const Graph& g);

/// Edge density: num_edges / (n choose 2); 0 for n < 2.
double density(const Graph& g);

struct DegreeStats {
  int min = 0;
  int max = 0;
  double mean = 0.0;
  double stddev = 0.0;
};

/// Unweighted degree statistics over all nodes.
DegreeStats degree_stats(const Graph& g);

struct WeightStats {
  double min = 0.0;   ///< smallest edge weight (0 when no edges)
  double max = 0.0;   ///< largest edge weight
  double mean = 0.0;  ///< mean edge weight
  double stddev = 0.0;
  double variance = 0.0;
};

/// Statistics over existing edge weights only.
WeightStats edge_weight_stats(const Graph& g);

/// Statistics over all upper-triangle adjacency-matrix entries, including
/// the zeros of absent edges. This is the "adjacency matrix std. dev." of
/// Table I: it reflects both how weights vary and how sparse the graph is.
WeightStats adjacency_matrix_stats(const Graph& g);

/// Degree assortativity (Pearson correlation of endpoint degrees over
/// edges); 0 when undefined (fewer than 2 edges or zero variance).
double degree_assortativity(const Graph& g);

/// Betweenness centrality of every node (Brandes' algorithm, unweighted,
/// unnormalised: the number of shortest paths through the node, counted
/// fractionally).
std::vector<double> betweenness_centrality(const Graph& g);

/// Eccentricity of u: largest hop distance to any reachable node.
int eccentricity(const Graph& g, Node u);

/// Radius: smallest eccentricity over all nodes (0 for n <= 1,
/// computed per component-reachable sets for disconnected graphs).
int radius(const Graph& g);

/// Algebraic connectivity: the second-smallest eigenvalue of the
/// (unweighted) graph Laplacian, estimated by deflated power iteration.
/// 0 for disconnected graphs; higher values mean better-connected graphs
/// (complete graph: n). Accuracy ~1e-6 for the graph sizes qfs profiles.
double algebraic_connectivity(const Graph& g, int iterations = 2000);

}  // namespace qfs::graph

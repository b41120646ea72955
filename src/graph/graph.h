// Weighted undirected graph.
//
// Used both for device coupling graphs (unit weights) and for qubit
// interaction graphs (edge weight = number of two-qubit gates between a
// qubit pair). Parallel edges are collapsed: adding an existing edge
// accumulates its weight.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "support/assert.h"

namespace qfs::graph {

/// Node index type; nodes are dense integers [0, num_nodes).
using Node = int;

/// One undirected weighted edge (u < v is normalised on query helpers).
struct Edge {
  Node u = 0;
  Node v = 0;
  double weight = 1.0;
};

/// Weighted undirected simple graph with O(deg) neighbour iteration and
/// O(log deg) edge lookup.
class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_nodes);

  int num_nodes() const { return static_cast<int>(adjacency_.size()); }
  int num_edges() const { return num_edges_; }

  /// Grow the node set to at least `n` nodes.
  void ensure_nodes(int n);

  /// Add `weight` to edge {u, v}, creating it if absent.
  /// Self-loops are a contract violation (interaction graphs never have
  /// them: a two-qubit gate touches two distinct qubits).
  void add_edge(Node u, Node v, double weight = 1.0);

  bool has_edge(Node u, Node v) const;

  /// Weight of {u, v}; 0 if the edge does not exist.
  double edge_weight(Node u, Node v) const;

  /// Unweighted degree (number of incident edges).
  int degree(Node u) const;

  /// Sum of incident edge weights (a.k.a. node strength).
  double weighted_degree(Node u) const;

  /// Neighbours of u with weights, ordered by neighbour index.
  const std::map<Node, double>& neighbors(Node u) const;

  /// All edges, each reported once with u < v, ordered lexicographically.
  std::vector<Edge> edges() const;

  bool operator==(const Graph& other) const {
    return adjacency_ == other.adjacency_;
  }

 private:
  void check_node(Node u) const {
    QFS_ASSERT_MSG(0 <= u && u < num_nodes(), "node index out of range");
  }

  std::vector<std::map<Node, double>> adjacency_;
  int num_edges_ = 0;
};

}  // namespace qfs::graph

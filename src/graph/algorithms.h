// Graph algorithms: shortest paths, connectivity, traversal.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace qfs::graph {

/// Sentinel distance for unreachable node pairs.
inline constexpr int kUnreachable = std::numeric_limits<int>::max();

/// Hop distances from `source` to every node (BFS); kUnreachable if none.
std::vector<int> bfs_distances(const Graph& g, Node source);

/// Compressed sparse row adjacency: the neighbours of node u are
/// targets[offsets[u] .. offsets[u+1]), ascending.
struct CsrAdjacency {
  std::vector<int> offsets;  ///< num_nodes + 1 entries
  std::vector<int> targets;
};

/// The CSR arrays of `g`.
CsrAdjacency csr_adjacency(const Graph& g);

/// All-pairs hop distances as one flat row-major buffer: entry u*n + v is
/// the hop count from u to v, kUnreachable when disconnected, where n is
/// offsets.size() - 1 and (offsets, targets) are CSR arrays as
/// csr_adjacency builds them. Each row is one BFS over the CSR arrays
/// through a flat queue of n slots, filled in place; this is the layout
/// device::TopologyTables serves to the routing inner loops.
std::vector<int> flat_all_pairs_hop_distances(std::span<const int> offsets,
                                              std::span<const int> targets);

/// The same table for `g`, whose CSR arrays are built first.
std::vector<int> flat_all_pairs_hop_distances(const Graph& g);

/// One shortest (fewest-hop) path from `source` to `target`, inclusive of
/// both endpoints. Empty if unreachable. Ties broken toward smaller node ids
/// so results are deterministic.
std::vector<Node> shortest_path(const Graph& g, Node source, Node target);

/// Connected component id per node (ids are dense, ordered by first member).
std::vector<int> connected_components(const Graph& g);

/// True when every node is reachable from every other (n <= 1 counts).
bool is_connected(const Graph& g);

/// Longest shortest-path hop distance; kUnreachable if disconnected,
/// 0 for graphs with fewer than two nodes.
int diameter(const Graph& g);

/// Nodes in breadth-first order from `source` (its component only).
std::vector<Node> bfs_order(const Graph& g, Node source);

/// Subgraph induced on `keep` (must be distinct, in-range nodes). Node i of
/// the result corresponds to keep[i]; edge weights are preserved.
Graph induced_subgraph(const Graph& g, const std::vector<Node>& keep);

}  // namespace qfs::graph

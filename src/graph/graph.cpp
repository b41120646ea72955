#include "graph/graph.h"

namespace qfs::graph {

Graph::Graph(int num_nodes) {
  QFS_ASSERT_MSG(num_nodes >= 0, "negative node count");
  adjacency_.resize(static_cast<std::size_t>(num_nodes));
}

void Graph::ensure_nodes(int n) {
  if (n > num_nodes()) adjacency_.resize(static_cast<std::size_t>(n));
}

void Graph::add_edge(Node u, Node v, double weight) {
  check_node(u);
  check_node(v);
  QFS_ASSERT_MSG(u != v, "self-loop not allowed");
  auto [it_u, inserted] = adjacency_[static_cast<std::size_t>(u)].try_emplace(v, 0.0);
  it_u->second += weight;
  adjacency_[static_cast<std::size_t>(v)][u] = it_u->second;
  if (inserted) ++num_edges_;
}

bool Graph::has_edge(Node u, Node v) const {
  check_node(u);
  check_node(v);
  return adjacency_[static_cast<std::size_t>(u)].count(v) != 0;
}

double Graph::edge_weight(Node u, Node v) const {
  check_node(u);
  check_node(v);
  auto it = adjacency_[static_cast<std::size_t>(u)].find(v);
  return it == adjacency_[static_cast<std::size_t>(u)].end() ? 0.0 : it->second;
}

int Graph::degree(Node u) const {
  check_node(u);
  return static_cast<int>(adjacency_[static_cast<std::size_t>(u)].size());
}

double Graph::weighted_degree(Node u) const {
  check_node(u);
  double sum = 0.0;
  for (const auto& [v, w] : adjacency_[static_cast<std::size_t>(u)]) {
    sum += w;
  }
  return sum;
}

const std::map<Node, double>& Graph::neighbors(Node u) const {
  check_node(u);
  return adjacency_[static_cast<std::size_t>(u)];
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(num_edges_));
  for (Node u = 0; u < num_nodes(); ++u) {
    for (const auto& [v, w] : adjacency_[static_cast<std::size_t>(u)]) {
      if (u < v) out.push_back(Edge{u, v, w});
    }
  }
  return out;
}

}  // namespace qfs::graph

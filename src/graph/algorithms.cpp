#include "graph/algorithms.h"

#include <algorithm>
#include <queue>

namespace qfs::graph {

std::vector<int> bfs_distances(const Graph& g, Node source) {
  QFS_ASSERT_MSG(0 <= source && source < g.num_nodes(), "bad source node");
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), kUnreachable);
  std::queue<Node> q;
  dist[static_cast<std::size_t>(source)] = 0;
  q.push(source);
  while (!q.empty()) {
    Node u = q.front();
    q.pop();
    for (const auto& [v, w] : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(v)] == kUnreachable) {
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

CsrAdjacency csr_adjacency(const Graph& g) {
  CsrAdjacency csr;
  csr.offsets.reserve(static_cast<std::size_t>(g.num_nodes()) + 1);
  csr.targets.reserve(static_cast<std::size_t>(g.num_edges()) * 2);
  csr.offsets.push_back(0);
  for (Node u = 0; u < g.num_nodes(); ++u) {
    // Graph keeps neighbours in an ordered map: ascending per node.
    for (const auto& [v, w] : g.neighbors(u)) csr.targets.push_back(v);
    csr.offsets.push_back(static_cast<int>(csr.targets.size()));
  }
  return csr;
}

std::vector<int> flat_all_pairs_hop_distances(std::span<const int> offsets,
                                              std::span<const int> targets) {
  QFS_ASSERT_MSG(!offsets.empty(), "CSR offsets need num_nodes + 1 entries");
  const std::size_t n = offsets.size() - 1;
  std::vector<int> flat(n * n, kUnreachable);
  // A BFS enqueues each node at most once, so n slots hold any queue.
  std::vector<int> queue(n);
  for (std::size_t u = 0; u < n; ++u) {
    int* row = flat.data() + u * n;
    row[u] = 0;
    queue[0] = static_cast<int>(u);
    std::size_t head = 0;
    std::size_t tail = 1;
    while (head < tail) {
      const auto a = static_cast<std::size_t>(queue[head++]);
      const int next = row[a] + 1;
      for (int k = offsets[a]; k < offsets[a + 1]; ++k) {
        const int b = targets[static_cast<std::size_t>(k)];
        if (row[b] == kUnreachable) {
          row[b] = next;
          queue[tail++] = b;
        }
      }
    }
  }
  return flat;
}

std::vector<int> flat_all_pairs_hop_distances(const Graph& g) {
  const CsrAdjacency csr = csr_adjacency(g);
  return flat_all_pairs_hop_distances(csr.offsets, csr.targets);
}

std::vector<Node> shortest_path(const Graph& g, Node source, Node target) {
  QFS_ASSERT_MSG(0 <= source && source < g.num_nodes(), "bad source node");
  QFS_ASSERT_MSG(0 <= target && target < g.num_nodes(), "bad target node");
  if (source == target) return {source};
  std::vector<Node> parent(static_cast<std::size_t>(g.num_nodes()), -1);
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  std::queue<Node> q;
  seen[static_cast<std::size_t>(source)] = true;
  q.push(source);
  while (!q.empty()) {
    Node u = q.front();
    q.pop();
    // std::map iteration gives ascending neighbour ids => deterministic ties.
    for (const auto& [v, w] : g.neighbors(u)) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        parent[static_cast<std::size_t>(v)] = u;
        if (v == target) {
          std::vector<Node> path;
          for (Node x = target; x != -1; x = parent[static_cast<std::size_t>(x)]) {
            path.push_back(x);
          }
          std::reverse(path.begin(), path.end());
          return path;
        }
        q.push(v);
      }
    }
  }
  return {};
}

std::vector<int> connected_components(const Graph& g) {
  std::vector<int> comp(static_cast<std::size_t>(g.num_nodes()), -1);
  int next = 0;
  for (Node s = 0; s < g.num_nodes(); ++s) {
    if (comp[static_cast<std::size_t>(s)] != -1) continue;
    int id = next++;
    std::queue<Node> q;
    comp[static_cast<std::size_t>(s)] = id;
    q.push(s);
    while (!q.empty()) {
      Node u = q.front();
      q.pop();
      for (const auto& [v, w] : g.neighbors(u)) {
        if (comp[static_cast<std::size_t>(v)] == -1) {
          comp[static_cast<std::size_t>(v)] = id;
          q.push(v);
        }
      }
    }
  }
  return comp;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  auto comp = connected_components(g);
  return std::all_of(comp.begin(), comp.end(), [](int c) { return c == 0; });
}

int diameter(const Graph& g) {
  if (g.num_nodes() <= 1) return 0;
  // kUnreachable is the largest int, so it wins the max when present.
  const std::vector<int> dist = flat_all_pairs_hop_distances(g);
  return *std::max_element(dist.begin(), dist.end());
}

std::vector<Node> bfs_order(const Graph& g, Node source) {
  QFS_ASSERT_MSG(0 <= source && source < g.num_nodes(), "bad source node");
  std::vector<Node> order;
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  std::queue<Node> q;
  seen[static_cast<std::size_t>(source)] = true;
  q.push(source);
  while (!q.empty()) {
    Node u = q.front();
    q.pop();
    order.push_back(u);
    for (const auto& [v, w] : g.neighbors(u)) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        q.push(v);
      }
    }
  }
  return order;
}

Graph induced_subgraph(const Graph& g, const std::vector<Node>& keep) {
  std::vector<int> to_new(static_cast<std::size_t>(g.num_nodes()), -1);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    Node u = keep[i];
    QFS_ASSERT_MSG(0 <= u && u < g.num_nodes(), "kept node out of range");
    QFS_ASSERT_MSG(to_new[static_cast<std::size_t>(u)] == -1,
                   "kept node listed twice");
    to_new[static_cast<std::size_t>(u)] = static_cast<int>(i);
  }
  Graph sub(static_cast<int>(keep.size()));
  for (std::size_t i = 0; i < keep.size(); ++i) {
    for (const auto& [v, w] : g.neighbors(keep[i])) {
      int nv = to_new[static_cast<std::size_t>(v)];
      if (nv > static_cast<int>(i)) {
        sub.add_edge(static_cast<Node>(i), nv, w);
      }
    }
  }
  return sub;
}

}  // namespace qfs::graph

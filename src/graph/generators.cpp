#include "graph/generators.h"

#include <algorithm>
#include <numeric>

namespace qfs::graph {

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph cycle_graph(int n) {
  QFS_ASSERT_MSG(n >= 3, "cycle needs >= 3 nodes");
  Graph g = path_graph(n);
  g.add_edge(n - 1, 0);
  return g;
}

Graph complete_graph(int n) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  return g;
}

Graph star_graph(int n) {
  QFS_ASSERT_MSG(n >= 1, "star needs >= 1 node");
  Graph g(n);
  for (int v = 1; v < n; ++v) g.add_edge(0, v);
  return g;
}

Graph grid_graph(int rows, int cols) {
  QFS_ASSERT_MSG(rows >= 1 && cols >= 1, "grid needs positive dims");
  Graph g(rows * cols);
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

Graph random_connected_graph(int n, double extra_edge_prob, qfs::Rng& rng) {
  QFS_ASSERT_MSG(n >= 1, "need >= 1 node");
  Graph g(n);
  // Random spanning tree: attach each node (in shuffled order) to a random
  // earlier node.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  for (int i = 1; i < n; ++i) {
    int parent = order[static_cast<std::size_t>(
        rng.uniform_int(0, i - 1))];
    g.add_edge(order[static_cast<std::size_t>(i)], parent);
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (!g.has_edge(u, v) && rng.bernoulli(extra_edge_prob)) g.add_edge(u, v);
    }
  }
  return g;
}

Graph random_regular_graph(int n, int k, qfs::Rng& rng) {
  QFS_ASSERT_MSG(n >= 2 && k >= 1 && k < n, "bad regular graph parameters");
  Graph g(n);
  // Greedy stub pairing with a bounded number of retries per pass; falls
  // back to leaving a node slightly under-degree rather than looping.
  std::vector<int> need(static_cast<std::size_t>(n), k);
  for (int pass = 0; pass < 4 * n * k; ++pass) {
    std::vector<int> open;
    for (int u = 0; u < n; ++u) {
      if (need[static_cast<std::size_t>(u)] > 0) open.push_back(u);
    }
    if (open.size() < 2) break;
    int u = open[static_cast<std::size_t>(rng.uniform_index(open.size()))];
    std::vector<int> candidates;
    for (int v : open) {
      if (v != u && !g.has_edge(u, v)) candidates.push_back(v);
    }
    if (candidates.empty()) {
      need[static_cast<std::size_t>(u)] = 0;  // cannot extend u further
      continue;
    }
    int v = candidates[static_cast<std::size_t>(rng.uniform_index(candidates.size()))];
    g.add_edge(u, v);
    --need[static_cast<std::size_t>(u)];
    --need[static_cast<std::size_t>(v)];
  }
  return g;
}

}  // namespace qfs::graph

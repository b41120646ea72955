#include "graph/metrics.h"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.h"

namespace qfs::graph {

double average_shortest_path(const Graph& g) {
  const int n = g.num_nodes();
  if (n < 2) return 0.0;
  long long total = 0;
  long long pairs = 0;
  for (Node u = 0; u < n; ++u) {
    auto dist = bfs_distances(g, u);
    for (Node v = 0; v < n; ++v) {
      if (v == u) continue;
      if (dist[static_cast<std::size_t>(v)] != kUnreachable) {
        total += dist[static_cast<std::size_t>(v)];
        ++pairs;
      }
    }
  }
  return pairs == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(pairs);
}

double closeness(const Graph& g, Node u) {
  const int n = g.num_nodes();
  if (n < 2) return 0.0;
  auto dist = bfs_distances(g, u);
  long long total = 0;
  int reachable = 0;
  for (Node v = 0; v < n; ++v) {
    if (v == u || dist[static_cast<std::size_t>(v)] == kUnreachable) continue;
    total += dist[static_cast<std::size_t>(v)];
    ++reachable;
  }
  if (reachable == 0 || total == 0) return 0.0;
  // Wasserman-Faust style normalisation so values are comparable across
  // components of different sizes.
  double frac = static_cast<double>(reachable) / static_cast<double>(n - 1);
  return frac * static_cast<double>(reachable) / static_cast<double>(total);
}

double average_closeness(const Graph& g) {
  const int n = g.num_nodes();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (Node u = 0; u < n; ++u) sum += closeness(g, u);
  return sum / n;
}

double local_clustering(const Graph& g, Node u) {
  const auto& nbrs = g.neighbors(u);
  const int k = static_cast<int>(nbrs.size());
  if (k < 2) return 0.0;
  int links = 0;
  for (auto it1 = nbrs.begin(); it1 != nbrs.end(); ++it1) {
    auto it2 = it1;
    for (++it2; it2 != nbrs.end(); ++it2) {
      if (g.has_edge(it1->first, it2->first)) ++links;
    }
  }
  return 2.0 * links / (static_cast<double>(k) * (k - 1));
}

double average_clustering(const Graph& g) {
  const int n = g.num_nodes();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (Node u = 0; u < n; ++u) sum += local_clustering(g, u);
  return sum / n;
}

double density(const Graph& g) {
  const int n = g.num_nodes();
  if (n < 2) return 0.0;
  return 2.0 * g.num_edges() / (static_cast<double>(n) * (n - 1));
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats s;
  const int n = g.num_nodes();
  if (n == 0) return s;
  s.min = g.degree(0);
  s.max = g.degree(0);
  double sum = 0.0;
  for (Node u = 0; u < n; ++u) {
    int d = g.degree(u);
    s.min = std::min(s.min, d);
    s.max = std::max(s.max, d);
    sum += d;
  }
  s.mean = sum / n;
  double var = 0.0;
  for (Node u = 0; u < n; ++u) {
    double diff = g.degree(u) - s.mean;
    var += diff * diff;
  }
  s.stddev = std::sqrt(var / n);
  return s;
}

namespace {
WeightStats stats_from_values(const std::vector<double>& values) {
  WeightStats s;
  if (values.empty()) return s;
  s.min = values[0];
  s.max = values[0];
  double sum = 0.0;
  for (double v : values) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
  }
  s.mean = sum / static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) {
    double diff = v - s.mean;
    var += diff * diff;
  }
  s.variance = var / static_cast<double>(values.size());
  s.stddev = std::sqrt(s.variance);
  return s;
}
}  // namespace

WeightStats edge_weight_stats(const Graph& g) {
  std::vector<double> w;
  w.reserve(static_cast<std::size_t>(g.num_edges()));
  for (const Edge& e : g.edges()) w.push_back(e.weight);
  return stats_from_values(w);
}

WeightStats adjacency_matrix_stats(const Graph& g) {
  const int n = g.num_nodes();
  if (n < 2) return WeightStats{};
  std::vector<double> entries;
  entries.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (Node u = 0; u < n; ++u) {
    for (Node v = u + 1; v < n; ++v) entries.push_back(g.edge_weight(u, v));
  }
  return stats_from_values(entries);
}

std::vector<double> betweenness_centrality(const Graph& g) {
  const int n = g.num_nodes();
  std::vector<double> centrality(static_cast<std::size_t>(n), 0.0);
  // Brandes' algorithm: one BFS per source with dependency accumulation.
  for (Node s = 0; s < n; ++s) {
    std::vector<std::vector<Node>> preds(static_cast<std::size_t>(n));
    std::vector<double> sigma(static_cast<std::size_t>(n), 0.0);
    std::vector<int> dist(static_cast<std::size_t>(n), -1);
    std::vector<Node> order;
    sigma[static_cast<std::size_t>(s)] = 1.0;
    dist[static_cast<std::size_t>(s)] = 0;
    std::vector<Node> queue = {s};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      Node v = queue[head];
      order.push_back(v);
      for (const auto& [w, weight] : g.neighbors(v)) {
        if (dist[static_cast<std::size_t>(w)] < 0) {
          dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(v)] + 1;
          queue.push_back(w);
        }
        if (dist[static_cast<std::size_t>(w)] ==
            dist[static_cast<std::size_t>(v)] + 1) {
          sigma[static_cast<std::size_t>(w)] += sigma[static_cast<std::size_t>(v)];
          preds[static_cast<std::size_t>(w)].push_back(v);
        }
      }
    }
    std::vector<double> delta(static_cast<std::size_t>(n), 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      Node w = *it;
      for (Node v : preds[static_cast<std::size_t>(w)]) {
        delta[static_cast<std::size_t>(v)] +=
            sigma[static_cast<std::size_t>(v)] /
            sigma[static_cast<std::size_t>(w)] *
            (1.0 + delta[static_cast<std::size_t>(w)]);
      }
      if (w != s) centrality[static_cast<std::size_t>(w)] += delta[static_cast<std::size_t>(w)];
    }
  }
  // Each undirected pair was counted twice (once per endpoint as source).
  for (double& c : centrality) c /= 2.0;
  return centrality;
}

int eccentricity(const Graph& g, Node u) {
  auto dist = bfs_distances(g, u);
  int worst = 0;
  for (int d : dist) {
    if (d != kUnreachable) worst = std::max(worst, d);
  }
  return worst;
}

int radius(const Graph& g) {
  if (g.num_nodes() <= 1) return 0;
  int best = kUnreachable;
  for (Node u = 0; u < g.num_nodes(); ++u) {
    best = std::min(best, eccentricity(g, u));
  }
  return best;
}

double algebraic_connectivity(const Graph& g, int iterations) {
  const int n = g.num_nodes();
  if (n <= 1) return 0.0;
  if (!is_connected(g)) return 0.0;

  // Power iteration on M = c*I - L converges to the eigenvector of L's
  // smallest eigenvalue among those kept; deflating the all-ones vector
  // (L's kernel) leaves lambda_2 as the target. c = max degree * 2 + 1
  // keeps M positive definite on the deflated space.
  std::vector<int> degree(static_cast<std::size_t>(n));
  int max_degree = 0;
  for (Node u = 0; u < n; ++u) {
    degree[static_cast<std::size_t>(u)] = g.degree(u);
    max_degree = std::max(max_degree, g.degree(u));
  }
  const double c = 2.0 * max_degree + 1.0;

  // Deterministic pseudo-random start vector, orthogonal to all-ones.
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] =
        std::sin(1.0 + 0.7318 * static_cast<double>(i + 1));
  }

  auto deflate = [n](std::vector<double>& x) {
    double mean = 0.0;
    for (double xi : x) mean += xi;
    mean /= n;
    for (double& xi : x) xi -= mean;
  };
  auto normalize = [](std::vector<double>& x) {
    double norm = 0.0;
    for (double xi : x) norm += xi * xi;
    norm = std::sqrt(norm);
    if (norm > 0) {
      for (double& xi : x) xi /= norm;
    }
    return norm;
  };

  deflate(v);
  normalize(v);
  std::vector<double> next(static_cast<std::size_t>(n));
  for (int it = 0; it < iterations; ++it) {
    // next = (c*I - L) v = c*v - D*v + A*v
    for (int u = 0; u < n; ++u) {
      double acc = (c - degree[static_cast<std::size_t>(u)]) *
                   v[static_cast<std::size_t>(u)];
      for (const auto& [nbr, w] : g.neighbors(u)) {
        acc += v[static_cast<std::size_t>(nbr)];
      }
      next[static_cast<std::size_t>(u)] = acc;
    }
    deflate(next);
    normalize(next);
    std::swap(v, next);
  }
  // Rayleigh quotient of L at the converged vector.
  double quad = 0.0;
  for (const auto& e : g.edges()) {
    double diff = v[static_cast<std::size_t>(e.u)] - v[static_cast<std::size_t>(e.v)];
    quad += diff * diff;
  }
  double norm_sq = 0.0;
  for (double xi : v) norm_sq += xi * xi;
  return norm_sq > 0 ? quad / norm_sq : 0.0;
}

double degree_assortativity(const Graph& g) {
  auto es = g.edges();
  if (es.size() < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  const double m = static_cast<double>(es.size()) * 2.0;  // both orientations
  for (const Edge& e : es) {
    double du = g.degree(e.u);
    double dv = g.degree(e.v);
    // Count each edge in both orientations so the measure is symmetric.
    sx += du + dv;
    sy += dv + du;
    sxx += du * du + dv * dv;
    syy += dv * dv + du * du;
    sxy += 2.0 * du * dv;
  }
  double cov = sxy / m - (sx / m) * (sy / m);
  double varx = sxx / m - (sx / m) * (sx / m);
  double vary = syy / m - (sy / m) * (sy / m);
  if (varx <= 0.0 || vary <= 0.0) return 0.0;
  return cov / std::sqrt(varx * vary);
}

}  // namespace qfs::graph

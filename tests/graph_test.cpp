#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/metrics.h"
#include "support/rng.h"

namespace qfs::graph {
namespace {

// ---------------------------------------------------------------------------
// Graph basics
// ---------------------------------------------------------------------------

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Graph, AddEdgeAccumulatesWeight) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 2.5);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 3.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 0), 3.5);
}

TEST(Graph, SelfLoopIsContractViolation) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), AssertionError);
}

TEST(Graph, OutOfRangeNodeIsContractViolation) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), AssertionError);
  EXPECT_THROW(g.degree(-1), AssertionError);
}

TEST(Graph, MissingEdgeHasZeroWeight) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 0.0);
}

TEST(Graph, DegreeAndWeightedDegree) {
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 2, 3.0);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 5.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 2.0);
}

TEST(Graph, EdgesReportedOnceOrdered) {
  Graph g(4);
  g.add_edge(2, 0, 1.0);
  g.add_edge(3, 1, 2.0);
  auto es = g.edges();
  ASSERT_EQ(es.size(), 2u);
  EXPECT_EQ(es[0].u, 0);
  EXPECT_EQ(es[0].v, 2);
  EXPECT_EQ(es[1].u, 1);
  EXPECT_EQ(es[1].v, 3);
}

TEST(Graph, EnsureNodesGrows) {
  Graph g(2);
  g.ensure_nodes(5);
  EXPECT_EQ(g.num_nodes(), 5);
  g.ensure_nodes(3);  // never shrinks
  EXPECT_EQ(g.num_nodes(), 5);
}

// ---------------------------------------------------------------------------
// Algorithms
// ---------------------------------------------------------------------------

TEST(Algorithms, BfsDistancesOnPath) {
  Graph g = path_graph(5);
  auto d = bfs_distances(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[static_cast<std::size_t>(i)], i);
}

TEST(Algorithms, BfsUnreachableMarked) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(Algorithms, FlatAllPairsMatchesNested) {
  qfs::Rng rng(6);
  Graph g = random_connected_graph(13, 0.25, rng);
  auto flat = flat_all_pairs_hop_distances(g);
  ASSERT_EQ(flat.size(), 13u * 13u);
  // Row u of the flat buffer is the single-source BFS from u.
  for (int u = 0; u < 13; ++u) {
    auto row = flat.begin() + u * 13;
    EXPECT_EQ(std::vector<int>(row, row + 13), bfs_distances(g, u)) << u;
  }
}

TEST(Algorithms, FlatAllPairsMarksUnreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  auto flat = flat_all_pairs_hop_distances(g);
  EXPECT_EQ(flat[0 * 4 + 1], 1);
  EXPECT_EQ(flat[0 * 4 + 2], kUnreachable);
  EXPECT_EQ(flat[3 * 4 + 2], 1);
  EXPECT_EQ(flat[3 * 4 + 0], kUnreachable);
}

TEST(Algorithms, ShortestPathEndpointsAndContiguity) {
  qfs::Rng rng(6);
  Graph g = random_connected_graph(15, 0.1, rng);
  for (int trial = 0; trial < 20; ++trial) {
    int a = rng.uniform_int(0, 14);
    int b = rng.uniform_int(0, 14);
    auto p = shortest_path(g, a, b);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.front(), a);
    EXPECT_EQ(p.back(), b);
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_TRUE(g.has_edge(p[i], p[i + 1]));
    }
    EXPECT_EQ(static_cast<int>(p.size()) - 1,
              bfs_distances(g, a)[static_cast<std::size_t>(b)]);
  }
}

TEST(Algorithms, ShortestPathSameNode) {
  Graph g = path_graph(3);
  auto p = shortest_path(g, 1, 1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 1);
}

TEST(Algorithms, ShortestPathDisconnectedEmpty) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(shortest_path(g, 0, 2).empty());
}

TEST(Algorithms, ConnectedComponents) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[3]);
}

TEST(Algorithms, IsConnected) {
  EXPECT_TRUE(is_connected(path_graph(5)));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
  Graph g(2);
  EXPECT_FALSE(is_connected(g));
}

TEST(Algorithms, DiameterOfKnownGraphs) {
  EXPECT_EQ(diameter(path_graph(5)), 4);
  EXPECT_EQ(diameter(cycle_graph(6)), 3);
  EXPECT_EQ(diameter(complete_graph(7)), 1);
  EXPECT_EQ(diameter(star_graph(9)), 2);
  Graph g(3);  // disconnected
  EXPECT_EQ(diameter(g), kUnreachable);
}

TEST(Algorithms, BfsOrderCoversComponent) {
  Graph g = grid_graph(3, 3);
  auto order = bfs_order(g, 4);  // centre
  EXPECT_EQ(order.size(), 9u);
  EXPECT_EQ(order[0], 4);
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

TEST(Generators, PathProperties) {
  Graph g = path_graph(6);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(3), 2);
}

TEST(Generators, CycleProperties) {
  Graph g = cycle_graph(6);
  EXPECT_EQ(g.num_edges(), 6);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(g.degree(i), 2);
}

TEST(Generators, CompleteProperties) {
  Graph g = complete_graph(6);
  EXPECT_EQ(g.num_edges(), 15);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(g.degree(i), 5);
}

TEST(Generators, StarProperties) {
  Graph g = star_graph(7);
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_EQ(g.degree(0), 6);
  for (int i = 1; i < 7; ++i) EXPECT_EQ(g.degree(i), 1);
}

TEST(Generators, GridProperties) {
  Graph g = grid_graph(3, 4);
  EXPECT_EQ(g.num_nodes(), 12);
  // edges: 3*3 horizontal + 2*4 vertical = 17
  EXPECT_EQ(g.num_edges(), 17);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomConnectedIsConnected) {
  qfs::Rng rng(13);
  for (int n : {1, 2, 5, 20, 40}) {
    Graph g = random_connected_graph(n, 0.05, rng);
    EXPECT_TRUE(is_connected(g)) << "n=" << n;
    EXPECT_GE(g.num_edges(), n - 1);
  }
}

TEST(Generators, RandomRegularDegreeBounded) {
  qfs::Rng rng(17);
  Graph g = random_regular_graph(12, 3, rng);
  for (int v = 0; v < 12; ++v) EXPECT_LE(g.degree(v), 3);
  // Most nodes should reach the target degree.
  int full = 0;
  for (int v = 0; v < 12; ++v) {
    if (g.degree(v) == 3) ++full;
  }
  EXPECT_GE(full, 8);
}

// ---------------------------------------------------------------------------
// Metrics (closed-form values on canonical graphs)
// ---------------------------------------------------------------------------

TEST(Metrics, AvgShortestPathComplete) {
  EXPECT_DOUBLE_EQ(average_shortest_path(complete_graph(5)), 1.0);
}

TEST(Metrics, AvgShortestPathPath4) {
  // P4 ordered pairs distances: 1,2,3 pattern -> average = 10/6 per
  // direction; identical both directions.
  EXPECT_NEAR(average_shortest_path(path_graph(4)), 10.0 / 6.0, 1e-12);
}

TEST(Metrics, AvgShortestPathStar) {
  // Star n=5: centre-leaf = 1 (4 pairs each way), leaf-leaf = 2 (12 ordered
  // pairs): (8*1 + 12*2)/20 = 1.6.
  EXPECT_NEAR(average_shortest_path(star_graph(5)), 1.6, 1e-12);
}

TEST(Metrics, AvgShortestPathTrivialCases) {
  EXPECT_DOUBLE_EQ(average_shortest_path(Graph(0)), 0.0);
  EXPECT_DOUBLE_EQ(average_shortest_path(Graph(1)), 0.0);
}

TEST(Metrics, ClosenessCompleteIsOne) {
  Graph g = complete_graph(6);
  for (int v = 0; v < 6; ++v) EXPECT_NEAR(closeness(g, v), 1.0, 1e-12);
}

TEST(Metrics, ClosenessStarCentre) {
  Graph g = star_graph(5);
  EXPECT_NEAR(closeness(g, 0), 1.0, 1e-12);       // centre: all at distance 1
  EXPECT_NEAR(closeness(g, 1), 4.0 / 7.0, 1e-12);  // leaf: 1 + 3*2 = 7
}

TEST(Metrics, ClosenessIsolatedIsZero) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_DOUBLE_EQ(closeness(g, 2), 0.0);
}

TEST(Metrics, ClusteringCompleteIsOne) {
  EXPECT_DOUBLE_EQ(average_clustering(complete_graph(5)), 1.0);
}

TEST(Metrics, ClusteringTreeIsZero) {
  EXPECT_DOUBLE_EQ(average_clustering(path_graph(6)), 0.0);
  EXPECT_DOUBLE_EQ(average_clustering(star_graph(6)), 0.0);
}

TEST(Metrics, ClusteringTriangleWithTail) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  // nodes 0,1: clustering 1; node 2: 1/3 (one of three neighbour pairs);
  // node 3: 0.
  EXPECT_NEAR(average_clustering(g), (1.0 + 1.0 + 1.0 / 3.0 + 0.0) / 4.0, 1e-12);
}

TEST(Metrics, DensityKnownValues) {
  EXPECT_DOUBLE_EQ(density(complete_graph(6)), 1.0);
  EXPECT_NEAR(density(path_graph(4)), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(density(Graph(1)), 0.0);
}

TEST(Metrics, DegreeStats) {
  Graph g = star_graph(5);
  auto s = degree_stats(g);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 4);
  EXPECT_NEAR(s.mean, 8.0 / 5.0, 1e-12);
  EXPECT_GT(s.stddev, 0.0);
}

TEST(Metrics, DegreeStatsRegularZeroStddev) {
  auto s = degree_stats(cycle_graph(8));
  EXPECT_EQ(s.min, 2);
  EXPECT_EQ(s.max, 2);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Metrics, EdgeWeightStats) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 3.0);
  auto s = edge_weight_stats(g);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.variance, 1.0);
  EXPECT_DOUBLE_EQ(s.stddev, 1.0);
}

TEST(Metrics, EdgeWeightStatsEmpty) {
  auto s = edge_weight_stats(Graph(3));
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Metrics, AdjacencyMatrixStatsIncludeZeros) {
  Graph g(3);
  g.add_edge(0, 1, 3.0);
  // Upper triangle entries: {3, 0, 0} -> mean 1, var = (4+1+1)/3 = 2.
  auto s = adjacency_matrix_stats(g);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_NEAR(s.variance, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(Metrics, AdjacencyStddevLowerForUniformComplete) {
  // A complete graph with equal weights has zero adjacency-matrix spread; a
  // sparse unequal graph has more. This is the Table-I trade-off direction.
  Graph uniform = complete_graph(6);
  Graph skew(6);
  skew.add_edge(0, 1, 10.0);
  skew.add_edge(2, 3, 1.0);
  EXPECT_LT(adjacency_matrix_stats(uniform).stddev,
            adjacency_matrix_stats(skew).stddev);
}

TEST(Metrics, BetweennessStarCentre) {
  // Star n=5: the centre lies on all C(4,2)=6 leaf-pair shortest paths.
  auto c = betweenness_centrality(star_graph(5));
  EXPECT_NEAR(c[0], 6.0, 1e-9);
  for (int leaf = 1; leaf < 5; ++leaf) EXPECT_NEAR(c[static_cast<std::size_t>(leaf)], 0.0, 1e-9);
}

TEST(Metrics, BetweennessPathGraph) {
  // P4 (0-1-2-3): node 1 lies on paths 0-2, 0-3 => 2; same for node 2.
  auto c = betweenness_centrality(path_graph(4));
  EXPECT_NEAR(c[0], 0.0, 1e-9);
  EXPECT_NEAR(c[1], 2.0, 1e-9);
  EXPECT_NEAR(c[2], 2.0, 1e-9);
  EXPECT_NEAR(c[3], 0.0, 1e-9);
}

TEST(Metrics, BetweennessSplitsOverEqualPaths) {
  // C4: each pair of opposite nodes has two shortest paths; each middle
  // node carries half a path => betweenness 0.5 per node.
  auto c = betweenness_centrality(cycle_graph(4));
  for (double v : c) EXPECT_NEAR(v, 0.5, 1e-9);
}

TEST(Metrics, BetweennessCompleteIsZero) {
  auto c = betweenness_centrality(complete_graph(6));
  for (double v : c) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Metrics, EccentricityAndRadius) {
  Graph p = path_graph(5);
  EXPECT_EQ(eccentricity(p, 0), 4);
  EXPECT_EQ(eccentricity(p, 2), 2);
  EXPECT_EQ(radius(p), 2);
  EXPECT_EQ(radius(complete_graph(4)), 1);
  EXPECT_EQ(radius(star_graph(6)), 1);
}

TEST(Metrics, AlgebraicConnectivityCompleteGraph) {
  // lambda_2(K_n) = n.
  EXPECT_NEAR(algebraic_connectivity(complete_graph(5)), 5.0, 1e-6);
  EXPECT_NEAR(algebraic_connectivity(complete_graph(8)), 8.0, 1e-6);
}

TEST(Metrics, AlgebraicConnectivityPathGraph) {
  // lambda_2(P_n) = 2(1 - cos(pi/n)).
  for (int n : {3, 5, 8}) {
    double expected = 2.0 * (1.0 - std::cos(M_PI / n));
    EXPECT_NEAR(algebraic_connectivity(path_graph(n)), expected, 1e-5)
        << "n=" << n;
  }
}

TEST(Metrics, AlgebraicConnectivityStarGraph) {
  // lambda_2(star) = 1.
  EXPECT_NEAR(algebraic_connectivity(star_graph(7)), 1.0, 1e-5);
}

TEST(Metrics, AlgebraicConnectivityDisconnectedIsZero) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(algebraic_connectivity(g), 0.0);
}

TEST(Metrics, AlgebraicConnectivityOrdersByConnectivity) {
  // Better-connected graphs have higher lambda_2.
  double path = algebraic_connectivity(path_graph(8));
  double ring = algebraic_connectivity(cycle_graph(8));
  double complete = algebraic_connectivity(complete_graph(8));
  EXPECT_LT(path, ring);
  EXPECT_LT(ring, complete);
}

TEST(Metrics, AssortativityRegularIsDegenerate) {
  EXPECT_DOUBLE_EQ(degree_assortativity(cycle_graph(6)), 0.0);
}

TEST(Metrics, AssortativityStarIsNegative) {
  EXPECT_LT(degree_assortativity(star_graph(6)), -0.9);
}

// ---------------------------------------------------------------------------
// Property sweeps
// ---------------------------------------------------------------------------

class GraphSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(GraphSizeSweep, CompleteGraphMetricsScale) {
  const int n = GetParam();
  Graph g = complete_graph(n);
  EXPECT_EQ(g.num_edges(), n * (n - 1) / 2);
  EXPECT_DOUBLE_EQ(average_shortest_path(g), 1.0);
  EXPECT_DOUBLE_EQ(density(g), 1.0);
  EXPECT_DOUBLE_EQ(average_clustering(g), 1.0);
  auto s = degree_stats(g);
  EXPECT_EQ(s.min, n - 1);
  EXPECT_EQ(s.max, n - 1);
}

TEST_P(GraphSizeSweep, PathGraphDiameter) {
  const int n = GetParam();
  EXPECT_EQ(diameter(path_graph(n)), n - 1);
}

TEST_P(GraphSizeSweep, RandomConnectedStaysConnectedUnderMetrics) {
  const int n = GetParam();
  qfs::Rng rng(100 + static_cast<std::uint64_t>(n));
  Graph g = random_connected_graph(n, 0.1, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(average_shortest_path(g), 1.0 - 1e-12);
  EXPECT_LE(density(g), 1.0);
  EXPECT_GE(degree_stats(g).min, 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GraphSizeSweep,
                         ::testing::Values(3, 4, 7, 12, 25, 50));

}  // namespace
}  // namespace qfs::graph

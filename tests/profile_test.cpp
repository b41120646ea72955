#include <gtest/gtest.h>

#include "graph/generators.h"
#include "profile/circuit_profile.h"
#include "profile/clustering.h"
#include "profile/dot_export.h"
#include "profile/interaction.h"
#include "workloads/algorithms.h"
#include "workloads/random_circuit.h"

namespace qfs::profile {
namespace {

using circuit::Circuit;

// ---------------------------------------------------------------------------
// Interaction graphs
// ---------------------------------------------------------------------------

TEST(Interaction, EmptyCircuitHasNoEdges) {
  Circuit c(4);
  graph::Graph g = interaction_graph(c);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Interaction, TwoQubitGatesAddWeight) {
  Circuit c(3);
  c.cx(0, 1).cx(0, 1).cz(1, 2);
  graph::Graph g = interaction_graph(c);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 2), 1.0);
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Interaction, SingleQubitGatesIgnored) {
  Circuit c(2);
  c.h(0).rz(0.3, 1).measure(0);
  EXPECT_EQ(interaction_graph(c).num_edges(), 0);
}

TEST(Interaction, OperandOrderIrrelevant) {
  Circuit c(2);
  c.cx(0, 1).cx(1, 0);
  EXPECT_DOUBLE_EQ(interaction_graph(c).edge_weight(0, 1), 2.0);
}

TEST(Interaction, ThreeQubitGateContributesAllPairs) {
  Circuit c(3);
  c.ccx(0, 1, 2);
  graph::Graph g = interaction_graph(c);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Interaction, BarrierContributesNothing) {
  Circuit c(3);
  c.barrier({0, 1, 2});
  EXPECT_EQ(interaction_graph(c).num_edges(), 0);
}

TEST(Interaction, ActiveGraphCompacts) {
  Circuit c(6);
  c.cx(1, 4);  // qubits 0,2,3,5 inactive
  std::vector<int> qubit_of_node;
  graph::Graph g = active_interaction_graph(c, &qubit_of_node);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(qubit_of_node, (std::vector<int>{1, 4}));
}

TEST(Interaction, GhzInteractionIsPath) {
  graph::Graph g = interaction_graph(workloads::ghz(6));
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(3), 2);
}

TEST(Interaction, QftInteractionIsComplete) {
  graph::Graph g = interaction_graph(workloads::qft(5, false));
  EXPECT_EQ(g.num_edges(), 10);  // all pairs via cphase ladder
}

// ---------------------------------------------------------------------------
// Circuit profiles
// ---------------------------------------------------------------------------

TEST(Profile, SizeParameters) {
  Circuit c(4, "demo");
  c.h(0).cx(0, 1).cz(1, 2).t(3).measure(3);
  CircuitProfile p = profile_circuit(c);
  EXPECT_EQ(p.name, "demo");
  EXPECT_EQ(p.num_qubits, 4);
  EXPECT_EQ(p.gate_count, 5);
  EXPECT_EQ(p.two_qubit_gates, 2);
  EXPECT_DOUBLE_EQ(p.two_qubit_fraction, 0.4);
  EXPECT_EQ(p.depth, c.depth());
}

TEST(Profile, GraphMetricsOnGhz) {
  CircuitProfile p = profile_circuit(workloads::ghz(6));
  EXPECT_EQ(p.ig_nodes, 6);
  EXPECT_EQ(p.ig_edges, 5);
  EXPECT_EQ(p.min_degree, 1);
  EXPECT_EQ(p.max_degree, 2);
  EXPECT_EQ(p.diameter, 5);
  EXPECT_DOUBLE_EQ(p.clustering, 0.0);
  // Path graph P6 average shortest path: 7/3.
  EXPECT_NEAR(p.avg_shortest_path, 7.0 / 3.0, 1e-9);
}

TEST(Profile, EmptyInteractionGraphSafe) {
  Circuit c(3);
  c.h(0);
  CircuitProfile p = profile_circuit(c);
  EXPECT_EQ(p.ig_nodes, 0);
  EXPECT_DOUBLE_EQ(p.avg_shortest_path, 0.0);
}

TEST(Profile, EdgeWeightStatsReflectRepetition) {
  Circuit c(3);
  for (int i = 0; i < 9; ++i) c.cx(0, 1);
  c.cx(1, 2);
  CircuitProfile p = profile_circuit(c);
  EXPECT_DOUBLE_EQ(p.edge_weight_max, 9.0);
  EXPECT_DOUBLE_EQ(p.edge_weight_min, 1.0);
  EXPECT_DOUBLE_EQ(p.edge_weight_mean, 5.0);
  EXPECT_GT(p.edge_weight_stddev, 0.0);
}

TEST(Profile, MetricVectorMatchesNames) {
  CircuitProfile p = profile_circuit(workloads::qft(5));
  auto v = graph_metric_vector(p);
  EXPECT_EQ(v.size(), graph_metric_names().size());
  EXPECT_DOUBLE_EQ(v[0], p.avg_shortest_path);
  EXPECT_DOUBLE_EQ(v[1], p.max_degree);
}

TEST(Profile, FeaturesTransposeProfiles) {
  std::vector<CircuitProfile> ps = {profile_circuit(workloads::ghz(4)),
                                    profile_circuit(workloads::qft(4))};
  auto features = profiles_to_features(ps);
  EXPECT_EQ(features.size(), graph_metric_names().size());
  for (const auto& f : features) EXPECT_EQ(f.values.size(), 2u);
}

// The paper's Fig. 4 claim: a random circuit with the same size parameters
// as a structured algorithm has a denser interaction graph.
TEST(Profile, RandomDenserThanStructuredAtSameSize) {
  qfs::Rng rng(5);
  graph::Graph ring = graph::cycle_graph(6);
  qfs::Rng qrng(6);
  Circuit qaoa = workloads::qaoa_maxcut(ring, 10, qrng);
  CircuitProfile pq = profile_circuit(qaoa);

  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 6;
  spec.num_gates = pq.gate_count;
  spec.two_qubit_fraction = pq.two_qubit_fraction;
  Circuit rand = workloads::random_circuit(spec, rng);
  CircuitProfile pr = profile_circuit(rand);

  EXPECT_EQ(pr.gate_count, pq.gate_count);
  EXPECT_NEAR(pr.two_qubit_fraction, pq.two_qubit_fraction, 0.01);
  EXPECT_GT(pr.density, pq.density);          // random is denser
  EXPECT_GE(pr.max_degree, pq.max_degree);    // and more connected
}

// ---------------------------------------------------------------------------
// DOT export
// ---------------------------------------------------------------------------

TEST(DotExport, StructureAndWeights) {
  Circuit c(3);
  c.cx(0, 1).cx(0, 1).cz(1, 2);
  std::string dot = to_dot(interaction_graph(c));
  EXPECT_NE(dot.find("graph g {"), std::string::npos);
  EXPECT_NE(dot.find("q0 -- q1"), std::string::npos);
  EXPECT_NE(dot.find("q1 -- q2"), std::string::npos);
  EXPECT_NE(dot.find("label=\"2\""), std::string::npos);
  EXPECT_NE(dot.find("penwidth"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(DotExport, PlainStylingForCouplingGraphs) {
  DotOptions opts;
  opts.weight_styling = false;
  opts.node_prefix = "Q";
  opts.graph_name = "chip";
  graph::Graph g(2);
  g.add_edge(0, 1);
  std::string dot = to_dot(g, opts);
  EXPECT_NE(dot.find("graph chip {"), std::string::npos);
  EXPECT_NE(dot.find("Q0 -- Q1;"), std::string::npos);
  EXPECT_EQ(dot.find("penwidth"), std::string::npos);
}

TEST(DotExport, IsolatedNodesListed) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  std::string dot = to_dot(g);
  EXPECT_NE(dot.find("q2;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Clustering
// ---------------------------------------------------------------------------

std::vector<CircuitProfile> mixed_profiles() {
  std::vector<CircuitProfile> ps;
  qfs::Rng rng(7);
  // Family A: sparse chain interactions.
  for (int n = 5; n <= 16; ++n) ps.push_back(profile_circuit(workloads::ghz(n)));
  // Family B: dense random circuits.
  for (int i = 0; i < 12; ++i) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 8;
    spec.num_gates = 200;
    spec.two_qubit_fraction = 0.6;
    ps.push_back(profile_circuit(workloads::random_circuit(spec, rng)));
  }
  return ps;
}

TEST(Clustering, SeparatesSparseFromDense) {
  auto ps = mixed_profiles();
  qfs::Rng rng(8);
  ClusteringResult r = cluster_profiles(ps, 2, rng);
  ASSERT_EQ(r.cluster_of_circuit.size(), ps.size());
  // GHZ circuits (first 12) should share a cluster distinct from the dense
  // random ones.
  for (int i = 1; i < 12; ++i) {
    EXPECT_EQ(r.cluster_of_circuit[static_cast<std::size_t>(i)],
              r.cluster_of_circuit[0]);
  }
  EXPECT_NE(r.cluster_of_circuit[12], r.cluster_of_circuit[0]);
  for (std::size_t i = 13; i < ps.size(); ++i) {
    EXPECT_EQ(r.cluster_of_circuit[i], r.cluster_of_circuit[12]);
  }
}

TEST(Clustering, ReductionShrinksFeatureSpace) {
  auto ps = mixed_profiles();
  qfs::Rng rng(9);
  ClusteringResult reduced = cluster_profiles(ps, 2, rng, true);
  qfs::Rng rng2(9);
  ClusteringResult full = cluster_profiles(ps, 2, rng2, false);
  EXPECT_LT(reduced.feature_indices.size(), full.feature_indices.size());
  EXPECT_EQ(full.feature_indices.size(), graph_metric_names().size());
}

TEST(Clustering, EmptyProfilesIsContractViolation) {
  qfs::Rng rng(10);
  EXPECT_THROW(cluster_profiles({}, 1, rng), AssertionError);
}

}  // namespace
}  // namespace qfs::profile

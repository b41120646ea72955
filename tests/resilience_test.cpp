#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "device/device.h"
#include "device/faults.h"
#include "device/fidelity.h"
#include "graph/algorithms.h"
#include "mapper/pipeline.h"
#include "mapper/routing.h"
#include "workloads/algorithms.h"

namespace qfs {
namespace {

using device::DegradedDevice;
using device::Device;
using device::FaultInjector;
using device::FaultSpec;

// ---------------------------------------------------------------------------
// Graph: induced subgraphs
// ---------------------------------------------------------------------------

TEST(InducedSubgraph, PreservesEdgesAndWeights) {
  graph::Graph g(5);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 4.0);
  g.add_edge(3, 4, 5.0);
  graph::Graph sub = graph::induced_subgraph(g, {1, 2, 4});
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(sub.num_edges(), 1);  // only {1,2} survives
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_DOUBLE_EQ(sub.edge_weight(0, 1), 3.0);
  EXPECT_FALSE(sub.has_edge(1, 2));
}

TEST(InducedSubgraph, KeepOrderDefinesNewIds) {
  graph::Graph g(4);
  g.add_edge(0, 3, 7.0);
  graph::Graph sub = graph::induced_subgraph(g, {3, 0});
  ASSERT_EQ(sub.num_nodes(), 2);
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_DOUBLE_EQ(sub.edge_weight(0, 1), 7.0);
}

TEST(InducedSubgraph, RejectsBadKeepList) {
  graph::Graph g(3);
  EXPECT_THROW(graph::induced_subgraph(g, {0, 0}), qfs::AssertionError);
  EXPECT_THROW(graph::induced_subgraph(g, {0, 3}), qfs::AssertionError);
  EXPECT_THROW(graph::induced_subgraph(g, {-1}), qfs::AssertionError);
}

// ---------------------------------------------------------------------------
// Fault spec parsing
// ---------------------------------------------------------------------------

TEST(FaultSpecParse, FullSpecRoundTrips) {
  auto parsed = device::parse_fault_spec(
      "dead_qubits=3|17;dead_edges=0-1|4-5;dead_qubit_fraction=0.1;"
      "dead_edge_fraction=0.2;drift=0.02;seed=7");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const FaultSpec& spec = parsed.value();
  EXPECT_EQ(spec.dead_qubits, (std::vector<int>{3, 17}));
  ASSERT_EQ(spec.dead_edges.size(), 2u);
  EXPECT_EQ(spec.dead_edges[0], (std::pair<int, int>{0, 1}));
  EXPECT_DOUBLE_EQ(spec.dead_qubit_fraction, 0.1);
  EXPECT_DOUBLE_EQ(spec.dead_edge_fraction, 0.2);
  EXPECT_DOUBLE_EQ(spec.fidelity_drift, 0.02);
  EXPECT_EQ(spec.seed, 7u);
}

TEST(FaultSpecParse, RejectsMalformedInput) {
  EXPECT_FALSE(device::parse_fault_spec("wat=1").is_ok());
  EXPECT_FALSE(device::parse_fault_spec("dead_qubits=").is_ok());
  EXPECT_FALSE(device::parse_fault_spec("dead_qubits=a|b").is_ok());
  EXPECT_FALSE(device::parse_fault_spec("dead_edges=3").is_ok());
  EXPECT_FALSE(device::parse_fault_spec("dead_qubit_fraction=1.5").is_ok());
  EXPECT_FALSE(device::parse_fault_spec("dead_edge_fraction=nan").is_ok());
  EXPECT_FALSE(device::parse_fault_spec("drift=-0.5").is_ok());
  EXPECT_FALSE(device::parse_fault_spec("seed=eleven").is_ok());
  EXPECT_FALSE(device::parse_fault_spec("dead_qubits").is_ok());
  // The offending pair is named.
  auto bad = device::parse_fault_spec("drift=2.0");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.status().message().find("drift"), std::string::npos);
}

TEST(FaultSpecParse, EmptyTextIsEmptySpec) {
  auto parsed = device::parse_fault_spec("");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed.value().empty());
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjection, ExplicitDeadQubitDropsItAndRemaps) {
  Device line = device::line_device(5);
  FaultSpec spec;
  spec.dead_qubits = {0};
  auto degraded = FaultInjector(spec).apply(line);
  ASSERT_TRUE(degraded.is_ok()) << degraded.status().to_string();
  const DegradedDevice& dd = degraded.value();
  EXPECT_EQ(dd.device.num_qubits(), 4);
  EXPECT_EQ(dd.dead_qubits, 1);
  EXPECT_EQ(dd.stranded_qubits, 0);
  EXPECT_EQ(dd.to_parent, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(dd.from_parent, (std::vector<int>{-1, 0, 1, 2, 3}));
  EXPECT_TRUE(graph::is_connected(dd.device.topology().coupling()));
}

TEST(FaultInjection, ExplicitDeadEdgeStrandsTail) {
  // Cutting 3-4 on line:5 strands qubit 4 (healthy but disconnected).
  Device line = device::line_device(5);
  FaultSpec spec;
  spec.dead_edges = {{3, 4}};
  auto degraded = FaultInjector(spec).apply(line);
  ASSERT_TRUE(degraded.is_ok()) << degraded.status().to_string();
  EXPECT_EQ(degraded.value().device.num_qubits(), 4);
  EXPECT_EQ(degraded.value().dead_edges, 1);
  EXPECT_EQ(degraded.value().stranded_qubits, 1);
}

TEST(FaultInjection, TieBetweenLiveComponentsKeepsTheFirst) {
  // Equal-sized live components: the one holding the smallest live qubit
  // wins.
  {
    FaultSpec spec;
    spec.dead_qubits = {0, 3};
    auto r = FaultInjector(spec).apply(device::line_device(6));
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().to_parent, (std::vector<int>{1, 2}));
    EXPECT_EQ(r.value().stranded_qubits, 2);
  }
  // Dead qubits never count as members: every component here has one
  // qubit, and the dead qubit 0 must not be the one kept.
  {
    FaultSpec spec;
    spec.dead_qubits = {0};
    spec.dead_edges = {{1, 2}};
    auto r = FaultInjector(spec).apply(device::line_device(3));
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().to_parent, (std::vector<int>{1}));
    EXPECT_EQ(r.value().stranded_qubits, 1);
  }
}

TEST(FaultInjection, InvalidCasualtiesRejected) {
  Device line = device::line_device(3);
  {
    FaultSpec spec;
    spec.dead_qubits = {7};
    auto r = FaultInjector(spec).apply(line);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    FaultSpec spec;
    spec.dead_edges = {{0, 2}};  // not a coupler on a line
    auto r = FaultInjector(spec).apply(line);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FaultInjection, UnsalvageableDeviceIsResourceExhausted) {
  Device line = device::line_device(3);
  FaultSpec spec;
  spec.dead_qubits = {0, 1, 2};
  auto r = FaultInjector(spec).apply(line);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(FaultInjection, DeterministicForFixedSeed) {
  Device chip = device::surface97_device();
  FaultSpec spec;
  spec.dead_edge_fraction = 0.15;
  spec.dead_qubit_fraction = 0.05;
  spec.fidelity_drift = 0.02;
  spec.seed = 42;
  auto a = FaultInjector(spec).apply(chip);
  auto b = FaultInjector(spec).apply(chip);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().to_parent, b.value().to_parent);
  EXPECT_EQ(a.value().dead_edges, b.value().dead_edges);
  EXPECT_EQ(a.value().device.topology().edge_list(),
            b.value().device.topology().edge_list());
  for (int q = 0; q < a.value().device.num_qubits(); ++q) {
    EXPECT_DOUBLE_EQ(a.value().device.error_model().qubit_fidelity(q),
                     b.value().device.error_model().qubit_fidelity(q));
  }

  FaultSpec other = spec;
  other.seed = 43;
  auto c = FaultInjector(other).apply(chip);
  ASSERT_TRUE(c.is_ok());
  EXPECT_NE(a.value().device.topology().edge_list(),
            c.value().device.topology().edge_list());
}

TEST(FaultInjection, DriftOnlyLowersFidelities) {
  Device chip = device::surface17_device();
  FaultSpec spec;
  spec.fidelity_drift = 0.05;
  auto degraded = FaultInjector(spec).apply(chip);
  ASSERT_TRUE(degraded.is_ok());
  const DegradedDevice& dd = degraded.value();
  ASSERT_EQ(dd.device.num_qubits(), chip.num_qubits());
  bool any_lower = false;
  for (int q = 0; q < dd.device.num_qubits(); ++q) {
    double before = chip.error_model().qubit_fidelity(dd.to_parent[q]);
    double after = dd.device.error_model().qubit_fidelity(q);
    EXPECT_LE(after, before + 1e-12);
    EXPECT_GT(after, 0.0);
    if (after < before) any_lower = true;
  }
  for (auto [a, b] : dd.device.topology().edge_list()) {
    double before = chip.error_model().edge_fidelity(dd.to_parent[a],
                                                     dd.to_parent[b]);
    double after = dd.device.error_model().edge_fidelity(a, b);
    EXPECT_LE(after, before + 1e-12);
    if (after < before) any_lower = true;
  }
  EXPECT_TRUE(any_lower);
}

TEST(FaultInjection, ControlGroupsAreRemapped) {
  Device chip = device::line_device(4);
  chip.set_control_groups({0, 0, 1, 1});
  FaultSpec spec;
  spec.dead_qubits = {0};
  auto degraded = FaultInjector(spec).apply(chip);
  ASSERT_TRUE(degraded.is_ok());
  const DegradedDevice& dd = degraded.value();
  ASSERT_TRUE(dd.device.has_control_groups());
  EXPECT_EQ(dd.device.control_group(0), 0);  // parent qubit 1
  EXPECT_EQ(dd.device.control_group(1), 1);  // parent qubit 2
  EXPECT_EQ(dd.device.control_group(2), 1);  // parent qubit 3
}

// ---------------------------------------------------------------------------
// Resilient compilation
// ---------------------------------------------------------------------------

TEST(CompileResilient, PristineDeviceSucceedsFirstAttempt) {
  circuit::Circuit ghz = workloads::ghz(4);
  Device chip = device::surface17_device();
  mapper::CompileAttemptLog log;
  auto result = mapper::compile_resilient(ghz, chip, {}, &log);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.back().status.is_ok());
  EXPECT_TRUE(mapper::respects_connectivity(result.value().mapping.mapped,
                                            chip));
  EXPECT_TRUE(
      chip.gateset().supports_circuit(result.value().mapping.mapped));
  EXPECT_EQ(result.value().log.size(), log.size());
}

TEST(CompileResilient, FallbackLadderRecoversFromBadBaseOptions) {
  // An unknown placer makes attempt 0 abort inside the mapper; the ladder
  // must catch the contract violation and fall back instead of crashing.
  circuit::Circuit ghz = workloads::ghz(3);
  Device chip = device::line_device(4);
  mapper::ResilientOptions opts;
  opts.base.placer = "nonexistent-placer";
  mapper::CompileAttemptLog log;
  auto result = mapper::compile_resilient(ghz, chip, opts, &log);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_GE(log.size(), 2u);
  EXPECT_FALSE(log.front().status.is_ok());
  EXPECT_EQ(log.front().status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(log.back().status.is_ok());
  EXPECT_NE(result.value().options_used.placer, "nonexistent-placer");
}

TEST(CompileResilient, TooWideCircuitIsResourceExhausted) {
  circuit::Circuit ghz = workloads::ghz(6);
  Device chip = device::line_device(4);
  mapper::CompileAttemptLog log;
  auto result = mapper::compile_resilient(ghz, chip, {}, &log);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(log.empty());  // no attempt can even start
}

TEST(CompileResilient, RejectsNonPositiveMaxAttempts) {
  mapper::ResilientOptions opts;
  opts.max_attempts = 0;
  auto result =
      mapper::compile_resilient(workloads::ghz(2), device::line_device(3),
                                opts);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompileResilient, EquivalenceCheckedOnSmallDevices) {
  // line:4 is within equivalence_max_qubits, GHZ is unitary-only: the
  // winning attempt must have passed statevector equivalence.
  circuit::Circuit ghz = workloads::ghz(4);
  Device chip = device::line_device(4);
  mapper::ResilientOptions opts;
  opts.base.placer = "degree-match";
  opts.base.router = "lookahead";
  auto result = mapper::compile_resilient(ghz, chip, opts);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(mapper::respects_connectivity(result.value().mapping.mapped,
                                            chip));
}

TEST(CompileResilient, AttemptLogRendersEveryRung) {
  circuit::Circuit ghz = workloads::ghz(3);
  mapper::ResilientOptions opts;
  opts.base.placer = "nonexistent-placer";
  mapper::CompileAttemptLog log;
  auto result =
      mapper::compile_resilient(ghz, device::line_device(4), opts, &log);
  ASSERT_TRUE(result.is_ok());
  std::string text = mapper::attempt_log_to_string(log);
  EXPECT_NE(text.find("attempt 0"), std::string::npos);
  EXPECT_NE(text.find("nonexistent-placer"), std::string::npos);
  EXPECT_NE(text.find("ok"), std::string::npos);
}

// The PR's acceptance criterion: Surface-97 with 10% of its couplers dead
// still compiles, onto the largest connected healthy subgraph, with a
// validated connectivity-compliant result.
TEST(CompileResilient, Surface97WithTenPctDeadEdges) {
  Device chip = device::surface97_device();
  FaultSpec spec;
  spec.dead_edge_fraction = 0.10;
  spec.fidelity_drift = 0.02;
  spec.seed = 7;
  auto degraded = FaultInjector(spec).apply(chip);
  ASSERT_TRUE(degraded.is_ok()) << degraded.status().to_string();
  const DegradedDevice& dd = degraded.value();
  EXPECT_GE(dd.dead_edges, 1);
  EXPECT_TRUE(graph::is_connected(dd.device.topology().coupling()));

  circuit::Circuit ghz = workloads::ghz(12);
  mapper::ResilientOptions opts;
  opts.base.placer = "degree-match";
  opts.base.router = "lookahead";
  mapper::CompileAttemptLog log;
  auto result = mapper::compile_resilient(ghz, dd.device, opts, &log);
  ASSERT_TRUE(result.is_ok()) << mapper::attempt_log_to_string(log);
  EXPECT_TRUE(mapper::respects_connectivity(result.value().mapping.mapped,
                                            dd.device));
  EXPECT_TRUE(
      dd.device.gateset().supports_circuit(result.value().mapping.mapped));
  EXPECT_GT(result.value().mapping.fidelity_after, 0.0);
}

// ---------------------------------------------------------------------------
// Fidelity floor on degraded devices
// ---------------------------------------------------------------------------

// Regression: a heavily degraded device drives per-gate fidelities toward
// zero; before the kMinGateFidelity floor, log(0) = -inf made every
// downstream ratio NaN. All fidelity estimates must stay finite and
// bounded below by gate_count * log(floor).
TEST(FidelityFloor, DegradedDeviceEstimatesStayFinite) {
  Device chip = device::surface17_device();
  FaultSpec spec;
  spec.dead_edge_fraction = 0.10;
  spec.fidelity_drift = 0.999;  // near-total loss on surviving couplers
  spec.seed = 11;
  auto degraded = FaultInjector(spec).apply(chip);
  ASSERT_TRUE(degraded.is_ok()) << degraded.status().to_string();
  const Device& dev = degraded.value().device;

  circuit::Circuit ghz = workloads::ghz(8);
  Rng rng(2022);
  mapper::MappingOptions opts;
  opts.placer = "degree-match";
  opts.router = "lookahead";
  mapper::MappingResult result = mapper::map_circuit(ghz, dev, opts, rng);

  double log_f = device::estimate_log_gate_fidelity(result.mapped, dev);
  EXPECT_TRUE(std::isfinite(log_f));
  EXPECT_GE(log_f,
            result.mapped.gate_count() * std::log(device::kMinGateFidelity));
  EXPECT_TRUE(std::isfinite(result.log_fidelity_after));
  EXPECT_TRUE(std::isfinite(result.fidelity_decrease_pct));
  EXPECT_LE(device::estimate_gate_fidelity(result.mapped, dev), 1.0);
}

}  // namespace
}  // namespace qfs

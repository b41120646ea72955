#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "compiler/decompose.h"
#include "graph/generators.h"
#include "mapper/layout.h"
#include "mapper/optimal.h"
#include "mapper/recommend.h"
#include "mapper/pipeline.h"
#include "mapper/placement.h"
#include "mapper/routing.h"
#include "sim/equivalence.h"
#include "workloads/algorithms.h"
#include "workloads/random_circuit.h"

namespace qfs::mapper {
namespace {

using circuit::Circuit;
using circuit::GateKind;
using device::Device;

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

TEST(Layout, IdentityRoundTrip) {
  Layout l = Layout::identity(5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(l.physical(i), i);
    EXPECT_EQ(l.virtual_qubit(i), i);
  }
}

TEST(Layout, FromPartialPadsRemaining) {
  Layout l = Layout::from_partial({3, 1}, 4);
  EXPECT_EQ(l.physical(0), 3);
  EXPECT_EQ(l.physical(1), 1);
  // Padding virtuals 2,3 take free physicals 0,2 in order.
  EXPECT_EQ(l.physical(2), 0);
  EXPECT_EQ(l.physical(3), 2);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(l.physical(l.virtual_qubit(p)), p);
  }
}

TEST(Layout, FromPartialValidates) {
  EXPECT_THROW(Layout::from_partial({0, 0}, 3), AssertionError);
  EXPECT_THROW(Layout::from_partial({5}, 3), AssertionError);
  EXPECT_THROW(Layout::from_partial({0, 1, 2, 3}, 3), AssertionError);
}

TEST(Layout, ApplySwapExchangesContents) {
  Layout l = Layout::identity(3);
  l.apply_swap(0, 2);
  EXPECT_EQ(l.physical(0), 2);
  EXPECT_EQ(l.physical(2), 0);
  EXPECT_EQ(l.virtual_qubit(0), 2);
  EXPECT_EQ(l.virtual_qubit(2), 0);
  EXPECT_EQ(l.physical(1), 1);
}

TEST(Layout, SwapSelfIsContractViolation) {
  Layout l = Layout::identity(2);
  EXPECT_THROW(l.apply_swap(1, 1), AssertionError);
}

TEST(Layout, InitialSegment) {
  Layout l = Layout::from_partial({2, 0}, 3);
  auto seg = l.initial_segment(2);
  EXPECT_EQ(seg, (std::vector<int>{2, 0}));
}

// ---------------------------------------------------------------------------
// Placers
// ---------------------------------------------------------------------------

TEST(Placement, TrivialIsIdentity) {
  Device d = device::surface17_device();
  Circuit c = workloads::ghz(5);
  qfs::Rng rng(1);
  Layout l = TrivialPlacer().place(c, d, rng);
  for (int i = 0; i < 17; ++i) EXPECT_EQ(l.physical(i), i);
}

TEST(Placement, RandomIsValidPermutation) {
  Device d = device::surface17_device();
  Circuit c = workloads::ghz(10);
  qfs::Rng rng(2);
  Layout l = RandomPlacer().place(c, d, rng);
  std::vector<bool> seen(17, false);
  for (int v = 0; v < 17; ++v) {
    int p = l.physical(v);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 17);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = true;
  }
}

TEST(Placement, DegreeMatchPutsBusiestVirtualOnHighDegreePhysical) {
  Device d = device::surface17_device();
  // Star-shaped interaction: virtual 0 interacts with everyone.
  Circuit c(5);
  for (int i = 1; i < 5; ++i) c.cx(0, i);
  qfs::Rng rng(3);
  Layout l = DegreeMatchPlacer().place(c, d, rng);
  int p0 = l.physical(0);
  // Virtual 0 must land on a degree-4 site (the max on surface-17).
  EXPECT_EQ(d.topology().coupling().degree(p0), 4);
}

TEST(Placement, AnnealingNeverWorseThanCostOfDegreeMatch) {
  Device d = device::surface17_device();
  qfs::Rng rng(4);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 10;
  spec.num_gates = 60;
  spec.two_qubit_fraction = 0.5;
  Circuit c = workloads::random_circuit(spec, rng);
  qfs::Rng r1(7), r2(7);
  Layout dm = DegreeMatchPlacer().place(c, d, r1);
  Layout an = AnnealingPlacer(5000).place(c, d, r2);
  EXPECT_LE(AnnealingPlacer::placement_cost(c, d, an),
            AnnealingPlacer::placement_cost(c, d, dm));
}

TEST(Placement, AnnealingSolvesPerfectlyEmbeddableCircuit) {
  // A line-interaction circuit on a line device can reach cost 0.
  Device d = device::line_device(6);
  Circuit c(6);
  for (int i = 0; i + 1 < 6; ++i) c.cz(i, i + 1);
  qfs::Rng rng(5);
  Layout l = AnnealingPlacer(20000).place(c, d, rng);
  EXPECT_DOUBLE_EQ(AnnealingPlacer::placement_cost(c, d, l), 0.0);
}

TEST(Placement, SubgraphEmbedsLineIntoSurface) {
  // A GHZ chain's interaction graph (a path) embeds into any connected
  // coupling graph, so the subgraph placer must deliver a zero-swap layout.
  Device d = device::surface17_device();
  Circuit c = workloads::ghz(8);
  qfs::Rng rng(41);
  Layout l = SubgraphPlacer().place(c, d, rng);
  for (int i = 0; i + 1 < 8; ++i) {
    EXPECT_TRUE(d.topology().adjacent(l.physical(i), l.physical(i + 1)))
        << "pair " << i;
  }
}

TEST(Placement, SubgraphFindEmbeddingExactCases) {
  graph::Graph path = graph::path_graph(4);
  graph::Graph host = device::surface7().coupling();
  auto embedding = SubgraphPlacer::find_embedding(path, host, 100000);
  ASSERT_EQ(embedding.size(), 4u);
  for (int i = 0; i + 1 < 4; ++i) {
    EXPECT_TRUE(host.has_edge(embedding[static_cast<std::size_t>(i)],
                              embedding[static_cast<std::size_t>(i + 1)]));
  }
}

TEST(Placement, SubgraphRejectsImpossiblePattern) {
  // K5 cannot embed into a degree-<=4 planar lattice section like
  // surface-7 (needs 5 mutually coupled qubits).
  graph::Graph k5 = graph::complete_graph(5);
  auto embedding =
      SubgraphPlacer::find_embedding(k5, device::surface7().coupling(), 100000);
  EXPECT_TRUE(embedding.empty());
}

TEST(Placement, SubgraphFallsBackGracefully) {
  // QFT's interaction graph is complete: not embeddable, so the placer
  // falls back to annealing and must still produce a valid layout.
  Device d = device::surface17_device();
  Circuit c = workloads::qft(6);
  qfs::Rng rng(43);
  Layout l = SubgraphPlacer().place(c, d, rng);
  std::vector<bool> seen(17, false);
  for (int v = 0; v < 17; ++v) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(l.physical(v))]);
    seen[static_cast<std::size_t>(l.physical(v))] = true;
  }
}

TEST(Placement, SubgraphZeroSwapsEndToEnd) {
  Device d = device::surface97_device();
  Circuit c = workloads::ghz(20);
  MappingOptions opts;
  opts.placer = "subgraph";
  qfs::Rng rng(44);
  MappingResult r = map_circuit(c, d, opts, rng);
  EXPECT_EQ(r.swaps_inserted, 0);
  EXPECT_DOUBLE_EQ(r.gate_overhead_pct, 0.0);
}

TEST(Placement, NoiseAwareAvoidsBadRegion) {
  // Line of 6; qubits 0-2 have terrible edges, 3-5 are clean. A 3-qubit
  // chain circuit must be placed on the clean half.
  Device d = device::line_device(6);
  d.mutable_error_model().set_edge_fidelity(0, 1, 0.5);
  d.mutable_error_model().set_edge_fidelity(1, 2, 0.5);
  d.mutable_error_model().set_edge_fidelity(2, 3, 0.5);
  d.mutable_error_model().set_edge_fidelity(3, 4, 0.999);
  d.mutable_error_model().set_edge_fidelity(4, 5, 0.999);
  Circuit c(3);
  c.cz(0, 1).cz(1, 2);
  qfs::Rng rng(45);
  Layout l = NoiseAwarePlacer().place(c, d, rng);
  for (int v = 0; v < 3; ++v) {
    EXPECT_GE(l.physical(v), 3) << "virtual " << v << " placed in bad region";
  }
}

TEST(Placement, NoiseAwareProducesValidInjection) {
  Device d = device::surface17_device();
  qfs::Rng gen(46);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 10;
  spec.num_gates = 80;
  spec.two_qubit_fraction = 0.5;
  Circuit c = workloads::random_circuit(spec, gen);
  qfs::Rng rng(47);
  Layout l = NoiseAwarePlacer().place(c, d, rng);
  std::vector<bool> seen(17, false);
  for (int v = 0; v < 17; ++v) {
    int p = l.physical(v);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 17);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = true;
  }
}

TEST(Placement, WiderCircuitThanDeviceIsContractViolation) {
  Device d = device::surface7_device();
  Circuit c(8);
  qfs::Rng rng(6);
  EXPECT_THROW(TrivialPlacer().place(c, d, rng), AssertionError);
}

TEST(Placement, FactoryKnowsAllNames) {
  for (const std::string name : {"trivial", "random", "degree-match",
                                 "annealing", "subgraph", "noise-aware"}) {
    EXPECT_NE(make_placer(name), nullptr);
  }
  EXPECT_THROW(make_placer("bogus"), AssertionError);
}

// ---------------------------------------------------------------------------
// Routers
// ---------------------------------------------------------------------------

struct RouterCase {
  std::string name;
};

class RouterSuite : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Router> router() const { return make_router(GetParam()); }
};

TEST_P(RouterSuite, AdjacentGatesNeedNoSwaps) {
  Device d = device::surface7_device();
  Circuit c(7);
  c.cz(0, 2).cz(0, 3).cz(3, 6);  // all coupled on surface-7
  qfs::Rng rng(1);
  auto result = router()->route(c, d, Layout::identity(7), rng);
  EXPECT_EQ(result.swaps_inserted, 0);
  EXPECT_EQ(result.mapped.gate_count(), 3);
  EXPECT_TRUE(respects_connectivity(result.mapped, d));
}

TEST_P(RouterSuite, NonAdjacentGateGetsRouted) {
  Device d = device::surface7_device();
  Circuit c(7);
  c.cz(0, 6);  // distance 2 on surface-7
  qfs::Rng rng(2);
  auto result = router()->route(c, d, Layout::identity(7), rng);
  // Routing work must happen: either SWAPs were inserted or the gate was
  // realised by a larger network (the bridge router's 4-CX construction).
  EXPECT_TRUE(result.swaps_inserted >= 1 || result.mapped.gate_count() > 1);
  EXPECT_TRUE(respects_connectivity(result.mapped, d));
}

TEST_P(RouterSuite, RoutedCircuitsPreserveSemantics) {
  Device d = device::surface7_device();
  qfs::Rng gen(42);
  for (int trial = 0; trial < 6; ++trial) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 5;
    spec.num_gates = 25;
    spec.two_qubit_fraction = 0.5;
    Circuit c = workloads::random_circuit(spec, gen);
    // Routers take arity<=2 circuits; this spec only emits 1q/2q gates.
    qfs::Rng rng(trial);
    Layout initial = RandomPlacer().place(c, d, rng);
    std::vector<int> init_seg = initial.initial_segment(c.num_qubits());
    auto result = router()->route(c, d, initial, rng);
    EXPECT_TRUE(respects_connectivity(result.mapped, d));
    EXPECT_TRUE(sim::mapping_preserves_semantics(
        c, result.mapped, init_seg,
        result.final_layout.initial_segment(c.num_qubits()), rng))
        << GetParam() << " trial " << trial;
  }
}

TEST_P(RouterSuite, MeasureAndBarrierAreRemapped) {
  Device d = device::surface7_device();
  Circuit c(3);
  c.cz(0, 1).measure(0).barrier({0, 1, 2}).reset(2);
  qfs::Rng rng(3);
  Layout initial = Layout::from_partial({2, 5, 0}, 7);
  auto result = router()->route(c, d, initial, rng);
  bool found_measure = false;
  for (const auto& g : result.mapped.gates()) {
    if (g.kind == GateKind::kMeasure) {
      found_measure = true;
      // virtual 0 started on physical 2; cz(0@2, 1@5) is non-adjacent so a
      // swap may have moved it, but the measure must target wherever
      // virtual 0 lives — which is final_layout[0].
      EXPECT_EQ(g.qubits[0], result.final_layout.physical(0));
    }
  }
  EXPECT_TRUE(found_measure);
}

TEST_P(RouterSuite, ThreeQubitGateIsContractViolation) {
  Device d = device::surface7_device();
  Circuit c(3);
  c.ccx(0, 1, 2);
  qfs::Rng rng(4);
  EXPECT_THROW(router()->route(c, d, Layout::identity(7), rng), AssertionError);
}

TEST_P(RouterSuite, LongDistanceChainOnLine) {
  Device d = device::line_device(10);
  Circuit c(10);
  c.cx(0, 9).cx(9, 0);
  qfs::Rng rng(5);
  auto result = router()->route(c, d, Layout::identity(10), rng);
  EXPECT_TRUE(respects_connectivity(result.mapped, d));
  qfs::Rng check(6);
  EXPECT_TRUE(sim::mapping_preserves_semantics(
      c, result.mapped, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
      result.final_layout.initial_segment(10), check, 2));
}

INSTANTIATE_TEST_SUITE_P(Strategies, RouterSuite,
                         ::testing::Values("trivial", "lookahead",
                                           "noise-aware", "optimal",
                                           "bridge"));

TEST(BridgeRouter, Distance2CxBridgedWithoutLayoutChange) {
  Device d = device::line_device(3);
  Circuit c(3);
  c.cx(0, 2);
  qfs::Rng rng(61);
  auto r = BridgeRouter().route(c, d, Layout::identity(3), rng);
  EXPECT_EQ(r.swaps_inserted, 0);
  EXPECT_EQ(r.mapped.gate_count(), 4);  // the 4-CX bridge
  // Layout untouched.
  for (int v = 0; v < 3; ++v) EXPECT_EQ(r.final_layout.physical(v), v);
  EXPECT_TRUE(respects_connectivity(r.mapped, d));
  qfs::Rng check(62);
  EXPECT_TRUE(sim::mapping_preserves_semantics(c, r.mapped, {0, 1, 2},
                                               {0, 1, 2}, check, 3));
}

TEST(BridgeRouter, Distance2CzBridged) {
  Device d = device::line_device(3);
  Circuit c(3);
  c.cz(0, 2);
  qfs::Rng rng(63);
  auto r = BridgeRouter().route(c, d, Layout::identity(3), rng);
  EXPECT_EQ(r.swaps_inserted, 0);
  qfs::Rng check(64);
  EXPECT_TRUE(sim::mapping_preserves_semantics(c, r.mapped, {0, 1, 2},
                                               {0, 1, 2}, check, 3));
}

TEST(BridgeRouter, LongerDistancesFallBackToSwaps) {
  Device d = device::line_device(5);
  Circuit c(5);
  c.cx(0, 4);
  qfs::Rng rng(65);
  auto r = BridgeRouter().route(c, d, Layout::identity(5), rng);
  EXPECT_GT(r.swaps_inserted, 0);
  EXPECT_TRUE(respects_connectivity(r.mapped, d));
}

TEST(BridgeRouter, RepeatedFarPairKeepsLayoutStable) {
  // Two cx(0,2) gates: bridging costs 8 CX but the layout never moves, so
  // a following adjacent gate cx(0,1) stays adjacent.
  Device d = device::line_device(3);
  Circuit c(3);
  c.cx(0, 2).cx(0, 1);
  qfs::Rng rng(66);
  auto r = BridgeRouter().route(c, d, Layout::identity(3), rng);
  EXPECT_EQ(r.swaps_inserted, 0);
  qfs::Rng check(67);
  EXPECT_TRUE(sim::mapping_preserves_semantics(c, r.mapped, {0, 1, 2},
                                               {0, 1, 2}, check, 2));
}

TEST(BridgeRouter, WorksThroughFullPipeline) {
  Device d = device::surface17_device();
  Circuit c = workloads::qft(5);
  MappingOptions opts;
  opts.router = "bridge";
  qfs::Rng rng(68);
  MappingResult r = map_circuit(c, d, opts, rng);
  EXPECT_TRUE(d.gateset().supports_circuit(r.mapped));
  EXPECT_TRUE(respects_connectivity(r.mapped, d));
  qfs::Rng check(69);
  EXPECT_TRUE(sim::mapping_preserves_semantics(c, r.mapped, r.initial_layout,
                                               r.final_layout, check, 2, 1e-6));
}

TEST(OptimalRouter, SingleFarGateUsesExactlyDistanceMinusOneSwaps) {
  Device d = device::line_device(6);
  Circuit c(6);
  c.cx(0, 5);
  qfs::Rng rng(50);
  auto r = OptimalRouter().route(c, d, Layout::identity(6), rng);
  EXPECT_EQ(r.swaps_inserted, 4);
  EXPECT_TRUE(respects_connectivity(r.mapped, d));
}

TEST(OptimalRouter, ZeroSwapsWhenAllAdjacent) {
  Device d = device::line_device(4);
  Circuit c(4);
  c.cx(0, 1).cx(1, 2).cx(2, 3);
  qfs::Rng rng(51);
  auto r = OptimalRouter().route(c, d, Layout::identity(4), rng);
  EXPECT_EQ(r.swaps_inserted, 0);
}

TEST(OptimalRouter, NeverWorseThanHeuristics) {
  Device d = device::surface7_device();
  qfs::Rng gen(52);
  for (int trial = 0; trial < 5; ++trial) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 5;
    spec.num_gates = 12;
    spec.two_qubit_fraction = 0.6;
    Circuit c = workloads::random_circuit(spec, gen);
    qfs::Rng r1(trial), r2(trial), r3(trial);
    int optimal =
        OptimalRouter().route(c, d, Layout::identity(7), r1).swaps_inserted;
    int trivial =
        TrivialRouter().route(c, d, Layout::identity(7), r2).swaps_inserted;
    int lookahead =
        LookaheadRouter().route(c, d, Layout::identity(7), r3).swaps_inserted;
    EXPECT_LE(optimal, trivial) << "trial " << trial;
    EXPECT_LE(optimal, lookahead) << "trial " << trial;
  }
}

TEST(OptimalRouter, ReusesSwapAcrossRepeatedGates) {
  // cx(0,3) twice on a line: one swap plan serves both; trivial pays twice?
  // Actually the trivial router leaves qubits moved, so both cost the same
  // here — the point is optimal must pay only dist-1 = 2 once.
  Device d = device::line_device(4);
  Circuit c(4);
  c.cx(0, 3).cx(0, 3);
  qfs::Rng rng(53);
  auto r = OptimalRouter().route(c, d, Layout::identity(4), rng);
  EXPECT_EQ(r.swaps_inserted, 2);
}

TEST(OptimalRouter, BudgetFallbackStillCorrect) {
  Device d = device::surface17_device();
  qfs::Rng gen(54);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 10;
  spec.num_gates = 40;
  spec.two_qubit_fraction = 0.5;
  Circuit c = workloads::random_circuit(spec, gen);
  qfs::Rng rng(55);
  // Tiny budget forces the fallback path.
  auto r = OptimalRouter(10).route(c, d, Layout::identity(17), rng);
  EXPECT_TRUE(respects_connectivity(r.mapped, d));
  qfs::Rng check(56);
  EXPECT_TRUE(sim::mapping_preserves_semantics(
      c, r.mapped, Layout::identity(17).initial_segment(10),
      r.final_layout.initial_segment(10), check, 2));
}

TEST(Pipeline, SabreRefinementNotWorseOnAverage) {
  Device d = device::surface17_device();
  qfs::Rng gen(57);
  double plain_total = 0, refined_total = 0;
  for (int trial = 0; trial < 6; ++trial) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 10;
    spec.num_gates = 80;
    spec.two_qubit_fraction = 0.4;
    Circuit c = workloads::random_circuit(spec, gen);
    MappingOptions plain;
    plain.router = "lookahead";
    MappingOptions refined = plain;
    refined.sabre_refinement_rounds = 2;
    qfs::Rng r1(trial), r2(trial);
    plain_total += map_circuit(c, d, plain, r1).swaps_inserted;
    refined_total += map_circuit(c, d, refined, r2).swaps_inserted;
  }
  EXPECT_LE(refined_total, plain_total * 1.05);
}

TEST(Pipeline, SabreRefinementPreservesSemantics) {
  Device d = device::surface7_device();
  qfs::Rng gen(58);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 4;
  spec.num_gates = 15;
  spec.two_qubit_fraction = 0.5;
  Circuit c = workloads::random_circuit(spec, gen);
  MappingOptions opts;
  opts.sabre_refinement_rounds = 3;
  qfs::Rng rng(59);
  MappingResult r = map_circuit(c, d, opts, rng);
  qfs::Rng check(60);
  EXPECT_TRUE(sim::mapping_preserves_semantics(c, r.mapped, r.initial_layout,
                                               r.final_layout, check, 2, 1e-6));
}

TEST(Routing, TrivialSwapCountMatchesDistance) {
  Device d = device::line_device(6);
  Circuit c(6);
  c.cx(0, 5);
  qfs::Rng rng(7);
  auto result = TrivialRouter().route(c, d, Layout::identity(6), rng);
  // distance 5 -> 4 swaps.
  EXPECT_EQ(result.swaps_inserted, 4);
}

TEST(Routing, LookaheadBeatsTrivialOnRepeatedFarPair) {
  // Repeatedly interacting far pair: lookahead should not undo its progress.
  Device d = device::line_device(8);
  Circuit c(8);
  for (int i = 0; i < 6; ++i) c.cx(0, 7);
  qfs::Rng r1(8), r2(8);
  auto trivial = TrivialRouter().route(c, d, Layout::identity(8), r1);
  auto ahead = LookaheadRouter().route(c, d, Layout::identity(8), r2);
  EXPECT_LE(ahead.swaps_inserted, trivial.swaps_inserted);
}

TEST(Routing, NoiseAwareAvoidsBadEdges) {
  // Make edge 1-2 terrible on a 4-ring so the router has a clean detour.
  Device ring("ring-4", device::ring_topology(4), device::surface_code_gateset(),
              device::ErrorModel(0.999, 0.99, 0.997));
  ring.mutable_error_model().set_edge_fidelity(1, 2, 0.5);
  Circuit c(4);
  c.cx(0, 2);  // distance 2 both ways round the ring
  qfs::Rng rng(9);
  auto result = NoiseAwareRouter().route(c, ring, Layout::identity(4), rng);
  // The swap must use the 0-3-2 side, never touching edge 1-2.
  for (const auto& g : result.mapped.gates()) {
    if (g.kind == GateKind::kSwap) {
      bool uses_bad = (g.qubits[0] == 1 && g.qubits[1] == 2) ||
                      (g.qubits[0] == 2 && g.qubits[1] == 1);
      EXPECT_FALSE(uses_bad);
    }
  }
  EXPECT_TRUE(respects_connectivity(result.mapped, ring));
}

/// Two four-qubit lines, 0-1-2-3 and 4-5-6-7, with no coupler between them.
Device two_component_device() {
  graph::Graph g(8);
  for (int base : {0, 4}) {
    for (int i = 0; i < 3; ++i) g.add_edge(base + i, base + i + 1);
  }
  return Device("two-lines-4", device::Topology("two-lines-4", std::move(g)),
                device::surface_code_gateset(),
                device::ErrorModel(0.999, 0.99, 0.997));
}

TEST(Routing, LookaheadOnDisconnectedChip) {
  Device d = two_component_device();
  ASSERT_FALSE(d.topology().connected());

  // Confined: every two-qubit gate's operands share a component under the
  // initial layout, and swaps stay inside a component, so routing succeeds.
  Circuit confined(8);
  confined.cx(0, 3).cx(4, 7).h(5).cx(1, 3).cx(6, 4).cx(0, 2).cz(7, 5);
  qfs::Rng rng(1);
  auto routed = LookaheadRouter().route(confined, d, Layout::identity(8), rng);
  EXPECT_EQ(routed.swaps_inserted, 8);
  EXPECT_EQ(routed.mapped.to_string(),
            R"(circuit <anonymous> (8 qubits, 15 gates)
  h q[5]
  swap q[0],q[1]
  swap q[1],q[2]
  cx q[2],q[3]
  cx q[2],q[1]
  swap q[0],q[1]
  swap q[1],q[2]
  cx q[2],q[3]
  swap q[4],q[5]
  swap q[5],q[6]
  cx q[6],q[7]
  cx q[5],q[6]
  swap q[4],q[5]
  swap q[5],q[6]
  cz q[7],q[6]
)");
  EXPECT_TRUE(respects_connectivity(routed.mapped, d));

  // Spanning: cx(1, 6) crosses components, which no swap sequence can fix.
  Circuit spanning = confined;
  spanning.cx(1, 6);
  try {
    LookaheadRouter().route(spanning, d, Layout::identity(8), rng);
    ADD_FAILURE() << "routing a component-spanning gate must throw";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("disconnected topology"),
              std::string::npos)
        << e.what();
  }

  // The resilient driver records each aborted rung and climbs the ladder
  // until a placement confines the pair (here only the subgraph placer).
  Circuit pair(8);
  pair.cx(0, 5);
  ResilientOptions options;
  options.base.placer = "trivial";
  options.base.router = "lookahead";
  CompileAttemptLog log;
  auto resilient = compile_resilient(pair, d, options, &log);
  ASSERT_FALSE(log.empty());
  EXPECT_NE(log[0].status.to_string().find("disconnected topology"),
            std::string::npos)
      << attempt_log_to_string(log);
  std::string rungs;
  for (const CompileAttempt& a : log) {
    rungs += a.placer + "/" + a.router + (a.status.is_ok() ? " ok;" : " failed;");
  }
  EXPECT_EQ(rungs,
            "trivial/lookahead failed;trivial/trivial failed;"
            "degree-match/lookahead failed;annealing/lookahead failed;"
            "noise-aware/noise-aware failed;subgraph/lookahead ok;")
      << attempt_log_to_string(log);
  EXPECT_TRUE(resilient.is_ok());
}

TEST(Routing, LookaheadRoutes100kGatesInLinearTime) {
  // Guards the lookahead window's persistent cursor: with a from-zero
  // rescan per call the router is quadratic and this case takes minutes
  // instead of under a second (Release), blowing the tier-1 budget.
  Device d = device::surface97_device();
  qfs::Rng gen(42);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 40;
  spec.num_gates = 100000;
  spec.two_qubit_fraction = 0.35;
  Circuit c = compiler::decompose_to_gateset(
      workloads::random_circuit(spec, gen), d.gateset());
  qfs::Rng rng(1);
  auto result = LookaheadRouter().route(c, d, Layout::identity(97), rng);
  EXPECT_TRUE(respects_connectivity(result.mapped, d));
  EXPECT_EQ(result.swaps_inserted, 67011);
}

TEST(Routing, FactoryRejectsUnknown) {
  EXPECT_THROW(make_router("bogus"), AssertionError);
}

// ---------------------------------------------------------------------------
// Full pipeline
// ---------------------------------------------------------------------------

TEST(Pipeline, GhzOnSurface7EndToEnd) {
  Device d = device::surface7_device();
  Circuit c = workloads::ghz(4);
  qfs::Rng rng(10);
  MappingResult r = map_circuit(c, d, rng);
  EXPECT_TRUE(d.gateset().supports_circuit(r.mapped));
  EXPECT_TRUE(respects_connectivity(r.mapped, d));
  EXPECT_GE(r.gates_after, r.gates_before);
  EXPECT_LE(r.fidelity_after, r.fidelity_before + 1e-12);
  EXPECT_GE(r.fidelity_decrease_pct, -1e-9);
}

TEST(Pipeline, MappedCircuitPreservesSemantics) {
  Device d = device::surface7_device();
  qfs::Rng gen(11);
  for (int trial = 0; trial < 4; ++trial) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 4;
    spec.num_gates = 15;
    spec.two_qubit_fraction = 0.4;
    Circuit c = workloads::random_circuit(spec, gen);
    qfs::Rng rng(trial);
    MappingResult r = map_circuit(c, d, rng);
    qfs::Rng check(trial + 100);
    EXPECT_TRUE(sim::mapping_preserves_semantics(
        c, r.mapped, r.initial_layout, r.final_layout, check, 2, 1e-6))
        << "trial " << trial;
  }
}

TEST(Pipeline, ToffoliCircuitIsDecomposedThenRouted) {
  Device d = device::surface7_device();
  Circuit c(3);
  c.ccx(0, 1, 2);
  qfs::Rng rng(12);
  MappingResult r = map_circuit(c, d, rng);
  EXPECT_TRUE(d.gateset().supports_circuit(r.mapped));
  EXPECT_TRUE(respects_connectivity(r.mapped, d));
  qfs::Rng check(13);
  EXPECT_TRUE(sim::mapping_preserves_semantics(c, r.mapped, r.initial_layout,
                                               r.final_layout, check, 2, 1e-6));
}

TEST(Pipeline, OverheadZeroWhenNoRoutingNeeded) {
  Device d = device::line_device(3);
  Circuit c(3);
  c.cz(0, 1).cz(1, 2);
  qfs::Rng rng(14);
  MappingResult r = map_circuit(c, d, rng);
  EXPECT_EQ(r.swaps_inserted, 0);
  EXPECT_DOUBLE_EQ(r.gate_overhead_pct, 0.0);
  EXPECT_NEAR(r.fidelity_decrease_pct, 0.0, 1e-9);
}

TEST(Pipeline, OverheadPositiveWhenRoutingNeeded) {
  Device d = device::line_device(5);
  Circuit c(5);
  c.cz(0, 4);
  qfs::Rng rng(15);
  MappingResult r = map_circuit(c, d, rng);
  EXPECT_GT(r.swaps_inserted, 0);
  EXPECT_GT(r.gate_overhead_pct, 0.0);
  EXPECT_GT(r.fidelity_decrease_pct, 0.0);
}

TEST(Pipeline, LatencyComputedOnDemand) {
  Device d = device::surface17_device();
  Circuit c = workloads::ghz(6);
  MappingOptions opts;
  opts.compute_latency = true;
  qfs::Rng rng(16);
  MappingResult r = map_circuit(c, d, opts, rng);
  EXPECT_GT(r.latency_before_ns, 0.0);
  EXPECT_GE(r.latency_after_ns, r.latency_before_ns);
}

TEST(Pipeline, AlternativeStrategiesProduceValidResults) {
  Device d = device::surface17_device();
  qfs::Rng gen(17);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 8;
  spec.num_gates = 60;
  spec.two_qubit_fraction = 0.4;
  Circuit c = workloads::random_circuit(spec, gen);
  for (const std::string placer : {"trivial", "degree-match", "annealing"}) {
    for (const std::string router : {"trivial", "lookahead", "noise-aware"}) {
      MappingOptions opts;
      opts.placer = placer;
      opts.router = router;
      qfs::Rng rng(18);
      MappingResult r = map_circuit(c, d, opts, rng);
      EXPECT_TRUE(respects_connectivity(r.mapped, d))
          << placer << "+" << router;
      EXPECT_TRUE(d.gateset().supports_circuit(r.mapped))
          << placer << "+" << router;
    }
  }
}

// Exhaustive device x router invariant sweep: every combination must yield
// a native, connectivity-compliant circuit.
class DeviceRouterGrid
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(DeviceRouterGrid, PipelineInvariantsHold) {
  auto [device_id, router] = GetParam();
  Device d;
  switch (device_id) {
    case 0: d = device::surface17_device(); break;
    case 1: d = device::heavy_hex27_device(); break;
    case 2: d = device::grid_device(4, 5); break;
    default: d = device::line_device(20); break;
  }
  qfs::Rng gen(71);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 10;
  spec.num_gates = 50;
  spec.two_qubit_fraction = 0.4;
  Circuit c = workloads::random_circuit(spec, gen);
  MappingOptions opts;
  opts.router = router;
  qfs::Rng rng(72);
  MappingResult r = map_circuit(c, d, opts, rng);
  EXPECT_TRUE(respects_connectivity(r.mapped, d));
  EXPECT_TRUE(d.gateset().supports_circuit(r.mapped));
  EXPECT_GE(r.gates_after, r.gates_before);
  EXPECT_LE(r.log_fidelity_after, r.log_fidelity_before + 1e-9);
  // Layout maps stay injective.
  std::set<int> init(r.initial_layout.begin(), r.initial_layout.end());
  std::set<int> fin(r.final_layout.begin(), r.final_layout.end());
  EXPECT_EQ(init.size(), r.initial_layout.size());
  EXPECT_EQ(fin.size(), r.final_layout.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DeviceRouterGrid,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values("trivial", "lookahead", "noise-aware",
                                         "bridge")));

TEST(Recommend, SparseLowDegreeGetsSubgraph) {
  Circuit c = workloads::ghz(12);  // path interaction graph
  auto rec = recommend_mapping(profile::profile_circuit(c));
  EXPECT_EQ(rec.options.placer, "subgraph");
  EXPECT_EQ(rec.options.router, "lookahead");
  EXPECT_NE(rec.rationale.find("embedding"), std::string::npos);
}

TEST(Recommend, DenseUniformGetsDegreeMatch) {
  Circuit c = workloads::qft(8);  // complete, near-uniform interaction graph
  auto rec = recommend_mapping(profile::profile_circuit(c));
  EXPECT_EQ(rec.options.placer, "degree-match");
}

TEST(Recommend, ConcentratedWeightsGetAnnealing) {
  // One dominant pair amid light background interactions on a dense graph.
  Circuit c(6);
  for (int i = 0; i < 60; ++i) c.cx(0, 1);
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) c.cz(a, b);
  }
  auto p = profile::profile_circuit(c);
  ASSERT_GT(p.max_degree, 4);  // not embeddable
  auto rec = recommend_mapping(p);
  EXPECT_EQ(rec.options.placer, "annealing");
}

TEST(Recommend, RecommendationImprovesOnBaseline) {
  Device d = device::surface97_device();
  Circuit c = workloads::ghz(24);
  auto rec = recommend_mapping(profile::profile_circuit(c));
  qfs::Rng r1(1), r2(1);
  auto baseline = map_circuit(c, d, r1);
  auto tuned = map_circuit(c, d, rec.options, r2);
  EXPECT_LT(tuned.swaps_inserted, baseline.swaps_inserted);
  EXPECT_EQ(tuned.swaps_inserted, 0);  // GHZ embeds exactly
}

TEST(Recommend, AllRecommendationsAreRunnable) {
  Device d = device::surface17_device();
  qfs::Rng gen(80);
  for (int trial = 0; trial < 5; ++trial) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 8;
    spec.num_gates = 60;
    spec.two_qubit_fraction = 0.2 + 0.15 * trial;
    Circuit c = workloads::random_circuit(spec, gen);
    auto rec = recommend_mapping(profile::profile_circuit(c));
    qfs::Rng rng(trial);
    MappingResult r = map_circuit(c, d, rec.options, rng);
    EXPECT_TRUE(respects_connectivity(r.mapped, d)) << rec.options.placer;
  }
}

TEST(Pipeline, DeterministicForFixedSeed) {
  Device d = device::surface17_device();
  Circuit c = workloads::qft(5);
  MappingOptions opts;
  opts.placer = "annealing";
  opts.router = "lookahead";
  qfs::Rng r1(99), r2(99);
  MappingResult a = map_circuit(c, d, opts, r1);
  MappingResult b = map_circuit(c, d, opts, r2);
  EXPECT_EQ(a.mapped, b.mapped);
  EXPECT_EQ(a.initial_layout, b.initial_layout);
  EXPECT_EQ(a.swaps_inserted, b.swaps_inserted);
}

TEST(Pipeline, IbmDeviceEndToEnd) {
  Device d = device::heavy_hex27_device();
  Circuit c = workloads::qft(6);
  qfs::Rng rng(20);
  MappingResult r = map_circuit(c, d, rng);
  EXPECT_TRUE(d.gateset().supports_circuit(r.mapped));
  EXPECT_TRUE(respects_connectivity(r.mapped, d));
}

}  // namespace
}  // namespace qfs::mapper

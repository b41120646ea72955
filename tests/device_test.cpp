#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "device/calibration.h"
#include "device/device.h"
#include "device/fidelity.h"
#include "device/synthesis.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "mapper/pipeline.h"
#include "profile/interaction.h"
#include "workloads/algorithms.h"

namespace qfs::device {
namespace {

using circuit::Circuit;
using circuit::GateKind;

// ---------------------------------------------------------------------------
// Gate sets
// ---------------------------------------------------------------------------

TEST(GateSet, SurfaceCodeSupportsItsPrimitives) {
  GateSet gs = surface_code_gateset();
  EXPECT_TRUE(gs.supports(GateKind::kCz));
  EXPECT_TRUE(gs.supports(GateKind::kRx));
  EXPECT_TRUE(gs.supports(GateKind::kRy));
  EXPECT_FALSE(gs.supports(GateKind::kCx));
  EXPECT_FALSE(gs.supports(GateKind::kH));
  EXPECT_FALSE(gs.supports(GateKind::kCcx));
}

TEST(GateSet, NonUnitariesAlwaysSupported) {
  GateSet gs = surface_code_gateset();
  EXPECT_TRUE(gs.supports(GateKind::kMeasure));
  EXPECT_TRUE(gs.supports(GateKind::kReset));
  EXPECT_TRUE(gs.supports(GateKind::kBarrier));
}

TEST(GateSet, IbmBasis) {
  GateSet gs = ibm_gateset();
  EXPECT_TRUE(gs.supports(GateKind::kCx));
  EXPECT_TRUE(gs.supports(GateKind::kSx));
  EXPECT_TRUE(gs.supports(GateKind::kRz));
  EXPECT_FALSE(gs.supports(GateKind::kCz));
  EXPECT_FALSE(gs.supports(GateKind::kRy));
}

TEST(GateSet, UniversalSupportsEverythingUnitary) {
  GateSet gs = universal_gateset();
  for (int k = 0; k < circuit::kNumGateKinds; ++k) {
    EXPECT_TRUE(gs.supports(static_cast<GateKind>(k)));
  }
}

TEST(GateSet, SupportsMatchesItsKinds) {
  // A default-constructed set and a hand-built one alongside every factory.
  for (const GateSet& gs :
       {surface_code_gateset(), ibm_gateset(), sycamore_gateset(),
        ion_trap_gateset(), rydberg_gateset(), universal_gateset(), GateSet(),
        GateSet("mixed", {GateKind::kH, GateKind::kMeasure, GateKind::kCcz})}) {
    for (int k = 0; k < circuit::kNumGateKinds; ++k) {
      const auto kind = static_cast<GateKind>(k);
      EXPECT_EQ(gs.supports(kind),
                !circuit::is_unitary(kind) || gs.kinds().count(kind) != 0)
          << gs.name() << " " << circuit::gate_name(kind);
    }
  }
}

TEST(GateSet, SupportsCircuit) {
  GateSet gs = surface_code_gateset();
  Circuit native(2);
  native.rx(0.1, 0).cz(0, 1).measure(1);
  EXPECT_TRUE(gs.supports_circuit(native));
  Circuit foreign(2);
  foreign.h(0);
  EXPECT_FALSE(gs.supports_circuit(foreign));
}

// ---------------------------------------------------------------------------
// Error model
// ---------------------------------------------------------------------------

TEST(ErrorModel, Defaults) {
  ErrorModel em;
  EXPECT_DOUBLE_EQ(em.single_qubit_fidelity(), 0.999);
  EXPECT_DOUBLE_EQ(em.two_qubit_fidelity(), 0.99);
  EXPECT_DOUBLE_EQ(em.measurement_fidelity(), 0.997);
}

TEST(ErrorModel, BadFidelityIsContractViolation) {
  EXPECT_THROW(ErrorModel(0.0, 0.9, 0.9), AssertionError);
  EXPECT_THROW(ErrorModel(0.9, 1.5, 0.9), AssertionError);
}

TEST(ErrorModel, PerQubitOverride) {
  ErrorModel em;
  em.set_qubit_fidelity(3, 0.9);
  EXPECT_DOUBLE_EQ(em.qubit_fidelity(3), 0.9);
  EXPECT_DOUBLE_EQ(em.qubit_fidelity(0), 0.999);
}

TEST(ErrorModel, EdgeOverrideOrderInsensitive) {
  ErrorModel em;
  em.set_edge_fidelity(2, 5, 0.95);
  EXPECT_DOUBLE_EQ(em.edge_fidelity(5, 2), 0.95);
  EXPECT_DOUBLE_EQ(em.edge_fidelity(2, 5), 0.95);
  EXPECT_DOUBLE_EQ(em.edge_fidelity(0, 1), 0.99);
}

TEST(ErrorModel, GateFidelityByKind) {
  ErrorModel em;
  EXPECT_DOUBLE_EQ(em.gate_fidelity(circuit::make_gate(GateKind::kH, {0})),
                   0.999);
  EXPECT_DOUBLE_EQ(em.gate_fidelity(circuit::make_gate(GateKind::kCz, {0, 1})),
                   0.99);
  EXPECT_DOUBLE_EQ(
      em.gate_fidelity(circuit::make_gate(GateKind::kMeasure, {0})), 0.997);
  EXPECT_DOUBLE_EQ(
      em.gate_fidelity(circuit::make_gate(GateKind::kBarrier, {0})), 1.0);
}

TEST(ErrorModel, ThreeQubitGateFidelityIsContractViolation) {
  ErrorModel em;
  EXPECT_THROW(em.gate_fidelity(circuit::make_gate(GateKind::kCcx, {0, 1, 2})),
               AssertionError);
}

TEST(ErrorModel, Durations) {
  ErrorModel em;
  EXPECT_DOUBLE_EQ(em.gate_duration_ns(GateKind::kH), 20.0);
  EXPECT_DOUBLE_EQ(em.gate_duration_ns(GateKind::kCz), 40.0);
  EXPECT_DOUBLE_EQ(em.gate_duration_ns(GateKind::kMeasure), 600.0);
  EXPECT_DOUBLE_EQ(em.gate_duration_ns(GateKind::kBarrier), 0.0);
}

TEST(ErrorModel, RandomizeBoundsJitter) {
  ErrorModel em;
  qfs::Rng rng(5);
  std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}};
  em.randomize(3, edges, 0.05, rng);
  for (int q = 0; q < 3; ++q) {
    EXPECT_GE(em.qubit_fidelity(q), 0.999 * 0.95);
    EXPECT_LE(em.qubit_fidelity(q), 1.0);
  }
  EXPECT_NE(em.edge_fidelity(0, 1), em.edge_fidelity(1, 2));
}

// ---------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------

TEST(Topology, Surface7CanonicalEdges) {
  Topology t = surface7();
  EXPECT_EQ(t.num_qubits(), 7);
  EXPECT_EQ(t.coupling().num_edges(), 8);
  // Fig. 2 chip: Q3 is the degree-4 centre.
  EXPECT_EQ(t.coupling().degree(3), 4);
  EXPECT_TRUE(t.adjacent(0, 2));
  EXPECT_TRUE(t.adjacent(0, 3));
  EXPECT_TRUE(t.adjacent(4, 6));
  EXPECT_FALSE(t.adjacent(0, 1));
  EXPECT_FALSE(t.adjacent(2, 4));
}

TEST(Topology, Surface17Shape) {
  Topology t = surface17();
  EXPECT_EQ(t.num_qubits(), 17);
  EXPECT_EQ(t.coupling().num_edges(), 24);
  auto deg = graph::degree_stats(t.coupling());
  EXPECT_EQ(deg.max, 4);
  EXPECT_GE(deg.min, 2);
  EXPECT_TRUE(graph::is_connected(t.coupling()));
}

TEST(Topology, Surface97Shape) {
  Topology t = surface97();
  EXPECT_EQ(t.num_qubits(), 97);
  auto deg = graph::degree_stats(t.coupling());
  EXPECT_EQ(deg.max, 4);  // surface lattices are degree-4 bounded
  EXPECT_TRUE(graph::is_connected(t.coupling()));
}

TEST(Topology, SurfaceLatticeQubitCountFormula) {
  // narrow d-1 over 2d+1 rows gives 2d^2-1 qubits.
  for (int d = 2; d <= 8; ++d) {
    Topology t = surface_lattice(d - 1, 2 * d + 1);
    EXPECT_EQ(t.num_qubits(), 2 * d * d - 1) << "d=" << d;
    EXPECT_TRUE(graph::is_connected(t.coupling()));
  }
}

TEST(Topology, SurfaceLatticeRowValidation) {
  EXPECT_THROW(surface_lattice(2, 4), AssertionError);  // even row count
  EXPECT_THROW(surface_lattice(2, 1), AssertionError);  // too few rows
  EXPECT_THROW(surface_lattice(0, 3), AssertionError);
}

TEST(Topology, DistancePrecomputed) {
  Topology t = surface7();
  EXPECT_EQ(t.distance(0, 0), 0);
  EXPECT_EQ(t.distance(0, 2), 1);
  EXPECT_EQ(t.distance(0, 6), 2);
  // Q2 and Q4 sit on opposite ends of the middle row; every route detours
  // through both outer rows.
  EXPECT_EQ(t.distance(2, 4), 4);
}

TEST(Topology, ShortestPathValid) {
  Topology t = surface17();
  auto p = t.shortest_path(0, 16);
  EXPECT_EQ(p.front(), 0);
  EXPECT_EQ(p.back(), 16);
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    EXPECT_TRUE(t.adjacent(p[i], p[i + 1]));
  }
  EXPECT_EQ(static_cast<int>(p.size()) - 1, t.distance(0, 16));
}

TEST(Topology, SimpleGeometries) {
  EXPECT_EQ(line_topology(5).coupling().num_edges(), 4);
  EXPECT_EQ(ring_topology(5).coupling().num_edges(), 5);
  EXPECT_EQ(grid_topology(2, 3).coupling().num_edges(), 7);
  EXPECT_EQ(star_topology(5).coupling().num_edges(), 4);
  EXPECT_EQ(fully_connected_topology(5).coupling().num_edges(), 10);
}

TEST(Topology, HeavyHexLatticeProperties) {
  Topology t = heavy_hex_lattice(3, 9);
  // 3 rows of 9 plus bridges: rows 0-1 at c=0,4,8 (3), rows 1-2 at c=2,6 (2).
  EXPECT_EQ(t.num_qubits(), 27 + 5);
  EXPECT_TRUE(graph::is_connected(t.coupling()));
  auto deg = graph::degree_stats(t.coupling());
  EXPECT_LE(deg.max, 3);  // the heavy-hex property
}

TEST(Topology, HeavyHexLatticeBridgesAreDegreeTwo) {
  Topology t = heavy_hex_lattice(2, 5);
  // Bridge qubits are appended after the 2*5 row qubits.
  for (int q = 10; q < t.num_qubits(); ++q) {
    EXPECT_EQ(t.coupling().degree(q), 2);
  }
}

TEST(Topology, HeavyHexLatticeValidation) {
  EXPECT_THROW(heavy_hex_lattice(0, 5), AssertionError);
  EXPECT_THROW(heavy_hex_lattice(2, 4), AssertionError);   // cols % 4 != 1
  EXPECT_THROW(heavy_hex_lattice(2, 2), AssertionError);   // too narrow
}

TEST(Topology, HeavyHex27) {
  Topology t = heavy_hex27();
  EXPECT_EQ(t.num_qubits(), 27);
  EXPECT_EQ(t.coupling().num_edges(), 28);
  EXPECT_TRUE(graph::is_connected(t.coupling()));
  auto deg = graph::degree_stats(t.coupling());
  EXPECT_LE(deg.max, 3);  // heavy-hex property
}

TEST(Topology, EdgeListSortedUnique) {
  auto edges = surface7().edge_list();
  EXPECT_EQ(edges.size(), 8u);
  for (const auto& [a, b] : edges) EXPECT_LT(a, b);
}

// --- Topology::distance contract regressions (see topology.h) ---

TEST(Topology, DistanceOutOfRangeIsContractViolation) {
  Topology t = surface7();
  EXPECT_THROW(t.distance(-1, 0), AssertionError);
  EXPECT_THROW(t.distance(0, -1), AssertionError);
  EXPECT_THROW(t.distance(7, 0), AssertionError);
  EXPECT_THROW(t.distance(0, 7), AssertionError);
  EXPECT_THROW(t.reachable(-1, 0), AssertionError);
}

TEST(Topology, DistanceDisconnectedPairThrowsReachableDoesNot) {
  // Two islands: 0-1 and 2-3.
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  Topology t("two-islands", std::move(g));
  EXPECT_FALSE(t.connected());
  // Within an island the table still answers.
  EXPECT_EQ(t.distance(0, 1), 1);
  EXPECT_EQ(t.distance(2, 3), 1);
  // Across islands: distance() is a contract violation, reachable() is the
  // non-throwing query callers on degraded chips use instead.
  EXPECT_THROW(t.distance(0, 2), AssertionError);
  EXPECT_TRUE(t.reachable(0, 1));
  EXPECT_FALSE(t.reachable(0, 2));
}

TEST(Topology, FlatTableMatchesCheckedDistance) {
  Topology t = surface17();
  EXPECT_TRUE(t.connected());
  for (int a = 0; a < t.num_qubits(); ++a) {
    for (int b = 0; b < t.num_qubits(); ++b) {
      EXPECT_EQ(t.distance(a, b), t.distance_unchecked(a, b));
    }
  }
}

TEST(Topology, TablesSharedAcrossCopiesNotRecomputed) {
  Topology t = surface97();
  Topology copy = t;
  // Copies share the same table allocation (pointer equality): a Device
  // copied into a compile_resilient fallback attempt reuses the tables
  // instead of recomputing the all-pairs BFS.
  EXPECT_EQ(t.tables(), copy.tables());
  // The cached edge list is one buffer too, not a fresh vector per call.
  EXPECT_EQ(&t.edge_list(), &t.edge_list());
  EXPECT_EQ(&t.edge_list(), &copy.edge_list());
}

TEST(Topology, CsrNeighborsMatchCouplingGraph) {
  Topology t = surface17();
  const TopologyTables* tables = t.tables();
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->nbr_offsets.size(),
            static_cast<std::size_t>(t.num_qubits()) + 1);
  for (int q = 0; q < t.num_qubits(); ++q) {
    std::vector<int> expected;
    for (const auto& [v, w] : t.coupling().neighbors(q)) expected.push_back(v);
    std::vector<int> actual(
        tables->nbr.begin() + tables->nbr_offsets[static_cast<std::size_t>(q)],
        tables->nbr.begin() +
            tables->nbr_offsets[static_cast<std::size_t>(q) + 1]);
    EXPECT_EQ(actual, expected);
    EXPECT_TRUE(std::is_sorted(actual.begin(), actual.end()));
  }
  // Each CSR slot names its coupler's index in the lexicographic list.
  ASSERT_EQ(tables->nbr_edge.size(), tables->nbr.size());
  for (int q = 0; q < t.num_qubits(); ++q) {
    for (int k = tables->nbr_offsets[static_cast<std::size_t>(q)];
         k < tables->nbr_offsets[static_cast<std::size_t>(q) + 1]; ++k) {
      int v = tables->nbr[static_cast<std::size_t>(k)];
      EXPECT_EQ(tables->edges[static_cast<std::size_t>(
                    tables->nbr_edge[static_cast<std::size_t>(k)])],
                std::make_pair(std::min(q, v), std::max(q, v)));
    }
  }
}

// ---------------------------------------------------------------------------
// Devices
// ---------------------------------------------------------------------------

TEST(Device, Surface17Bundle) {
  Device d = surface17_device();
  EXPECT_EQ(d.num_qubits(), 17);
  EXPECT_EQ(d.gateset().name(), "surface-code");
  EXPECT_TRUE(d.has_control_groups());
  // Row-cyclic groups: first row (2 qubits) group 0, second row group 1.
  EXPECT_EQ(d.control_group(0), 0);
  EXPECT_EQ(d.control_group(1), 0);
  EXPECT_EQ(d.control_group(2), 1);
}

TEST(Device, ControlGroupQueriesValidated) {
  Device d = heavy_hex27_device();
  EXPECT_FALSE(d.has_control_groups());
  EXPECT_THROW(d.control_group(0), AssertionError);
}

TEST(Device, ControlGroupSizeValidated) {
  Device d = heavy_hex27_device();
  EXPECT_THROW(d.set_control_groups({0, 1}), AssertionError);
}

TEST(Device, FactoryTopologies) {
  EXPECT_EQ(surface7_device().num_qubits(), 7);
  EXPECT_EQ(surface97_device().num_qubits(), 97);
  EXPECT_EQ(line_device(9).num_qubits(), 9);
  EXPECT_EQ(grid_device(4, 5).num_qubits(), 20);
  EXPECT_EQ(fully_connected_device(6).num_qubits(), 6);
}

// ---------------------------------------------------------------------------
// Calibration files
// ---------------------------------------------------------------------------

TEST(Calibration, ParseDefaultsAndOverrides) {
  auto result = parse_calibration(
      "# comment\n"
      "defaults,0.9995,0.992,0.98\n"
      "durations_ns,25,45,500\n"
      "qubit,3,0.95\n"
      "edge,0,2,0.9\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ErrorModel& em = result.value();
  EXPECT_DOUBLE_EQ(em.single_qubit_fidelity(), 0.9995);
  EXPECT_DOUBLE_EQ(em.two_qubit_fidelity(), 0.992);
  EXPECT_DOUBLE_EQ(em.measurement_fidelity(), 0.98);
  EXPECT_DOUBLE_EQ(em.qubit_fidelity(3), 0.95);
  EXPECT_DOUBLE_EQ(em.qubit_fidelity(0), 0.9995);
  EXPECT_DOUBLE_EQ(em.edge_fidelity(2, 0), 0.9);
  EXPECT_DOUBLE_EQ(em.single_qubit_duration_ns(), 25);
}

TEST(Calibration, EmptyTextGivesDefaults) {
  auto result = parse_calibration("");
  ASSERT_TRUE(result.is_ok());
  EXPECT_DOUBLE_EQ(result.value().single_qubit_fidelity(), 0.999);
}

TEST(Calibration, Errors) {
  EXPECT_FALSE(parse_calibration("bogus,1,2\n").is_ok());
  EXPECT_FALSE(parse_calibration("qubit,notanumber,0.9\n").is_ok());
  EXPECT_FALSE(parse_calibration("qubit,1,1.5\n").is_ok());
  EXPECT_FALSE(parse_calibration("edge,1,1,0.9\n").is_ok());
  EXPECT_FALSE(parse_calibration("defaults,0.9\n").is_ok());
  // Error message names the line.
  auto bad = parse_calibration("defaults,0.99,0.99,0.99\nwrong,1\n");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(Calibration, RejectsNonFiniteFidelities) {
  // parse_double accepts "nan"/"inf" spellings; the validator must not.
  for (const char* v : {"nan", "inf", "-inf", "NaN"}) {
    auto r = parse_calibration(std::string("defaults,") + v + ",0.99,0.99\n");
    ASSERT_FALSE(r.is_ok()) << v;
    EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
  }
  EXPECT_FALSE(parse_calibration("qubit,0,inf\n").is_ok());
  EXPECT_FALSE(parse_calibration("edge,0,1,nan\n").is_ok());
}

TEST(Calibration, RejectsOutOfUnitIntervalFidelities) {
  EXPECT_FALSE(parse_calibration("qubit,0,0\n").is_ok());
  EXPECT_FALSE(parse_calibration("qubit,0,-0.5\n").is_ok());
  EXPECT_FALSE(parse_calibration("qubit,0,1.0001\n").is_ok());
  EXPECT_TRUE(parse_calibration("qubit,0,1.0\n").is_ok());
}

TEST(Calibration, RejectsBadDurations) {
  for (const char* row : {"durations_ns,0,40,600", "durations_ns,-20,40,600",
                          "durations_ns,nan,40,600", "durations_ns,20,inf,600"}) {
    auto r = parse_calibration(std::string(row) + "\n");
    ASSERT_FALSE(r.is_ok()) << row;
    EXPECT_NE(r.status().message().find("line 1"), std::string::npos) << row;
  }
}

TEST(Calibration, RejectsDuplicateRecords) {
  auto dup_qubit = parse_calibration("qubit,2,0.9\nqubit,2,0.8\n");
  ASSERT_FALSE(dup_qubit.is_ok());
  EXPECT_NE(dup_qubit.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(dup_qubit.status().message().find("duplicate"), std::string::npos);
  // Edges are order-insensitive: 1,0 duplicates 0,1.
  auto dup_edge = parse_calibration("edge,0,1,0.9\nedge,1,0,0.8\n");
  ASSERT_FALSE(dup_edge.is_ok());
  EXPECT_NE(dup_edge.status().message().find("line 2"), std::string::npos);
}

TEST(Calibration, RejectsOutOfRangeIdsWhenChipSizeKnown) {
  auto q = parse_calibration("qubit,5,0.9\n", /*num_qubits=*/5);
  ASSERT_FALSE(q.is_ok());
  EXPECT_NE(q.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(q.status().message().find("out of range"), std::string::npos);
  auto e = parse_calibration("edge,0,7,0.9\n", /*num_qubits=*/5);
  ASSERT_FALSE(e.is_ok());
  EXPECT_NE(e.status().message().find("out of range"), std::string::npos);
  // Without a chip size the same rows parse (back-compat path).
  EXPECT_TRUE(parse_calibration("qubit,5,0.9\n").is_ok());
}

TEST(TopologyFileErrors, EveryRejectionCarriesALineNumber) {
  const char* cases[] = {
      "name\n",                         // name needs one value
      "qubits,0\n",                     // bad qubit count
      "qubits,2\nedge,0,2\n",           // endpoint out of range
      "edge,0,1\n",                     // edge before qubits record
      "qubits,2\nedge,0,0\n",           // self-loop
      "qubits,2\nwormhole,0,1\n",       // unknown record
  };
  for (const char* text : cases) {
    auto r = parse_topology(text);
    ASSERT_FALSE(r.is_ok()) << text;
    EXPECT_NE(r.status().message().find("line "), std::string::npos) << text;
  }
}

TEST(Calibration, RoundTrip) {
  // Every record kind README documents, with comments and blank lines.
  const char* text =
      "# hand-tuned chip\n"
      "defaults,0.998,0.97,0.96\n"
      "\n"
      "durations_ns,30,50,400   # single, two, measure\n"
      "coherence_ns,15000,9000\n"
      "qubit,1,0.91\n"
      "edge,1,0,0.88\n";
  auto back = parse_calibration(text, /*num_qubits=*/3);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  const ErrorModel& em = back.value();
  EXPECT_DOUBLE_EQ(em.single_qubit_fidelity(), 0.998);
  EXPECT_DOUBLE_EQ(em.measurement_fidelity(), 0.96);
  EXPECT_DOUBLE_EQ(em.qubit_fidelity(1), 0.91);
  EXPECT_DOUBLE_EQ(em.qubit_fidelity(2), 0.998);
  EXPECT_DOUBLE_EQ(em.edge_fidelity(0, 1), 0.88);
  EXPECT_DOUBLE_EQ(em.edge_fidelity(1, 2), 0.97);
  EXPECT_DOUBLE_EQ(em.single_qubit_duration_ns(), 30);
  EXPECT_DOUBLE_EQ(em.two_qubit_duration_ns(), 50);
  EXPECT_DOUBLE_EQ(em.measurement_duration_ns(), 400);
  EXPECT_DOUBLE_EQ(em.t1_ns(), 15000);
  EXPECT_DOUBLE_EQ(em.t2_ns(), 9000);
}

// ---------------------------------------------------------------------------
// Topology synthesis
// ---------------------------------------------------------------------------

TEST(Synthesis, HeaviestInteractionsBecomeCouplers) {
  graph::Graph ig(4);
  ig.add_edge(0, 1, 100.0);
  ig.add_edge(2, 3, 50.0);
  ig.add_edge(0, 2, 1.0);
  Topology t = synthesize_topology(ig);
  EXPECT_TRUE(t.adjacent(0, 1));
  EXPECT_TRUE(t.adjacent(2, 3));
  EXPECT_TRUE(graph::is_connected(t.coupling()));
}

TEST(Synthesis, RespectsDegreeBudget) {
  // A star interaction: centre wants degree 7 but the budget is 3.
  graph::Graph ig = graph::star_graph(8);
  SynthesisOptions opts;
  opts.max_degree = 3;
  Topology t = synthesize_topology(ig, opts);
  auto deg = graph::degree_stats(t.coupling());
  EXPECT_LE(deg.max, 3);
  EXPECT_TRUE(graph::is_connected(t.coupling()));
}

TEST(Synthesis, IsolatedQubitsGetStitched) {
  graph::Graph ig(5);
  ig.add_edge(0, 1, 2.0);  // qubits 2..4 never interact
  Topology t = synthesize_topology(ig);
  EXPECT_TRUE(graph::is_connected(t.coupling()));
  EXPECT_EQ(t.num_qubits(), 5);
}

TEST(Synthesis, PerfectEmbeddingForLowDegreeGraphs) {
  // A ring interaction fits entirely within degree 4: the synthesized chip
  // realises every interaction directly (zero routing needed).
  graph::Graph ring = graph::cycle_graph(10);
  Topology t = synthesize_topology(ring);
  for (const auto& e : ring.edges()) {
    EXPECT_TRUE(t.adjacent(e.u, e.v));
  }
}

TEST(Synthesis, Validation) {
  graph::Graph ig(2);
  SynthesisOptions opts;
  opts.max_degree = 1;
  EXPECT_THROW(synthesize_topology(ig, opts), AssertionError);
  EXPECT_THROW(synthesize_topology(graph::Graph(0)), AssertionError);
}

TEST(Synthesis, SynthesizedChipBeatsGenericForItsWorkload) {
  // The end-to-end claim: a chip synthesised from a QAOA instance's
  // interaction graph maps that instance with (near-)zero overhead.
  qfs::Rng rng(5);
  graph::Graph problem = graph::cycle_graph(12);
  circuit::Circuit qaoa = qfs::workloads::qaoa_maxcut(problem, 2, rng);
  graph::Graph ig = qfs::profile::interaction_graph(qaoa);
  Topology topo = synthesize_topology(ig);
  Device chip("synth", std::move(topo), surface_code_gateset(), ErrorModel());
  qfs::Rng map_rng(6);
  auto r = qfs::mapper::map_circuit(qaoa, chip, map_rng);
  EXPECT_EQ(r.swaps_inserted, 0);
  EXPECT_DOUBLE_EQ(r.gate_overhead_pct, 0.0);
}

// ---------------------------------------------------------------------------
// Topology files
// ---------------------------------------------------------------------------

TEST(TopologyFile, ParseBasic) {
  auto result = parse_topology(
      "# my chip\n"
      "name,demo-chip\n"
      "qubits,4\n"
      "edge,0,1\n"
      "edge,1,2\n"
      "edge,2,3\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const Topology& t = result.value();
  EXPECT_EQ(t.name(), "demo-chip");
  EXPECT_EQ(t.num_qubits(), 4);
  EXPECT_TRUE(t.adjacent(1, 2));
  EXPECT_EQ(t.distance(0, 3), 3);
}

TEST(TopologyFile, DefaultsNameAndDedupesEdges) {
  auto result = parse_topology("qubits,2\nedge,0,1\nedge,1,0\n");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().name(), "custom");
  EXPECT_EQ(result.value().coupling().num_edges(), 1);
}

TEST(TopologyFile, Errors) {
  EXPECT_FALSE(parse_topology("").is_ok());                      // no qubits
  EXPECT_FALSE(parse_topology("qubits,0\n").is_ok());            // bad count
  EXPECT_FALSE(parse_topology("qubits,3\nedge,0,5\n").is_ok());  // out of range
  EXPECT_FALSE(parse_topology("qubits,3\nedge,1,1\n").is_ok());  // self loop
  EXPECT_FALSE(parse_topology("qubits,3\nedge,0,1\n").is_ok());  // disconnected
  EXPECT_FALSE(parse_topology("qubits,2\nwat,1\n").is_ok());     // unknown kind
}

TEST(TopologyFile, RoundTrip) {
  // Surface-7 written out in the description format parses back to the
  // built-in chip.
  Topology original = surface7();
  auto back = parse_topology(
      "# qfs topology\n"
      "name,surface-7\n"
      "qubits,7\n"
      "edge,0,2\nedge,0,3\nedge,1,3\nedge,1,4\n"
      "edge,2,5\nedge,3,5\nedge,3,6\nedge,4,6\n");
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().name(), original.name());
  EXPECT_EQ(back.value().num_qubits(), original.num_qubits());
  EXPECT_EQ(back.value().edge_list(), original.edge_list());
}

// ---------------------------------------------------------------------------
// Fidelity estimation
// ---------------------------------------------------------------------------

TEST(Fidelity, ProductOverGates) {
  Device d = surface7_device();
  Circuit c(3);
  c.rx(0.5, 0).cz(0, 2).ry(0.2, 1);
  // 2 single-qubit + 1 two-qubit.
  double expected = 0.999 * 0.999 * 0.99;
  EXPECT_NEAR(estimate_gate_fidelity(c, d), expected, 1e-12);
}

TEST(Fidelity, MeasurementsExcludedFromGateFidelity) {
  Device d = surface7_device();
  Circuit c(1);
  c.rx(0.5, 0).measure(0);
  EXPECT_NEAR(estimate_gate_fidelity(c, d), 0.999, 1e-12);
}

TEST(Fidelity, EmptyCircuitIsPerfect) {
  Device d = surface7_device();
  EXPECT_DOUBLE_EQ(estimate_gate_fidelity(Circuit(3), d), 1.0);
}

TEST(Fidelity, LogFidelityMatchesLogOfProduct) {
  Device d = surface17_device();
  Circuit c(4);
  for (int i = 0; i < 10; ++i) c.cz(i % 3, (i % 3) + 1);
  EXPECT_NEAR(estimate_log_gate_fidelity(c, d),
              std::log(estimate_gate_fidelity(c, d)), 1e-9);
}

TEST(Fidelity, LogFidelitySafeForHugeCircuits) {
  Device d = surface97_device();
  Circuit c(2);
  for (int i = 0; i < 100000; ++i) c.cz(0, 1);
  double log_f = estimate_log_gate_fidelity(c, d);
  EXPECT_NEAR(log_f, 100000 * std::log(0.99), 1e-6);
  EXPECT_DOUBLE_EQ(estimate_gate_fidelity(c, d), 0.0);  // underflow to 0 is fine
}

TEST(Fidelity, MoreGatesLowerFidelity) {
  // The Fig. 3a monotonic relation.
  Device d = surface17_device();
  double prev = 1.0;
  Circuit c(3);
  for (int i = 0; i < 50; ++i) {
    c.cz(0, 1);
    double f = estimate_gate_fidelity(c, d);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST(Fidelity, PerEdgeOverridesAffectEstimate) {
  Device d = surface7_device();
  Circuit c(4);
  c.cz(0, 2);
  double base = estimate_gate_fidelity(c, d);
  d.mutable_error_model().set_edge_fidelity(0, 2, 0.5);
  EXPECT_NEAR(estimate_gate_fidelity(c, d), base * 0.5 / 0.99, 1e-12);
}

}  // namespace
}  // namespace qfs::device

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>

#include "graph/generators.h"
#include "sim/stabilizer.h"
#include "sim/statevector.h"
#include "workloads/algorithms.h"
#include "workloads/random_circuit.h"
#include "workloads/reversible.h"
#include "workloads/suite.h"
#include "workloads/suite_io.h"

namespace qfs::workloads {
namespace {

using circuit::Circuit;
using circuit::GateKind;

std::ptrdiff_t count_kind(const Circuit& c, GateKind kind) {
  return std::count_if(c.gates().begin(), c.gates().end(),
                       [kind](const circuit::Gate& g) { return g.kind == kind; });
}

// ---------------------------------------------------------------------------
// Random circuits
// ---------------------------------------------------------------------------

TEST(RandomCircuit, ExactSizeParameters) {
  qfs::Rng rng(1);
  RandomCircuitSpec spec;
  spec.num_qubits = 7;
  spec.num_gates = 200;
  spec.two_qubit_fraction = 0.35;
  Circuit c = random_circuit(spec, rng);
  EXPECT_EQ(c.num_qubits(), 7);
  EXPECT_EQ(c.gate_count(), 200);
  EXPECT_EQ(c.two_qubit_gate_count(), 70);
}

TEST(RandomCircuit, FractionRounding) {
  qfs::Rng rng(2);
  RandomCircuitSpec spec;
  spec.num_qubits = 4;
  spec.num_gates = 10;
  spec.two_qubit_fraction = 0.26;  // rounds to 3 gates
  Circuit c = random_circuit(spec, rng);
  EXPECT_EQ(c.two_qubit_gate_count(), 3);
}

TEST(RandomCircuit, ZeroAndFullTwoQubitFraction) {
  qfs::Rng rng(3);
  RandomCircuitSpec spec;
  spec.num_qubits = 3;
  spec.num_gates = 20;
  spec.two_qubit_fraction = 0.0;
  EXPECT_EQ(random_circuit(spec, rng).two_qubit_gate_count(), 0);
  spec.two_qubit_fraction = 1.0;
  EXPECT_EQ(random_circuit(spec, rng).two_qubit_gate_count(), 20);
}

TEST(RandomCircuit, SingleQubitNeedsNoPairs) {
  qfs::Rng rng(4);
  RandomCircuitSpec spec;
  spec.num_qubits = 1;
  spec.num_gates = 10;
  spec.two_qubit_fraction = 0.0;
  EXPECT_EQ(random_circuit(spec, rng).gate_count(), 10);
  spec.two_qubit_fraction = 0.5;
  EXPECT_THROW(random_circuit(spec, rng), AssertionError);
}

TEST(RandomCircuit, DeterministicPerSeed) {
  RandomCircuitSpec spec;
  spec.num_qubits = 5;
  spec.num_gates = 50;
  spec.two_qubit_fraction = 0.4;
  qfs::Rng a(77), b(77);
  EXPECT_EQ(random_circuit(spec, a), random_circuit(spec, b));
}

// ---------------------------------------------------------------------------
// Real algorithms
// ---------------------------------------------------------------------------

TEST(Ghz, StructureAndState) {
  Circuit c = ghz(4);
  EXPECT_EQ(c.gate_count(), 4);  // 1 H + 3 CX
  sim::StateVector sv(4);
  sv.apply_circuit(c);
  EXPECT_NEAR(sv.probability(0b0000), 0.5, 1e-10);
  EXPECT_NEAR(sv.probability(0b1111), 0.5, 1e-10);
}

TEST(Qft, GateCount) {
  Circuit c = qft(5, false);
  // n H gates + n(n-1)/2 controlled-phase.
  EXPECT_EQ(c.gate_count(), 5 + 10);
  Circuit with_swaps = qft(5, true);
  EXPECT_EQ(with_swaps.gate_count(), 15 + 2);
}

TEST(Qft, MapsBasisStateToUniformAmplitudes) {
  Circuit c = qft(3, true);
  sim::StateVector sv(3);
  sv.apply_circuit(c);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(sv.probability(i), 0.125, 1e-10);
  }
}

TEST(Qft, OnOneStateHasCorrectPhases) {
  // QFT|1> amplitudes: (1/sqrt(8)) * omega^y with omega = e^{2*pi*i/8}.
  // Circuit convention: qubit 0 is the most-significant bit of x and y
  // (the phase ladder starts there), so |x=1> is prepared by flipping
  // qubit n-1 and the output value y is the bit-reversal of the simulator
  // basis index k (simulator indices are LSB-first).
  const int n = 3;
  Circuit prep(n);
  prep.x(n - 1);
  prep.append(qft(n, true));
  sim::StateVector sv(n);
  sv.apply_circuit(prep);
  auto bitrev = [n](std::size_t k) {
    std::size_t y = 0;
    for (int b = 0; b < n; ++b) {
      if ((k >> b) & 1) y |= std::size_t{1} << (n - 1 - b);
    }
    return y;
  };
  for (std::size_t k = 0; k < 8; ++k) {
    double expected = 2.0 * M_PI * static_cast<double>(bitrev(k)) / 8.0;
    double actual = std::arg(sv.amplitude(k)) - std::arg(sv.amplitude(0));
    double diff = std::remainder(actual - expected, 2.0 * M_PI);
    EXPECT_NEAR(diff, 0.0, 1e-9) << "k=" << k;
  }
}

TEST(BernsteinVazirani, RecoversSecret) {
  const int n = 6;
  const std::uint64_t secret = 0b101101;
  Circuit c = bernstein_vazirani(n, secret);
  // Strip measurements for pure-state simulation.
  Circuit unitary(c.num_qubits());
  for (const auto& g : c.gates()) {
    if (g.kind != GateKind::kMeasure) unitary.add(g);
  }
  sim::StateVector sv(c.num_qubits());
  sv.apply_circuit(unitary);
  for (int b = 0; b < n; ++b) {
    double p1 = sv.marginal_one_probability(b);
    if ((secret >> b) & 1) {
      EXPECT_NEAR(p1, 1.0, 1e-9) << "bit " << b;
    } else {
      EXPECT_NEAR(p1, 0.0, 1e-9) << "bit " << b;
    }
  }
}

TEST(Grover, AmplifiesMarkedItem) {
  const int n = 4;
  const std::uint64_t marked = 0b1011;
  Circuit c = grover(n, marked);
  Circuit unitary(c.num_qubits());
  for (const auto& g : c.gates()) {
    if (g.kind != GateKind::kMeasure) unitary.add(g);
  }
  sim::StateVector sv(c.num_qubits());
  sv.apply_circuit(unitary);
  // Marginal over data qubits: ancillas are returned to |0>, so the
  // marked-state probability is concentrated at basis index = marked.
  EXPECT_GT(sv.probability(marked), 0.9);
}

TEST(Grover, ThreeQubitVariantUsesNoAncilla) {
  Circuit c = grover(3, 0b111, 1);
  EXPECT_EQ(c.num_qubits(), 4);  // n + (n-2) = 3 + 1
}

TEST(Grover, ValidatesArguments) {
  EXPECT_THROW(grover(1, 0), AssertionError);
  EXPECT_THROW(grover(3, 8), AssertionError);
}

TEST(CuccaroAdder, AddsCorrectly) {
  const int n = 3;
  Circuit adder = cuccaro_adder(n);
  auto a_bit = [](int i) { return 1 + 2 * i; };
  auto b_bit = [](int i) { return 2 + 2 * i; };
  for (int a = 0; a < 8; ++a) {
    for (int b : {0, 3, 5, 7}) {
      Circuit prep(adder.num_qubits());
      for (int i = 0; i < n; ++i) {
        if ((a >> i) & 1) prep.x(a_bit(i));
        if ((b >> i) & 1) prep.x(b_bit(i));
      }
      prep.append(adder);
      sim::StateVector sv(adder.num_qubits());
      sv.apply_circuit(prep);
      // Read the expected output basis state: b register holds a+b.
      int sum = a + b;
      std::size_t expected = 0;
      for (int i = 0; i < n; ++i) {
        if ((a >> i) & 1) expected |= std::size_t{1} << a_bit(i);
        if ((sum >> i) & 1) expected |= std::size_t{1} << b_bit(i);
      }
      if ((sum >> n) & 1) expected |= std::size_t{1} << (2 * n + 1);
      EXPECT_NEAR(sv.probability(expected), 1.0, 1e-9)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(Qaoa, LayerStructure) {
  qfs::Rng rng(5);
  graph::Graph ring = graph::cycle_graph(5);
  Circuit c = qaoa_maxcut(ring, 3, rng);
  EXPECT_EQ(c.num_qubits(), 5);
  // 5 H + 3 layers * (5 edges * 3 gates + 5 rx) + 5 measure.
  EXPECT_EQ(c.gate_count(), 5 + 3 * (15 + 5) + 5);
  EXPECT_EQ(c.two_qubit_gate_count(), 3 * 2 * 5);
}

TEST(Qaoa, InteractionMatchesProblemGraph) {
  qfs::Rng rng(6);
  graph::Graph star = graph::star_graph(5);
  Circuit c = qaoa_maxcut(star, 2, rng);
  // Interaction edges == problem edges.
  for (int leaf = 1; leaf < 5; ++leaf) {
    EXPECT_GT(c.two_qubit_gate_count(), 0);
  }
}

TEST(Vqe, GateCounts) {
  qfs::Rng rng(7);
  Circuit c = vqe_ansatz(4, 3, rng);
  // 3 layers * (4*2 rotations + 3 cx) + final 4*2 rotations.
  EXPECT_EQ(c.gate_count(), 3 * (8 + 3) + 8);
  EXPECT_EQ(c.two_qubit_gate_count(), 9);
}

TEST(WState, EqualOneHotSuperposition) {
  for (int n : {2, 3, 5}) {
    Circuit c = w_state(n);
    sim::StateVector sv(n);
    sv.apply_circuit(c);
    for (int q = 0; q < n; ++q) {
      EXPECT_NEAR(sv.probability(std::size_t{1} << q), 1.0 / n, 1e-9)
          << "n=" << n << " q=" << q;
    }
    // No amplitude anywhere else.
    EXPECT_NEAR(sv.probability(0), 0.0, 1e-9);
    if (n >= 2) {
      EXPECT_NEAR(sv.probability(0b11), 0.0, 1e-9);
    }
  }
}

TEST(WState, SingleQubitIsX) {
  Circuit c = w_state(1);
  sim::StateVector sv(1);
  sv.apply_circuit(c);
  EXPECT_NEAR(sv.probability(1), 1.0, 1e-12);
}

TEST(PhaseEstimation, RecoversExactPhase) {
  const int t = 4;
  for (std::uint64_t k : {1u, 5u, 11u}) {
    double phase = static_cast<double>(k) / 16.0;
    Circuit c = phase_estimation(t, phase);
    Circuit unitary(c.num_qubits());
    for (const auto& g : c.gates()) {
      if (g.kind != GateKind::kMeasure) unitary.add(g);
    }
    sim::StateVector sv(c.num_qubits());
    sv.apply_circuit(unitary);
    // Counting register (qubits 0..t-1, LSB-first) holds k; eigenstate
    // qubit t stays |1>.
    std::size_t expected = k | (std::size_t{1} << t);
    EXPECT_NEAR(sv.probability(expected), 1.0, 1e-8) << "k=" << k;
  }
}

TEST(DeutschJozsa, ConstantOracleReturnsAllZeros) {
  Circuit c = deutsch_jozsa(5, 0);
  Circuit unitary(c.num_qubits());
  for (const auto& g : c.gates()) {
    if (g.kind != GateKind::kMeasure) unitary.add(g);
  }
  sim::StateVector sv(c.num_qubits());
  sv.apply_circuit(unitary);
  for (int q = 0; q < 5; ++q) {
    EXPECT_NEAR(sv.marginal_one_probability(q), 0.0, 1e-9);
  }
}

TEST(DeutschJozsa, BalancedOracleNeverAllZeros) {
  Circuit c = deutsch_jozsa(5, 0b10110);
  Circuit unitary(c.num_qubits());
  for (const auto& g : c.gates()) {
    if (g.kind != GateKind::kMeasure) unitary.add(g);
  }
  sim::StateVector sv(c.num_qubits());
  sv.apply_circuit(unitary);
  // P(input register all zero) must vanish for a balanced oracle.
  double p_zero = sv.probability(0) + sv.probability(std::size_t{1} << 5);
  EXPECT_NEAR(p_zero, 0.0, 1e-9);
}

TEST(IsingTrotter, StructureAndCounts) {
  Circuit c = ising_trotter(6, 4, 1.0, 0.5, 0.05);
  // Per step: 5 links * 3 gates + 6 rx = 21.
  EXPECT_EQ(c.gate_count(), 4 * 21);
  EXPECT_EQ(c.two_qubit_gate_count(), 4 * 10);
}

TEST(IsingTrotter, ZeroFieldCommutesWithZBasis) {
  // With h = 0 the evolution is diagonal: |00...0> stays put (up to phase).
  Circuit c = ising_trotter(4, 3, 0.8, 0.0, 0.1);
  sim::StateVector sv(4);
  sv.apply_circuit(c);
  EXPECT_NEAR(sv.probability(0), 1.0, 1e-9);
}

TEST(QuantumVolume, LayerCountsAndWidth) {
  qfs::Rng rng(31);
  Circuit c = quantum_volume(6, 5, rng);
  EXPECT_EQ(c.num_qubits(), 6);
  // 3 pairs per layer, 2 cx per pair, 5 layers.
  EXPECT_EQ(c.two_qubit_gate_count(), 30);
}

TEST(QuantumVolume, OddWidthLeavesOneQubitIdle) {
  qfs::Rng rng(33);
  Circuit c = quantum_volume(5, 1, rng);
  EXPECT_EQ(c.two_qubit_gate_count(), 4);  // 2 pairs
}

TEST(MaxCut, CutValueCountsCrossingEdges) {
  graph::Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 3.0);
  // Assignment 0b0101: vertices 0,2 on side 1; edges (0,1),(1,2),(2,3) all
  // crossing -> cut = 6.
  EXPECT_DOUBLE_EQ(maxcut_value(g, 0b0101), 6.0);
  // All same side: cut 0.
  EXPECT_DOUBLE_EQ(maxcut_value(g, 0b0000), 0.0);
  EXPECT_DOUBLE_EQ(maxcut_value(g, 0b1111), 0.0);
  // Only vertex 3 flipped: edge (2,3) crosses -> 3.
  EXPECT_DOUBLE_EQ(maxcut_value(g, 0b1000), 3.0);
}

TEST(MaxCut, OptimumKnownGraphs) {
  // Even ring: all edges can cross (alternate sides).
  EXPECT_DOUBLE_EQ(maxcut_optimum(graph::cycle_graph(6)), 6.0);
  // Odd ring: one edge must stay inside.
  EXPECT_DOUBLE_EQ(maxcut_optimum(graph::cycle_graph(5)), 4.0);
  // Complete graph K4: best split 2/2 cuts 4 of 6 edges.
  EXPECT_DOUBLE_EQ(maxcut_optimum(graph::complete_graph(4)), 4.0);
  // Stars are bipartite: everything cuts.
  EXPECT_DOUBLE_EQ(maxcut_optimum(graph::star_graph(6)), 5.0);
}

TEST(MaxCut, OptimumRespectsWeights) {
  graph::Graph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  // Split {1} vs {0,2}: cuts 10 + 1 = 11.
  EXPECT_DOUBLE_EQ(maxcut_optimum(g), 11.0);
}

TEST(MaxCut, WidthContract) {
  EXPECT_THROW(maxcut_optimum(graph::Graph(25)), AssertionError);
}

TEST(RepetitionCode, StructureAndCounts) {
  Circuit c = repetition_code_cycle(4, 1);
  EXPECT_EQ(c.num_qubits(), 7);  // 4 data + 3 ancilla
  EXPECT_EQ(count_kind(c, GateKind::kCx), 6);
  EXPECT_EQ(count_kind(c, GateKind::kMeasure), 3);
}

TEST(RepetitionCode, MultiRoundResetsAncillas) {
  Circuit c = repetition_code_cycle(3, 3);
  EXPECT_EQ(count_kind(c, GateKind::kCx), 3 * 4);
  EXPECT_EQ(count_kind(c, GateKind::kMeasure), 3 * 2);
  EXPECT_EQ(count_kind(c, GateKind::kReset), 2 * 2);  // between rounds only
}

TEST(RepetitionCode, SyndromeDetectsInjectedBitFlip) {
  // Inject X on data qubit 1 of a 3-qubit code; both adjacent ancillas
  // must fire (parity 1), and with no error none fire.
  using sim::StabilizerState;
  for (int flipped : {-1, 0, 1, 2}) {
    Circuit prep(5);
    if (flipped >= 0) prep.x(flipped);
    // One syndrome round without the measurements (measure via tableau).
    prep.cx(0, 3).cx(1, 3).cx(1, 4).cx(2, 4);
    StabilizerState s(5);
    s.apply_circuit(prep);
    qfs::Rng rng(1);
    bool s0 = s.measure(3, rng);
    bool s1 = s.measure(4, rng);
    bool expect_s0 = flipped == 0 || flipped == 1;
    bool expect_s1 = flipped == 1 || flipped == 2;
    EXPECT_EQ(s0, expect_s0) << "flipped=" << flipped;
    EXPECT_EQ(s1, expect_s1) << "flipped=" << flipped;
  }
}

// ---------------------------------------------------------------------------
// Reversible
// ---------------------------------------------------------------------------

TEST(Reversible, OnlyClassicalReversibleKinds) {
  qfs::Rng rng(8);
  ReversibleSpec spec;
  spec.num_qubits = 6;
  spec.num_gates = 100;
  Circuit c = random_reversible(spec, rng);
  EXPECT_EQ(c.gate_count(), 100);
  for (const auto& g : c.gates()) {
    EXPECT_TRUE(g.kind == GateKind::kX || g.kind == GateKind::kCx ||
                g.kind == GateKind::kCcx);
  }
}

TEST(Reversible, MajorityChainShape) {
  Circuit c = reversible_majority_chain(6);
  EXPECT_EQ(c.gate_count(), 4 * 3);
}

TEST(Reversible, BitReversalPermutesBasis) {
  Circuit c = reversible_bit_reversal(4);
  sim::StateVector sv(4);
  // |0011> -> |1100>.
  Circuit prep(4);
  prep.x(0).x(1);
  prep.append(c);
  sv.apply_circuit(prep);
  EXPECT_NEAR(sv.probability(0b1100), 1.0, 1e-10);
}

// ---------------------------------------------------------------------------
// Suite
// ---------------------------------------------------------------------------

TEST(Suite, DefaultHas200Circuits) {
  qfs::Rng rng(9);
  auto suite = paper_suite(rng);
  EXPECT_EQ(suite.size(), 200u);
}

TEST(Suite, FamiliesAsConfigured) {
  qfs::Rng rng(10);
  SuiteOptions opts;
  opts.random_count = 5;
  opts.real_count = 7;
  opts.reversible_count = 3;
  opts.max_qubits = 20;
  opts.max_gates = 500;
  auto suite = make_suite(opts, rng);
  ASSERT_EQ(suite.size(), 15u);
  int random = 0, real = 0, rev = 0;
  for (const auto& b : suite) {
    switch (b.family) {
      case Family::kRandom: ++random; break;
      case Family::kReal: ++real; break;
      case Family::kReversible: ++rev; break;
    }
  }
  EXPECT_EQ(random, 5);
  EXPECT_EQ(real, 7);
  EXPECT_EQ(rev, 3);
}

TEST(Suite, RespectsSizeBounds) {
  qfs::Rng rng(11);
  SuiteOptions opts;
  opts.random_count = 20;
  opts.real_count = 0;
  opts.reversible_count = 10;
  opts.max_qubits = 12;
  opts.max_gates = 300;
  auto suite = make_suite(opts, rng);
  for (const auto& b : suite) {
    EXPECT_LE(b.circuit.num_qubits(), 12);
    EXPECT_LE(b.circuit.gate_count(), 300);
    EXPECT_GE(b.circuit.gate_count(), 1);
  }
}

TEST(Suite, NamesAreUnique) {
  qfs::Rng rng(12);
  SuiteOptions opts;
  opts.random_count = 10;
  opts.real_count = 10;
  opts.reversible_count = 10;
  opts.max_qubits = 10;
  opts.max_gates = 100;
  auto suite = make_suite(opts, rng);
  std::set<std::string> names;
  for (const auto& b : suite) names.insert(b.name);
  EXPECT_EQ(names.size(), suite.size());
}

TEST(Suite, DeterministicPerSeed) {
  SuiteOptions opts;
  opts.random_count = 5;
  opts.real_count = 5;
  opts.reversible_count = 5;
  opts.max_qubits = 10;
  opts.max_gates = 100;
  qfs::Rng a(13), b(13);
  auto s1 = make_suite(opts, a);
  auto s2 = make_suite(opts, b);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].circuit, s2[i].circuit);
  }
}

TEST(SuiteIo, WriteAndLoadRoundTrip) {
  qfs::Rng rng(15);
  SuiteOptions opts;
  opts.random_count = 3;
  opts.real_count = 3;
  opts.reversible_count = 2;
  opts.max_qubits = 8;
  opts.max_gates = 60;
  auto suite = make_suite(opts, rng);

  std::string dir = ::testing::TempDir() + "/qfs_suite_io";
  auto status = write_suite_to_directory(suite, dir);
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  auto loaded = load_suite_from_directory(dir);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded.value().size(), suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& orig = suite[i];
    const auto& back = loaded.value()[i];
    EXPECT_EQ(back.name, orig.name);
    EXPECT_EQ(back.family, orig.family);
    EXPECT_EQ(back.circuit.num_qubits(), orig.circuit.num_qubits());
    // QASM round-trip preserves counts (ccz expands, so compare loosely).
    EXPECT_GE(back.circuit.gate_count(), orig.circuit.gate_count());
  }
}

TEST(SuiteIo, LoadCircuitFile) {
  std::string dir = ::testing::TempDir() + "/qfs_single";
  std::filesystem::create_directories(dir);
  std::string path = dir + "/bell.qasm";
  {
    std::ofstream out(path);
    out << "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";
  }
  auto circuit = load_circuit_file(path);
  ASSERT_TRUE(circuit.is_ok()) << circuit.status().to_string();
  EXPECT_EQ(circuit.value().name(), "bell");
  EXPECT_EQ(circuit.value().gate_count(), 2);
}

TEST(SuiteIo, MissingDirectoryFails) {
  EXPECT_FALSE(load_suite_from_directory("/nonexistent/qfs").is_ok());
  EXPECT_FALSE(load_circuit_file("/nonexistent/x.qasm").is_ok());
}

TEST(Suite, FamilyNames) {
  EXPECT_STREQ(family_name(Family::kRandom), "random");
  EXPECT_STREQ(family_name(Family::kReal), "real");
  EXPECT_STREQ(family_name(Family::kReversible), "reversible");
}

}  // namespace
}  // namespace qfs::workloads

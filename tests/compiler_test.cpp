#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/checkers.h"
#include "compiler/decompose.h"
#include "compiler/euler.h"
#include "compiler/optimize.h"
#include "compiler/pass_manager.h"
#include "device/device.h"
#include "sim/equivalence.h"
#include "support/rng.h"
#include "workloads/random_circuit.h"

namespace qfs::compiler {
namespace {

using circuit::Circuit;
using circuit::CMatrix;
using circuit::GateKind;

// ---------------------------------------------------------------------------
// ZYZ Euler decomposition
// ---------------------------------------------------------------------------

CMatrix rebuild_from_zyz(const ZyzAngles& a) {
  using circuit::make_gate;
  CMatrix rz_phi = circuit::gate_matrix(make_gate(GateKind::kRz, {0}, {a.phi}));
  CMatrix ry = circuit::gate_matrix(make_gate(GateKind::kRy, {0}, {a.theta}));
  CMatrix rz_lam = circuit::gate_matrix(make_gate(GateKind::kRz, {0}, {a.lambda}));
  return (rz_phi * ry * rz_lam)
      .scaled(std::exp(circuit::Complex(0, 1) * a.phase));
}

class ZyzRoundTrip : public ::testing::TestWithParam<int> {};

std::vector<int> single_qubit_unitary_kinds() {
  std::vector<int> kinds;
  for (int k = 0; k < circuit::kNumGateKinds; ++k) {
    auto kind = static_cast<GateKind>(k);
    if (circuit::is_unitary(kind) && circuit::gate_arity(kind) == 1) {
      kinds.push_back(k);
    }
  }
  return kinds;
}

TEST_P(ZyzRoundTrip, ReconstructsKindExactly) {
  auto kind = static_cast<GateKind>(GetParam());
  std::vector<double> params(
      static_cast<std::size_t>(circuit::gate_param_count(kind)), 0.77);
  CMatrix u = circuit::gate_matrix(circuit::make_gate(kind, {0}, params));
  ZyzAngles a = zyz_decompose(u);
  EXPECT_TRUE(approx_equal(rebuild_from_zyz(a), u, 1e-9))
      << circuit::gate_name(kind);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ZyzRoundTrip,
                         ::testing::ValuesIn(single_qubit_unitary_kinds()));

TEST(Zyz, RandomUnitariesRoundTrip) {
  qfs::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    double theta = rng.uniform_real(0, M_PI);
    double phi = rng.uniform_real(-M_PI, M_PI);
    double lambda = rng.uniform_real(-M_PI, M_PI);
    CMatrix u = circuit::gate_matrix(
        circuit::make_gate(GateKind::kU3, {0}, {theta, phi, lambda}));
    ZyzAngles a = zyz_decompose(u);
    EXPECT_TRUE(approx_equal(rebuild_from_zyz(a), u, 1e-9));
  }
}

TEST(Zyz, DiagonalEdgeCase) {
  CMatrix s = circuit::gate_matrix(circuit::make_gate(GateKind::kS, {0}));
  ZyzAngles a = zyz_decompose(s);
  EXPECT_NEAR(a.theta, 0.0, 1e-12);
  EXPECT_TRUE(approx_equal(rebuild_from_zyz(a), s, 1e-9));
}

TEST(Zyz, AntiDiagonalEdgeCase) {
  CMatrix x = circuit::gate_matrix(circuit::make_gate(GateKind::kX, {0}));
  ZyzAngles a = zyz_decompose(x);
  EXPECT_NEAR(a.theta, M_PI, 1e-12);
  EXPECT_TRUE(approx_equal(rebuild_from_zyz(a), x, 1e-9));
}

TEST(Zyz, NonUnitaryIsContractViolation) {
  CMatrix m(2);
  m.at(0, 0) = 2.0;
  EXPECT_THROW(zyz_decompose(m), AssertionError);
}

// ---------------------------------------------------------------------------
// Decomposition to gate sets
// ---------------------------------------------------------------------------

Circuit algorithm_sampler(int variant) {
  Circuit c(4, "sample");
  switch (variant) {
    case 0:
      c.h(0).cx(0, 1).cz(1, 2).swap(2, 3).t(3);
      break;
    case 1:
      c.ccx(0, 1, 2).ccz(1, 2, 3).cswap(0, 1, 3);
      break;
    case 2:
      c.u3(0.3, -0.4, 0.5, 0).cp(0.7, 0, 3).cy(1, 2).sdg(3).sxdg(0);
      break;
    default:
      c.rx(1.2, 0).ry(-0.3, 1).rz(2.2, 2).p(0.9, 3).cx(3, 0).s(1);
      break;
  }
  return c;
}

class DecomposeVariant : public ::testing::TestWithParam<int> {};

TEST_P(DecomposeVariant, SurfaceSetIsNativeAndEquivalent) {
  Circuit c = algorithm_sampler(GetParam());
  device::GateSet target = device::surface_code_gateset();
  Circuit lowered = decompose_to_gateset(c, target);
  EXPECT_TRUE(target.supports_circuit(lowered));
  EXPECT_TRUE(sim::circuits_equivalent(c, lowered, 1e-8));
}

TEST_P(DecomposeVariant, IbmSetIsNativeAndEquivalent) {
  Circuit c = algorithm_sampler(GetParam());
  device::GateSet target = device::ibm_gateset();
  Circuit lowered = decompose_to_gateset(c, target);
  EXPECT_TRUE(target.supports_circuit(lowered));
  EXPECT_TRUE(sim::circuits_equivalent(c, lowered, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Variants, DecomposeVariant, ::testing::Range(0, 4));

TEST(Decompose, NativeGatesPassThroughUnchanged) {
  Circuit c(2);
  c.rx(0.5, 0).cz(0, 1).rz(0.1, 1);
  Circuit lowered = decompose_to_gateset(c, device::surface_code_gateset());
  EXPECT_EQ(lowered, c);
}

TEST(Decompose, MeasureAndBarrierPassThrough) {
  Circuit c(2);
  c.h(0).measure(0).barrier({0, 1}).reset(1);
  Circuit lowered = decompose_to_gateset(c, device::surface_code_gateset());
  int measures = 0, barriers = 0, resets = 0;
  for (const auto& g : lowered.gates()) {
    if (g.kind == GateKind::kMeasure) ++measures;
    if (g.kind == GateKind::kBarrier) ++barriers;
    if (g.kind == GateKind::kReset) ++resets;
  }
  EXPECT_EQ(measures, 1);
  EXPECT_EQ(barriers, 1);
  EXPECT_EQ(resets, 1);
}

TEST(Decompose, ToffoliUsesSixEntanglersOnIbm) {
  Circuit c(3);
  c.ccx(0, 1, 2);
  Circuit lowered = decompose_to_gateset(c, device::ibm_gateset());
  int cx = 0;
  for (const auto& g : lowered.gates()) {
    if (g.kind == GateKind::kCx) ++cx;
  }
  EXPECT_EQ(cx, 6);
}

TEST(Decompose, RandomCircuitsStayEquivalent) {
  qfs::Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 4;
    spec.num_gates = 30;
    spec.two_qubit_fraction = 0.4;
    Circuit c = workloads::random_circuit(spec, rng);
    Circuit lowered = decompose_to_gateset(c, device::surface_code_gateset());
    EXPECT_TRUE(device::surface_code_gateset().supports_circuit(lowered));
    EXPECT_TRUE(sim::circuits_equivalent(c, lowered, 1e-7)) << "trial " << trial;
  }
}

TEST(ExpandSwaps, RewritesOnlySwaps) {
  Circuit c(3);
  c.h(0).swap(0, 2).cz(1, 2);
  Circuit expanded = expand_swaps(c);
  EXPECT_EQ(expanded.size(), 5u);  // h + 3 cx + cz
  EXPECT_TRUE(sim::circuits_equivalent(c, expanded));
  for (const auto& g : expanded.gates()) EXPECT_NE(g.kind, GateKind::kSwap);
}

// ---------------------------------------------------------------------------
// Optimisation passes
// ---------------------------------------------------------------------------

TEST(Optimize, RemoveIdentities) {
  Circuit c(2);
  c.i(0).h(1).rz(0.0, 0).rx(2 * M_PI, 1);
  Circuit out = remove_identities(c);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.gates()[0].kind, GateKind::kH);
}

TEST(Optimize, CancelAdjacentSelfInverse) {
  Circuit c(2);
  c.h(0).h(0).cx(0, 1).cx(0, 1).x(1);
  Circuit out = cancel_inverse_pairs(c);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.gates()[0].kind, GateKind::kX);
}

TEST(Optimize, CancelSTdgPairs) {
  Circuit c(1);
  c.s(0).sdg(0).t(0).tdg(0);
  EXPECT_EQ(cancel_inverse_pairs(c).size(), 0u);
}

TEST(Optimize, CancelCascades) {
  // h x x h collapses completely through two sweeps.
  Circuit c(1);
  c.h(0).x(0).x(0).h(0);
  EXPECT_EQ(cancel_inverse_pairs(c).size(), 0u);
}

TEST(Optimize, NoCancelAcrossInterveningGate) {
  Circuit c(2);
  c.h(0).cx(0, 1).h(0);
  EXPECT_EQ(cancel_inverse_pairs(c).size(), 3u);
}

TEST(Optimize, NoCancelDifferentOperandOrder) {
  Circuit c(2);
  c.cx(0, 1).cx(1, 0);
  EXPECT_EQ(cancel_inverse_pairs(c).size(), 2u);
}

TEST(Optimize, RotationInversePairCancels) {
  Circuit c(1);
  c.rz(0.4, 0).rz(-0.4, 0);
  EXPECT_EQ(cancel_inverse_pairs(c).size(), 0u);
}

TEST(Optimize, MergeRotationsSameAxis) {
  Circuit c(1);
  c.rz(0.25, 0).rz(0.5, 0).rz(0.25, 0);
  Circuit out = merge_rotations(c);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out.gates()[0].params[0], 1.0, 1e-12);
}

TEST(Optimize, MergeRotationsToIdentityVanishes) {
  Circuit c(1);
  c.rx(M_PI, 0).rx(M_PI, 0);  // 2*pi rotation = identity up to phase
  EXPECT_EQ(merge_rotations(c).size(), 0u);
}

TEST(Optimize, MergeDoesNotCrossAxes) {
  Circuit c(1);
  c.rz(0.3, 0).rx(0.3, 0);
  EXPECT_EQ(merge_rotations(c).size(), 2u);
}

TEST(Optimize, MergeDoesNotCrossTwoQubitGates) {
  Circuit c(2);
  c.rz(0.3, 0).cx(0, 1).rz(0.3, 0);
  EXPECT_EQ(merge_rotations(c).size(), 3u);
}

TEST(Commutation, DiagonalGatesCommute) {
  using circuit::make_gate;
  EXPECT_TRUE(gates_commute(make_gate(GateKind::kRz, {0}, {0.3}),
                            make_gate(GateKind::kT, {0})));
  EXPECT_TRUE(gates_commute(make_gate(GateKind::kCz, {0, 1}),
                            make_gate(GateKind::kRz, {1}, {0.2})));
  EXPECT_TRUE(gates_commute(make_gate(GateKind::kCz, {0, 1}),
                            make_gate(GateKind::kCz, {1, 2})));
}

TEST(Commutation, CxControlIsDiagonalTargetIsXLike) {
  using circuit::make_gate;
  circuit::Gate cx = make_gate(GateKind::kCx, {0, 1});
  EXPECT_TRUE(gates_commute(cx, make_gate(GateKind::kRz, {0}, {0.4})));
  EXPECT_TRUE(gates_commute(cx, make_gate(GateKind::kX, {1})));
  EXPECT_FALSE(gates_commute(cx, make_gate(GateKind::kX, {0})));
  EXPECT_FALSE(gates_commute(cx, make_gate(GateKind::kRz, {1}, {0.4})));
}

TEST(Commutation, SharedControlCxPairsCommute) {
  using circuit::make_gate;
  EXPECT_TRUE(gates_commute(make_gate(GateKind::kCx, {0, 1}),
                            make_gate(GateKind::kCx, {0, 2})));
  EXPECT_TRUE(gates_commute(make_gate(GateKind::kCx, {0, 2}),
                            make_gate(GateKind::kCx, {1, 2})));
  EXPECT_FALSE(gates_commute(make_gate(GateKind::kCx, {0, 1}),
                             make_gate(GateKind::kCx, {1, 2})));
}

TEST(Commutation, DisjointGatesAlwaysCommute) {
  using circuit::make_gate;
  EXPECT_TRUE(gates_commute(make_gate(GateKind::kH, {0}),
                            make_gate(GateKind::kY, {1})));
}

TEST(Commutation, NonUnitaryNeverCommutes) {
  using circuit::make_gate;
  EXPECT_FALSE(gates_commute(make_gate(GateKind::kMeasure, {0}),
                             make_gate(GateKind::kZ, {1})));
}

TEST(Commutation, CancelAcrossCommutingGate) {
  // rz cx rz^-1 with rz on the control collapses to cx.
  Circuit c(2);
  c.rz(0.7, 0).cx(0, 1).rz(-0.7, 0);
  Circuit out = cancel_with_commutation(c);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.gates()[0].kind, GateKind::kCx);
  EXPECT_TRUE(sim::circuits_equivalent(c, out, 1e-9));
}

TEST(Commutation, NoCancelAcrossNonCommutingGate) {
  // rz on the TARGET does not commute with cx: nothing may cancel.
  Circuit c(2);
  c.rz(0.7, 1).cx(0, 1).rz(-0.7, 1);
  EXPECT_EQ(cancel_with_commutation(c).size(), 3u);
}

TEST(Commutation, XThroughCxTargetCancels) {
  Circuit c(2);
  c.x(1).cx(0, 1).x(1);
  Circuit out = cancel_with_commutation(c);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(sim::circuits_equivalent(c, out, 1e-9));
}

TEST(Commutation, ChainsOfCommutingGates) {
  // t(0) cz(0,1) s(0) cz(0,2) tdg(0): tdg hops over both cz and s.
  Circuit c(3);
  c.t(0).cz(0, 1).s(0).cz(0, 2).tdg(0);
  Circuit out = cancel_with_commutation(c);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(sim::circuits_equivalent(c, out, 1e-9));
}

TEST(Commutation, RandomCircuitsPreserveSemantics) {
  qfs::Rng rng(23);
  for (int trial = 0; trial < 8; ++trial) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 4;
    spec.num_gates = 30;
    spec.two_qubit_fraction = 0.4;
    Circuit c = workloads::random_circuit(spec, rng);
    Circuit out = cancel_with_commutation(c);
    EXPECT_LE(out.gate_count(), c.gate_count());
    EXPECT_TRUE(sim::circuits_equivalent(c, out, 1e-7)) << "trial " << trial;
  }
}

TEST(Optimize, FullPipelinePreservesSemantics) {
  qfs::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 4;
    spec.num_gates = 40;
    spec.two_qubit_fraction = 0.3;
    Circuit c = workloads::random_circuit(spec, rng);
    Circuit out = optimize(c);
    EXPECT_LE(out.gate_count(), c.gate_count());
    EXPECT_TRUE(sim::circuits_equivalent(c, out, 1e-7)) << "trial " << trial;
  }
}

TEST(Optimize, PipelineShrinksRedundantCircuit) {
  Circuit c(2);
  c.h(0).h(0).rz(0.2, 1).rz(-0.2, 1).cx(0, 1).cx(0, 1).i(0);
  EXPECT_EQ(optimize(c).size(), 0u);
}

// ---------------------------------------------------------------------------
// PassManager
// ---------------------------------------------------------------------------

TEST(PassManager, RunsPassesInOrderWithStats) {
  PassManager pm;
  pm.add("add-x", [](const Circuit& c) {
      Circuit out = c;
      out.x(0);
      return out;
    }).add("drop-all", [](const Circuit& c) { return Circuit(c.num_qubits()); });
  Circuit in(1);
  in.h(0);
  Circuit out = pm.run(in);
  EXPECT_EQ(out.gate_count(), 0);
  ASSERT_EQ(pm.stats().size(), 2u);
  EXPECT_EQ(pm.stats()[0].name, "add-x");
  EXPECT_EQ(pm.stats()[0].gates_before, 1);
  EXPECT_EQ(pm.stats()[0].gates_after, 2);
  EXPECT_EQ(pm.stats()[1].gates_after, 0);
}

TEST(PassManager, ReportMentionsEveryPass) {
  PassManager pm;
  pm.add("identity", [](const Circuit& c) { return c; });
  pm.run(Circuit(2));
  EXPECT_NE(pm.report().find("identity"), std::string::npos);
}

TEST(PassManager, ValidatesPassDefinition) {
  PassManager pm;
  EXPECT_THROW(pm.add("", [](const Circuit& c) { return c; }), AssertionError);
  EXPECT_THROW(pm.add(Pass{"x", nullptr}), AssertionError);
}

TEST(PassManager, StandardLoweringPipelineIsNativeAndEquivalent) {
  qfs::Rng rng(31);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 4;
  spec.num_gates = 30;
  spec.two_qubit_fraction = 0.4;
  Circuit c = workloads::random_circuit(spec, rng);
  auto pm = standard_lowering_pipeline(device::surface_code_gateset());
  Circuit out = pm.run(c);
  EXPECT_TRUE(device::surface_code_gateset().supports_circuit(out));
  EXPECT_TRUE(sim::circuits_equivalent(c, out, 1e-7));
  EXPECT_EQ(pm.stats().size(), pm.size());
  // The cleanup passes never grow the circuit.
  for (std::size_t i = 1; i < pm.stats().size(); ++i) {
    EXPECT_LE(pm.stats()[i].gates_after, pm.stats()[i].gates_before)
        << pm.stats()[i].name;
  }
}

TEST(PassManager, RerunClearsStats) {
  PassManager pm;
  pm.add("identity", [](const Circuit& c) { return c; });
  pm.run(Circuit(1));
  pm.run(Circuit(1));
  EXPECT_EQ(pm.stats().size(), 1u);
}

// ---------------------------------------------------------------------------
// Verify-between-passes mode (analysis::make_pass_check as the checker)
// ---------------------------------------------------------------------------

analysis::CheckOptions physical_opts(const device::Device& dev) {
  analysis::CheckOptions opts;
  opts.device = &dev;
  opts.physical = true;
  return opts;
}

TEST(PassVerifier, CleanPipelineVerifiesOk) {
  device::Device dev = device::line_device(4);
  PassManager pm;
  pm.add("append-native", [](const Circuit& c) {
      Circuit out = c;
      out.rz(0.1, 0);
      return out;
    })
      .enable_verification(analysis::make_pass_check(physical_opts(dev)));
  Circuit in(4);
  in.cz(0, 1);
  pm.run(in);
  const PassVerifierReport& report = pm.verifier_report();
  EXPECT_TRUE(report.ran);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_NE(report.to_string().find("all passes verified"), std::string::npos);
}

TEST(PassVerifier, BrokenPassIsAttributedByNameAndIndex) {
  device::Device dev = device::line_device(4);
  PassManager pm;
  pm.add("identity", [](const Circuit& c) { return c; })
      .add("inject-non-native", [](const Circuit& c) {
        Circuit out = c;
        out.t(0);  // not in the surface-code gate set
        return out;
      })
      .add("never-reached", [](const Circuit& c) {
        ADD_FAILURE() << "pipeline must stop at the offending pass";
        return c;
      })
      .enable_verification(analysis::make_pass_check(physical_opts(dev)));
  Circuit in(4);
  in.cz(0, 1);
  pm.run(in);
  const PassVerifierReport& report = pm.verifier_report();
  EXPECT_TRUE(report.ran);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.offending_pass, "inject-non-native");
  EXPECT_EQ(report.offending_pass_index, 1);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].code, "QFS005");
  EXPECT_NE(report.to_string().find("'inject-non-native' (#1)"),
            std::string::npos);
  EXPECT_NE(report.to_string().find("QFS005"), std::string::npos);
  // The offending pass still gets its stats entry; the aborted tail does not.
  EXPECT_EQ(pm.stats().size(), 2u);
}

TEST(PassVerifier, NonAdjacentGateIsCaughtToo) {
  device::Device dev = device::line_device(4);
  PassManager pm;
  pm.add("inject-non-adjacent", [](const Circuit& c) {
      Circuit out = c;
      out.cz(0, 3);  // qubits 0 and 3 are not coupled on a line
      return out;
    })
      .enable_verification(analysis::make_pass_check(physical_opts(dev)));
  pm.run(Circuit(4));
  const PassVerifierReport& report = pm.verifier_report();
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].code, "QFS006");
}

TEST(PassVerifier, PreBrokenInputIsAttributedToInput) {
  device::Device dev = device::line_device(4);
  PassManager pm;
  pm.add("never-reached", [](const Circuit& c) {
      ADD_FAILURE() << "input verification must abort before any pass";
      return c;
    })
      .enable_verification(analysis::make_pass_check(physical_opts(dev)));
  Circuit in(4);
  in.h(0);  // non-native before the pipeline even starts
  Circuit out = pm.run(in);
  const PassVerifierReport& report = pm.verifier_report();
  EXPECT_TRUE(report.ran);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.offending_pass, "<input>");
  EXPECT_EQ(report.offending_pass_index, -1);
  EXPECT_TRUE(pm.stats().empty());
  EXPECT_EQ(out, in);  // the input comes back unchanged
}

TEST(PassVerifier, ReportNotRanWithoutVerification) {
  PassManager pm;
  pm.add("identity", [](const Circuit& c) { return c; });
  pm.run(Circuit(2));
  EXPECT_FALSE(pm.verifier_report().ran);
}

TEST(PassVerifier, VerifiedStandardPipelineStaysClean) {
  // The standard lowering pipeline must never trip the native-gate checker
  // when targeting the same gate set it lowers to (logical stage: no
  // adjacency constraint, hence no device in the options).
  qfs::Rng rng(17);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 4;
  spec.num_gates = 24;
  spec.two_qubit_fraction = 0.3;
  Circuit c = workloads::random_circuit(spec, rng);
  auto pm = standard_lowering_pipeline(device::surface_code_gateset());
  pm.enable_verification(analysis::make_pass_check({}));
  pm.run(c);
  EXPECT_TRUE(pm.verifier_report().ok) << pm.verifier_report().to_string();
}

}  // namespace
}  // namespace qfs::compiler

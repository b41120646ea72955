#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "compiler/decompose.h"
#include "compiler/euler.h"
#include "device/gateset.h"
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
      c.ccx(0, 1, 2).ccz(1, 2, 3);
      c.add(GateKind::kCswap, {0, 1, 3});
      break;
    case 2:
      c.u3(0.3, -0.4, 0.5, 0).cp(0.7, 0, 3);
      c.add(GateKind::kCy, {1, 2});
      c.add(GateKind::kSdg, {3});
      c.add(GateKind::kSxdg, {0});
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

}  // namespace
}  // namespace qfs::compiler

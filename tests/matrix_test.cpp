#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuit/matrix.h"

namespace qfs::circuit {
namespace {

constexpr double kTol = 1e-12;

TEST(CMatrix, IdentityConstruction) {
  CMatrix m = CMatrix::identity(3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(m.at(r, c), (r == c ? Complex(1) : Complex(0)));
    }
  }
}

TEST(CMatrix, MultiplyAgainstIdentity) {
  Gate g = make_gate(GateKind::kH, {0});
  CMatrix h = gate_matrix(g);
  EXPECT_TRUE(approx_equal(h * CMatrix::identity(2), h, kTol));
  EXPECT_TRUE(approx_equal(CMatrix::identity(2) * h, h, kTol));
}

TEST(CMatrix, HSquaredIsIdentity) {
  CMatrix h = gate_matrix(make_gate(GateKind::kH, {0}));
  EXPECT_TRUE(approx_equal(h * h, CMatrix::identity(2), kTol));
}

TEST(CMatrix, AdjointOfS) {
  CMatrix s = gate_matrix(make_gate(GateKind::kS, {0}));
  CMatrix sdg = gate_matrix(make_gate(GateKind::kSdg, {0}));
  EXPECT_TRUE(approx_equal(s.adjoint(), sdg, kTol));
}

TEST(CMatrix, ScaledAndNorm) {
  CMatrix m = CMatrix::identity(2).scaled(Complex(0, 2));
  EXPECT_DOUBLE_EQ(m.norm(), std::sqrt(8.0));
}

TEST(CMatrix, MaxAbsDiff) {
  CMatrix a = CMatrix::identity(2);
  CMatrix b = a;
  b.at(0, 1) = Complex(0.25, 0);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.25);
}

TEST(CMatrix, ApproxEqualUpToPhase) {
  CMatrix h = gate_matrix(make_gate(GateKind::kH, {0}));
  CMatrix rotated = h.scaled(std::exp(Complex(0, 1.234)));
  EXPECT_FALSE(approx_equal(h, rotated, 1e-9));
  EXPECT_TRUE(approx_equal_up_to_phase(h, rotated, 1e-9));
}

TEST(CMatrix, ApproxEqualUpToPhaseRejectsDifferent) {
  CMatrix h = gate_matrix(make_gate(GateKind::kH, {0}));
  CMatrix x = gate_matrix(make_gate(GateKind::kX, {0}));
  EXPECT_FALSE(approx_equal_up_to_phase(h, x, 1e-9));
}

// Every unitary gate kind must produce a unitary matrix.
class AllUnitaryGates : public ::testing::TestWithParam<int> {};

std::vector<int> unitary_kinds() {
  std::vector<int> kinds;
  for (int k = 0; k < kNumGateKinds; ++k) {
    if (is_unitary(static_cast<GateKind>(k))) kinds.push_back(k);
  }
  return kinds;
}

TEST_P(AllUnitaryGates, MatrixIsUnitary) {
  auto kind = static_cast<GateKind>(GetParam());
  int arity = gate_arity(kind);
  std::vector<int> qubits;
  for (int i = 0; i < arity; ++i) qubits.push_back(i);
  std::vector<double> params(static_cast<std::size_t>(gate_param_count(kind)),
                             0.37);
  Gate g = make_gate(kind, qubits, params);
  CMatrix m = gate_matrix(g);
  EXPECT_EQ(m.dim(), 1 << arity);
  EXPECT_TRUE(m.is_unitary(1e-10)) << gate_name(kind);
}

TEST_P(AllUnitaryGates, InverseMatrixIsAdjoint) {
  auto kind = static_cast<GateKind>(GetParam());
  int arity = gate_arity(kind);
  std::vector<int> qubits;
  for (int i = 0; i < arity; ++i) qubits.push_back(i);
  std::vector<double> params(static_cast<std::size_t>(gate_param_count(kind)),
                             -0.81);
  Gate g = make_gate(kind, qubits, params);
  CMatrix u = gate_matrix(g);
  CMatrix inv = gate_matrix(inverse_gate(g));
  EXPECT_TRUE(approx_equal(inv, u.adjoint(), 1e-10)) << gate_name(kind);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllUnitaryGates,
                         ::testing::ValuesIn(unitary_kinds()));

// ---------------------------------------------------------------------------
// Specific gate matrices (spot values)
// ---------------------------------------------------------------------------

TEST(GateMatrix, PauliX) {
  CMatrix x = gate_matrix(make_gate(GateKind::kX, {0}));
  EXPECT_EQ(x.at(0, 1), Complex(1));
  EXPECT_EQ(x.at(1, 0), Complex(1));
  EXPECT_EQ(x.at(0, 0), Complex(0));
}

TEST(GateMatrix, SxSquaredIsX) {
  CMatrix sx = gate_matrix(make_gate(GateKind::kSx, {0}));
  CMatrix x = gate_matrix(make_gate(GateKind::kX, {0}));
  EXPECT_TRUE(approx_equal(sx * sx, x, 1e-12));
}

TEST(GateMatrix, TSquaredIsS) {
  CMatrix t = gate_matrix(make_gate(GateKind::kT, {0}));
  CMatrix s = gate_matrix(make_gate(GateKind::kS, {0}));
  EXPECT_TRUE(approx_equal(t * t, s, 1e-12));
}

TEST(GateMatrix, RzPiMatchesZUpToPhase) {
  CMatrix rz = gate_matrix(make_gate(GateKind::kRz, {0}, {M_PI}));
  CMatrix z = gate_matrix(make_gate(GateKind::kZ, {0}));
  EXPECT_TRUE(approx_equal_up_to_phase(rz, z, 1e-12));
}

TEST(GateMatrix, RyPiOver2TimesXIsH) {
  CMatrix ry = gate_matrix(make_gate(GateKind::kRy, {0}, {M_PI / 2}));
  CMatrix x = gate_matrix(make_gate(GateKind::kX, {0}));
  CMatrix h = gate_matrix(make_gate(GateKind::kH, {0}));
  EXPECT_TRUE(approx_equal(x * ry, h, 1e-12));
}

TEST(GateMatrix, U3ReproducesH) {
  // H = U3(pi/2, 0, pi) up to phase.
  CMatrix u = gate_matrix(make_gate(GateKind::kU3, {0}, {M_PI / 2, 0, M_PI}));
  CMatrix h = gate_matrix(make_gate(GateKind::kH, {0}));
  EXPECT_TRUE(approx_equal_up_to_phase(u, h, 1e-12));
}

TEST(GateMatrix, PhaseGateDiagonal) {
  CMatrix p = gate_matrix(make_gate(GateKind::kPhase, {0}, {0.5}));
  EXPECT_EQ(p.at(0, 0), Complex(1));
  EXPECT_NEAR(std::arg(p.at(1, 1)), 0.5, 1e-12);
  EXPECT_EQ(p.at(0, 1), Complex(0));
}

TEST(GateMatrix, CxActionOnBasis) {
  CMatrix cx = gate_matrix(make_gate(GateKind::kCx, {0, 1}));
  // |10> -> |11> (control = operand 0 = MSB)
  EXPECT_EQ(cx.at(3, 2), Complex(1));
  EXPECT_EQ(cx.at(2, 3), Complex(1));
  EXPECT_EQ(cx.at(0, 0), Complex(1));
  EXPECT_EQ(cx.at(1, 1), Complex(1));
}

TEST(GateMatrix, CzDiagonal) {
  CMatrix cz = gate_matrix(make_gate(GateKind::kCz, {0, 1}));
  EXPECT_EQ(cz.at(0, 0), Complex(1));
  EXPECT_EQ(cz.at(1, 1), Complex(1));
  EXPECT_EQ(cz.at(2, 2), Complex(1));
  EXPECT_EQ(cz.at(3, 3), Complex(-1));
}

TEST(GateMatrix, SwapExchanges) {
  CMatrix sw = gate_matrix(make_gate(GateKind::kSwap, {0, 1}));
  EXPECT_EQ(sw.at(1, 2), Complex(1));
  EXPECT_EQ(sw.at(2, 1), Complex(1));
}

TEST(GateMatrix, CcxFlipsOnlyWhenBothControlsSet) {
  CMatrix ccx = gate_matrix(make_gate(GateKind::kCcx, {0, 1, 2}));
  // |110> -> |111>
  EXPECT_EQ(ccx.at(7, 6), Complex(1));
  EXPECT_EQ(ccx.at(6, 7), Complex(1));
  // |100> untouched
  EXPECT_EQ(ccx.at(4, 4), Complex(1));
}

TEST(GateMatrix, CswapSwapsTargetsWhenControlSet) {
  CMatrix cs = gate_matrix(make_gate(GateKind::kCswap, {0, 1, 2}));
  // |101> -> |110> (control=1, swap last two bits)
  EXPECT_EQ(cs.at(6, 5), Complex(1));
  EXPECT_EQ(cs.at(5, 6), Complex(1));
  // control=0: identity
  EXPECT_EQ(cs.at(1, 1), Complex(1));
  EXPECT_EQ(cs.at(2, 2), Complex(1));
}

TEST(GateMatrix, NonUnitaryIsContractViolation) {
  EXPECT_THROW(gate_matrix(make_gate(GateKind::kMeasure, {0})), AssertionError);
  EXPECT_THROW(gate_matrix(make_gate(GateKind::kBarrier, {0})), AssertionError);
}

// CZ is symmetric in its operands; CX is not.
TEST(GateMatrix, CzSymmetricCxNot) {
  CMatrix cz = gate_matrix(make_gate(GateKind::kCz, {0, 1}));
  CMatrix cx = gate_matrix(make_gate(GateKind::kCx, {0, 1}));
  CMatrix swap = gate_matrix(make_gate(GateKind::kSwap, {0, 1}));
  EXPECT_TRUE(approx_equal(swap * cz * swap, cz, 1e-12));
  EXPECT_FALSE(approx_equal(swap * cx * swap, cx, 1e-12));
}

}  // namespace
}  // namespace qfs::circuit

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/dependencies.h"
#include "circuit/draw.h"
#include "circuit/gate.h"
#include "support/strings.h"

namespace qfs::circuit {
namespace {

// ---------------------------------------------------------------------------
// Gate model
// ---------------------------------------------------------------------------

TEST(Gate, NamesAreDistinct) {
  std::set<std::string> names;
  for (int k = 0; k < kNumGateKinds; ++k) {
    names.insert(gate_name(static_cast<GateKind>(k)));
  }
  EXPECT_EQ(static_cast<int>(names.size()), kNumGateKinds);
}

TEST(Gate, ArityTable) {
  EXPECT_EQ(gate_arity(GateKind::kH), 1);
  EXPECT_EQ(gate_arity(GateKind::kCx), 2);
  EXPECT_EQ(gate_arity(GateKind::kCcx), 3);
  EXPECT_EQ(gate_arity(GateKind::kBarrier), 0);
  EXPECT_EQ(gate_arity(GateKind::kMeasure), 1);
}

TEST(Gate, ParamCountTable) {
  EXPECT_EQ(gate_param_count(GateKind::kRz), 1);
  EXPECT_EQ(gate_param_count(GateKind::kU3), 3);
  EXPECT_EQ(gate_param_count(GateKind::kCphase), 1);
  EXPECT_EQ(gate_param_count(GateKind::kH), 0);
}

TEST(Gate, UnitaryClassification) {
  EXPECT_TRUE(is_unitary(GateKind::kH));
  EXPECT_TRUE(is_unitary(GateKind::kCz));
  EXPECT_FALSE(is_unitary(GateKind::kMeasure));
  EXPECT_FALSE(is_unitary(GateKind::kReset));
  EXPECT_FALSE(is_unitary(GateKind::kBarrier));
}

TEST(Gate, TwoQubitClassification) {
  EXPECT_TRUE(is_two_qubit(GateKind::kCx));
  EXPECT_TRUE(is_two_qubit(GateKind::kSwap));
  EXPECT_FALSE(is_two_qubit(GateKind::kH));
  EXPECT_FALSE(is_two_qubit(GateKind::kCcx));
  EXPECT_FALSE(is_two_qubit(GateKind::kBarrier));
}

TEST(Gate, MakeGateValidatesArity) {
  EXPECT_THROW(make_gate(GateKind::kH, {0, 1}), AssertionError);
  EXPECT_THROW(make_gate(GateKind::kCx, {0}), AssertionError);
}

TEST(Gate, MakeGateValidatesParams) {
  EXPECT_THROW(make_gate(GateKind::kRz, {0}), AssertionError);
  EXPECT_THROW(make_gate(GateKind::kH, {0}, {1.0}), AssertionError);
}

TEST(Gate, MakeGateRejectsRepeatedOperands) {
  EXPECT_THROW(make_gate(GateKind::kCx, {1, 1}), AssertionError);
  EXPECT_THROW(make_gate(GateKind::kCcx, {0, 1, 0}), AssertionError);
}

TEST(Gate, MakeGateRejectsNegativeQubit) {
  EXPECT_THROW(make_gate(GateKind::kX, {-1}), AssertionError);
}

TEST(Gate, BarrierAcceptsAnyPositiveArity) {
  EXPECT_NO_THROW(make_gate(GateKind::kBarrier, {0}));
  EXPECT_NO_THROW(make_gate(GateKind::kBarrier, {0, 1, 2, 3}));
  EXPECT_THROW(make_gate(GateKind::kBarrier, {}), AssertionError);
}

TEST(Gate, InverseOfSelfInverseKinds) {
  for (GateKind kind : {GateKind::kX, GateKind::kY, GateKind::kZ, GateKind::kH,
                        GateKind::kCx, GateKind::kCz, GateKind::kSwap,
                        GateKind::kCcx}) {
    Gate g = make_gate(kind, kind == GateKind::kCcx
                                 ? std::vector<int>{0, 1, 2}
                                 : (gate_arity(kind) == 2
                                        ? std::vector<int>{0, 1}
                                        : std::vector<int>{0}));
    EXPECT_EQ(inverse_gate(g).kind, kind);
  }
}

TEST(Gate, InversePairs) {
  EXPECT_EQ(inverse_gate(make_gate(GateKind::kS, {0})).kind, GateKind::kSdg);
  EXPECT_EQ(inverse_gate(make_gate(GateKind::kSdg, {0})).kind, GateKind::kS);
  EXPECT_EQ(inverse_gate(make_gate(GateKind::kT, {0})).kind, GateKind::kTdg);
  EXPECT_EQ(inverse_gate(make_gate(GateKind::kSx, {0})).kind, GateKind::kSxdg);
}

TEST(Gate, InverseNegatesRotationAngle) {
  Gate g = make_gate(GateKind::kRy, {2}, {0.7});
  Gate inv = inverse_gate(g);
  EXPECT_EQ(inv.kind, GateKind::kRy);
  EXPECT_DOUBLE_EQ(inv.params[0], -0.7);
}

TEST(Gate, InverseOfU3SwapsPhiLambda) {
  Gate g = make_gate(GateKind::kU3, {0}, {0.1, 0.2, 0.3});
  Gate inv = inverse_gate(g);
  EXPECT_DOUBLE_EQ(inv.params[0], -0.1);
  EXPECT_DOUBLE_EQ(inv.params[1], -0.3);
  EXPECT_DOUBLE_EQ(inv.params[2], -0.2);
}

TEST(Gate, InverseOfMeasureIsContractViolation) {
  EXPECT_THROW(inverse_gate(make_gate(GateKind::kMeasure, {0})),
               AssertionError);
}

TEST(Gate, ToStringRendersOperandsAndParams) {
  EXPECT_EQ(gate_to_string(make_gate(GateKind::kCx, {0, 3})), "cx q[0],q[3]");
  std::string s = gate_to_string(make_gate(GateKind::kRz, {1}, {0.5}));
  EXPECT_NE(s.find("rz(0.5"), std::string::npos);
  EXPECT_NE(s.find("q[1]"), std::string::npos);
}

TEST(InlineVec, PushBackSpillsPastThreeAndKeepsOrder) {
  Qubits q;
  std::vector<int> expected;
  for (int i = 0; i < 300; ++i) {
    q.push_back(1000 - i);
    expected.push_back(1000 - i);
    ASSERT_EQ(q.size(), expected.size());
    ASSERT_TRUE(std::equal(q.begin(), q.end(), expected.begin()));
  }
  EXPECT_EQ(q.front(), 1000);
  EXPECT_EQ(q.back(), 701);
  EXPECT_EQ(q, Qubits(expected));
}

TEST(InlineVec, CopyMoveAndAssignAcrossTheInlineLimit) {
  const Qubits narrow = {4, 5};
  const Qubits wide = std::vector<int>{0, 1, 2, 3, 4, 5, 6};
  Qubits a = wide;
  EXPECT_EQ(a, wide);
  a = narrow;  // spilled -> inline
  EXPECT_EQ(a, narrow);
  a = wide;  // inline -> spilled
  EXPECT_EQ(a, wide);
  Qubits moved = std::move(a);
  EXPECT_EQ(moved, wide);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): pinned state
  moved[6] = 9;
  EXPECT_EQ(moved.back(), 9);
  EXPECT_FALSE(moved == wide);
  Qubits shorter = {0, 1, 2, 3, 4, 5};
  EXPECT_FALSE(shorter == wide);
  const Params exact = {0.1, -0.0, 3e-300};
  EXPECT_EQ(Params(exact)[2], 3e-300);
}

// ---------------------------------------------------------------------------
// Circuit
// ---------------------------------------------------------------------------

TEST(Circuit, EmptyCircuit) {
  Circuit c(3, "empty");
  EXPECT_EQ(c.num_qubits(), 3);
  EXPECT_EQ(c.gate_count(), 0);
  EXPECT_EQ(c.depth(), 0);
  EXPECT_TRUE(c.used_qubits().empty());
}

TEST(Circuit, FluentBuildersAppend) {
  Circuit c(3);
  c.h(0).cx(0, 1).cz(1, 2).measure(2);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.gates()[1].kind, GateKind::kCx);
}

TEST(Circuit, AddRejectsOutOfRangeQubit) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), AssertionError);
  EXPECT_THROW(c.cx(0, 5), AssertionError);
}

TEST(Circuit, GateCountExcludesBarriers) {
  Circuit c(3);
  c.h(0).barrier({0, 1, 2}).x(1);
  EXPECT_EQ(c.gate_count(), 2);
  EXPECT_EQ(c.size(), 3u);
}

TEST(Circuit, TwoQubitCounting) {
  Circuit c(3);
  c.h(0).cx(0, 1).cz(1, 2).swap(0, 2).ccx(0, 1, 2).measure(0);
  EXPECT_EQ(c.two_qubit_gate_count(), 3);  // ccx and measure excluded
  EXPECT_EQ(c.gate_count(), 6);
  EXPECT_DOUBLE_EQ(c.two_qubit_fraction(), 0.5);
}

TEST(Circuit, TwoQubitFractionEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Circuit(2).two_qubit_fraction(), 0.0);
}

TEST(Circuit, DepthSerialisesSharedQubits) {
  Circuit c(3);
  c.h(0).h(1).h(2);  // one layer
  EXPECT_EQ(c.depth(), 1);
  c.cx(0, 1);  // second layer
  EXPECT_EQ(c.depth(), 2);
  c.x(2);  // still fits layer 2
  EXPECT_EQ(c.depth(), 2);
  c.cx(1, 2);  // forced after both
  EXPECT_EQ(c.depth(), 3);
}

TEST(Circuit, DepthBarrierSynchronises) {
  Circuit c(2);
  c.h(0);
  c.barrier({0, 1});
  c.x(1);  // must start after the barrier, i.e. after h(0)
  EXPECT_EQ(c.depth(), 2);
}

TEST(Circuit, UsedQubits) {
  Circuit c(5);
  c.h(1).cx(3, 1);
  auto used = c.used_qubits();
  ASSERT_EQ(used.size(), 2u);
  EXPECT_EQ(used[0], 1);
  EXPECT_EQ(used[1], 3);
}

TEST(Circuit, UsedQubitsIgnoresBarriers) {
  Circuit c(3);
  c.barrier({0, 1, 2});
  EXPECT_TRUE(c.used_qubits().empty());
}

TEST(Circuit, AppendCircuit) {
  Circuit a(2);
  a.h(0);
  Circuit b(2);
  b.cx(0, 1);
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(Circuit, AppendWiderIsContractViolation) {
  Circuit a(2), b(3);
  EXPECT_THROW(a.append(b), AssertionError);
}

TEST(Circuit, InverseReversesAndInverts) {
  Circuit c(2);
  c.h(0).s(1).cx(0, 1);
  Circuit inv = c.inverse();
  ASSERT_EQ(inv.size(), 3u);
  EXPECT_EQ(inv.gates()[0].kind, GateKind::kCx);
  EXPECT_EQ(inv.gates()[1].kind, GateKind::kSdg);
  EXPECT_EQ(inv.gates()[2].kind, GateKind::kH);
}

TEST(Circuit, InverseOfMeasureIsContractViolation) {
  Circuit c(1);
  c.measure(0);
  EXPECT_THROW(c.inverse(), AssertionError);
}

TEST(Circuit, SatisfiesConnectivity) {
  Circuit c(3);
  c.cx(0, 1).cx(1, 2);
  auto line_adjacent = [](int a, int b) { return std::abs(a - b) == 1; };
  EXPECT_TRUE(c.satisfies_connectivity(line_adjacent));
  c.cx(0, 2);
  EXPECT_FALSE(c.satisfies_connectivity(line_adjacent));
}

TEST(Circuit, EqualityIsStructural) {
  Circuit a(2), b(2);
  a.h(0);
  b.h(0);
  EXPECT_EQ(a, b);
  b.x(1);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// ASCII drawing
// ---------------------------------------------------------------------------

TEST(Draw, SingleQubitLabels) {
  Circuit c(1);
  c.h(0).x(0).measure(0);
  std::string art = draw(c);
  EXPECT_NE(art.find("q0: "), std::string::npos);
  EXPECT_NE(art.find("H"), std::string::npos);
  EXPECT_NE(art.find("X"), std::string::npos);
  EXPECT_NE(art.find("M"), std::string::npos);
}

TEST(Draw, ControlDotAndTarget) {
  Circuit c(2);
  c.cx(0, 1);
  std::string art = draw(c);
  EXPECT_NE(art.find("●"), std::string::npos);
  EXPECT_NE(art.find("X"), std::string::npos);
  EXPECT_NE(art.find("│"), std::string::npos);  // bridge between rows
}

TEST(Draw, CrossingWireUsesCrossGlyph) {
  Circuit c(3);
  c.cz(0, 2);  // passes over q1
  std::string art = draw(c);
  EXPECT_NE(art.find("┼"), std::string::npos);
}

TEST(Draw, UnrelatedSameLayerGatesDoNotBridge) {
  // rx(0) and swap(1,2) share a layer: no vertical bar between q0 and q1.
  Circuit c(3);
  c.cz(0, 1).swap(1, 2).rx(1.5, 0);
  std::string art = draw(c);
  auto lines = qfs::split(art, '\n');
  // Line 1 is the q0-q1 connector row; the rx/swap column must hold no '│'
  // beyond the cz one. Count bridges in that row: exactly 1 (the cz).
  int bridges = 0;
  for (std::size_t i = 0; i + 2 < lines[1].size(); ++i) {
    if (lines[1].compare(i, 3, "│") == 0) ++bridges;
  }
  EXPECT_EQ(bridges, 1);
}

TEST(Draw, ParamsShownOnDemand) {
  Circuit c(1);
  c.rx(1.5708, 0);
  EXPECT_EQ(draw(c).find("1.57"), std::string::npos);
  DrawOptions opts;
  opts.show_params = true;
  EXPECT_NE(draw(c, opts).find("rx(1.57)"), std::string::npos);
}

TEST(Draw, TruncatesLongCircuits) {
  Circuit c(1);
  for (int i = 0; i < 100; ++i) c.x(0);
  DrawOptions opts;
  opts.max_layers = 5;
  std::string art = draw(c, opts);
  EXPECT_NE(art.find("…"), std::string::npos);
}

TEST(Draw, RowCountMatchesQubits) {
  Circuit c(4);
  c.h(0);
  auto lines = qfs::split(draw(c), '\n');
  // 4 wire rows + 3 connector rows + trailing empty after final newline.
  EXPECT_EQ(lines.size(), 8u);
}

// ---------------------------------------------------------------------------
// Dependency lists (circuit/dependencies.h)
// ---------------------------------------------------------------------------

Dependencies dependencies_of(const Circuit& c) {
  Dependencies deps;
  build_dependencies(c, deps);
  return deps;
}

/// Gate i's predecessors, ascending, read off the successor lists; the
/// stored count must agree.
std::vector<int> predecessors_of(const Dependencies& deps, int i) {
  std::vector<int> preds;
  for (std::size_t g = 0; g < deps.size(); ++g) {
    const int* s = deps.successors(g);
    if (std::find(s, s + deps.num_successors(g), i) !=
        s + deps.num_successors(g)) {
      preds.push_back(static_cast<int>(g));
    }
  }
  EXPECT_EQ(static_cast<int>(preds.size()),
            deps.num_preds[static_cast<std::size_t>(i)]);
  return preds;
}

std::vector<int> successors_of(const Dependencies& deps, int i) {
  const auto g = static_cast<std::size_t>(i);
  const int* s = deps.successors(g);
  return std::vector<int>(s, s + deps.num_successors(g));
}

TEST(Dag, IndependentGatesHaveNoDependencies) {
  Circuit c(3);
  c.h(0).h(1).h(2);
  const Dependencies deps = dependencies_of(c);
  ASSERT_EQ(deps.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(deps.num_preds[i], 0);
    EXPECT_EQ(deps.num_successors(i), 0);
  }
}

TEST(Dag, ChainDependencies) {
  Circuit c(2);
  c.h(0).cx(0, 1).x(1);
  const Dependencies deps = dependencies_of(c);
  EXPECT_EQ(predecessors_of(deps, 0), std::vector<int>{});
  EXPECT_EQ(predecessors_of(deps, 1), std::vector<int>{0});
  EXPECT_EQ(predecessors_of(deps, 2), std::vector<int>{1});
  EXPECT_EQ(successors_of(deps, 0), std::vector<int>{1});
  EXPECT_EQ(successors_of(deps, 1), std::vector<int>{2});
  EXPECT_EQ(successors_of(deps, 2), std::vector<int>{});
}

TEST(Dag, SharedTwoQubitPredecessorNotDuplicated) {
  Circuit c(2);
  c.cx(0, 1).cx(0, 1);
  const Dependencies deps = dependencies_of(c);
  EXPECT_EQ(predecessors_of(deps, 1), std::vector<int>{0});
  EXPECT_EQ(successors_of(deps, 0), std::vector<int>{1});
}

TEST(Dag, BarrierOrdersEveryListedQubit) {
  Circuit c(2);
  c.h(0);
  c.barrier({0, 1});
  c.x(1);
  const Dependencies deps = dependencies_of(c);
  // x(1) depends on h(0) only through the barrier.
  EXPECT_EQ(predecessors_of(deps, 1), std::vector<int>{0});
  EXPECT_EQ(predecessors_of(deps, 2), std::vector<int>{1});
}

TEST(Dag, WideBarrierReadsSpilledOperands) {
  // A five-operand barrier keeps its operands on the heap; every one of
  // them must order the gates on both sides.
  Circuit c(5);
  c.h(0).h(1).h(2).h(3).h(4);
  c.barrier({4, 3, 2, 1, 0});
  c.x(0).cx(3, 4);
  const Dependencies deps = dependencies_of(c);
  EXPECT_EQ(predecessors_of(deps, 5), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(successors_of(deps, 5), (std::vector<int>{6, 7}));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(successors_of(deps, i), std::vector<int>{5});
  }
}

TEST(Dag, SuccessorsAscendingAndDeduplicated) {
  Circuit c(4);
  c.cx(0, 1);                    // 0
  c.cx(1, 2).cx(0, 3);           // 1, 2: both follow gate 0
  c.cz(0, 1);                    // 3: reaches 0 only through 1 and 2
  c.barrier({0, 1, 2, 3});       // 4
  const Dependencies deps = dependencies_of(c);
  EXPECT_EQ(successors_of(deps, 0), (std::vector<int>{1, 2}));
  EXPECT_EQ(predecessors_of(deps, 3), (std::vector<int>{1, 2}));
  EXPECT_EQ(successors_of(deps, 1), (std::vector<int>{3, 4}));
  EXPECT_EQ(successors_of(deps, 2), (std::vector<int>{3, 4}));
  EXPECT_EQ(predecessors_of(deps, 4), (std::vector<int>{1, 2, 3}));
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  // Program order is a topological order: every edge points forward, and
  // the predecessor counts cover exactly the successor lists' edges.
  Circuit c(3);
  c.h(0).cx(0, 1).cz(1, 2).x(2).barrier({0, 1, 2}).cx(2, 0);
  const Dependencies deps = dependencies_of(c);
  std::size_t edges = 0;
  for (int g = 0; g < static_cast<int>(deps.size()); ++g) {
    for (int s : successors_of(deps, g)) EXPECT_LT(g, s);
    edges += static_cast<std::size_t>(
        deps.num_preds[static_cast<std::size_t>(g)]);
  }
  EXPECT_EQ(edges, deps.succs.size());
}

TEST(Dag, RebuildReusesBuffersExactly) {
  Circuit big(4);
  big.cx(0, 1).cx(2, 3).barrier({0, 1, 2, 3}).cx(1, 2).h(0).cz(0, 3);
  Circuit small(2);
  small.h(0).cx(0, 1);
  Dependencies deps;
  build_dependencies(big, deps);
  build_dependencies(small, deps);
  const Dependencies fresh = dependencies_of(small);
  EXPECT_EQ(deps.num_preds, fresh.num_preds);
  EXPECT_EQ(deps.succ_offsets, fresh.succ_offsets);
  EXPECT_EQ(deps.succs, fresh.succs);
}

}  // namespace
}  // namespace qfs::circuit

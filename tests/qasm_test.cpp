#include <gtest/gtest.h>

#include <cmath>

#include "compiler/schedule.h"
#include "device/device.h"
#include "isa/timed_program.h"
#include "qasm/cqasm_writer.h"
#include "qasm/parser.h"
#include "qasm/writer.h"
#include "sim/equivalence.h"
#include "workloads/random_circuit.h"

namespace qfs::qasm {
namespace {

using circuit::Circuit;
using circuit::GateKind;

// ---------------------------------------------------------------------------
// Angle expressions
// ---------------------------------------------------------------------------

TEST(AngleExpr, Literals) {
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("0.5").value(), 0.5);
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("42").value(), 42.0);
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("-3").value(), -3.0);
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("1e-2").value(), 0.01);
}

TEST(AngleExpr, Pi) {
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("pi").value(), M_PI);
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("pi/2").value(), M_PI / 2);
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("-pi/4").value(), -M_PI / 4);
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("3*pi/4").value(), 3 * M_PI / 4);
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("2*pi").value(), 2 * M_PI);
}

TEST(AngleExpr, ArithmeticAndParens) {
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("1+2*3").value(), 7.0);
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("(1+2)*3").value(), 9.0);
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("1-2-3").value(), -4.0);
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("8/2/2").value(), 2.0);
  EXPECT_DOUBLE_EQ(evaluate_angle_expression("--2").value(), 2.0);
  // Nesting up to the cap, and a long run of signs.
  EXPECT_DOUBLE_EQ(evaluate_angle_expression(std::string(64, '(') + "3" +
                                             std::string(64, ')'))
                       .value(),
                   3.0);
  EXPECT_DOUBLE_EQ(
      evaluate_angle_expression(std::string(1000001, '-') + "2").value(),
      -2.0);
}

TEST(AngleExpr, Whitespace) {
  EXPECT_DOUBLE_EQ(evaluate_angle_expression(" pi / 2 ").value(), M_PI / 2);
}

TEST(AngleExpr, Errors) {
  EXPECT_FALSE(evaluate_angle_expression("").is_ok());
  EXPECT_FALSE(evaluate_angle_expression("pi pi").is_ok());
  EXPECT_FALSE(evaluate_angle_expression("(1+2").is_ok());
  EXPECT_FALSE(evaluate_angle_expression("1/0").is_ok());
  EXPECT_FALSE(evaluate_angle_expression("abc").is_ok());
  auto deep = evaluate_angle_expression(std::string(65, '(') + "3" +
                                        std::string(65, ')'));
  ASSERT_FALSE(deep.is_ok());
  EXPECT_NE(deep.status().message().find("more than 64 deep"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(Parser, MinimalProgram) {
  auto result = parse(
      "OPENQASM 2.0;\n"
      "include \"qelib1.inc\";\n"
      "qreg q[3];\n"
      "creg c[3];\n"
      "h q[0];\n"
      "cx q[0],q[1];\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const Circuit& c = result.value();
  EXPECT_EQ(c.num_qubits(), 3);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.gates()[0].kind, GateKind::kH);
  EXPECT_EQ(c.gates()[1].kind, GateKind::kCx);
  EXPECT_EQ(c.gates()[1].qubits, (std::vector<int>{0, 1}));
}

TEST(Parser, ParametrisedGates) {
  auto result = parse(
      "qreg q[2];\n"
      "rz(pi/4) q[0];\n"
      "u3(pi/2, 0, pi) q[1];\n"
      "cu1(0.25) q[0],q[1];\n"
      "rz((pi)/2) q[0];\n"
      "u3((1+2)*0.5, -(pi/4), ((0))) q[1];\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& gates = result.value().gates();
  ASSERT_EQ(gates.size(), 5u);
  EXPECT_DOUBLE_EQ(gates[0].params[0], M_PI / 4);
  EXPECT_EQ(gates[1].kind, GateKind::kU3);
  ASSERT_EQ(gates[1].params.size(), 3u);
  EXPECT_EQ(gates[2].kind, GateKind::kCphase);
  // A parameter list ends at the ')' that closes it, not at the first one.
  EXPECT_DOUBLE_EQ(gates[3].params[0], M_PI / 2);
  ASSERT_EQ(gates[4].params.size(), 3u);
  EXPECT_DOUBLE_EQ(gates[4].params[0], 1.5);
  EXPECT_DOUBLE_EQ(gates[4].params[1], -M_PI / 4);
  EXPECT_DOUBLE_EQ(gates[4].params[2], 0.0);
}

TEST(Parser, MeasureResetBarrier) {
  auto result = parse(
      "qreg q[2]; creg c[2];\n"
      "measure q[0] -> c[0];\n"
      "reset q[1];\n"
      "barrier q[0],q[1];\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& gates = result.value().gates();
  ASSERT_EQ(gates.size(), 3u);
  EXPECT_EQ(gates[0].kind, GateKind::kMeasure);
  EXPECT_EQ(gates[1].kind, GateKind::kReset);
  EXPECT_EQ(gates[2].kind, GateKind::kBarrier);
  EXPECT_EQ(gates[2].qubits.size(), 2u);
}

TEST(Parser, CommentsAndMultilineStatements) {
  auto result = parse(
      "// full-line comment\n"
      "qreg q[1];\n"
      "h // trailing comment\n"
      "q[0];\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().size(), 1u);
}

TEST(Parser, AliasNames) {
  auto result = parse("qreg q[2]; u(1,2,3) q[0]; u1(0.5) q[1]; p(0.5) q[0];");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().gates()[0].kind, GateKind::kU3);
  EXPECT_EQ(result.value().gates()[1].kind, GateKind::kPhase);
  EXPECT_EQ(result.value().gates()[2].kind, GateKind::kPhase);
}

TEST(Parser, ErrorNoQreg) {
  auto result = parse("h q[0];");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(Parser, ErrorUnknownGate) {
  auto result = parse("qreg q[1]; frobnicate q[0];");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("frobnicate"), std::string::npos);
}

TEST(Parser, ErrorQubitOutOfRange) {
  EXPECT_FALSE(parse("qreg q[2]; h q[2];").is_ok());
}

TEST(Parser, ErrorUnknownRegister) {
  EXPECT_FALSE(parse("qreg q[2]; h r[0];").is_ok());
}

TEST(Parser, UnknownRegisterInBroadcastRejected) {
  EXPECT_FALSE(parse("qreg q[2]; h r;").is_ok());
}

TEST(Parser, ErrorWrongParamCount) {
  EXPECT_FALSE(parse("qreg q[1]; rz q[0];").is_ok());
  EXPECT_FALSE(parse("qreg q[1]; rz(1,2) q[0];").is_ok());
}

TEST(Parser, ErrorUnterminatedStatement) {
  EXPECT_FALSE(parse("qreg q[1]; h q[0]").is_ok());
}

TEST(Parser, ErrorRepeatedOperand) {
  // External input must produce a status, not a contract violation.
  auto result = parse("qreg q[2]; cx q[0],q[0];");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("repeated"), std::string::npos);
  // A barrier that names a qubit twice, directly or through its register.
  for (const char* barrier : {"barrier q[0],q[0];", "barrier q[1],q;"}) {
    auto b = parse(std::string("OPENQASM 2.0;\nqreg q[2];\n") + barrier);
    ASSERT_FALSE(b.is_ok()) << barrier;
    EXPECT_EQ(b.status().message(), "line 3: repeated qubit operand")
        << barrier;
  }
}

TEST(Parser, ErrorMentionsLineNumber) {
  auto result = parse("qreg q[1];\nh q[0];\nbogus q[0];\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Multiple registers (QASMBench-style programs)
// ---------------------------------------------------------------------------

TEST(Parser, MultipleQregsConcatenate) {
  // Registers occupy consecutive index ranges in declaration order.
  auto result = parse("qreg q[3]; qreg anc[2]; x q[2]; x anc[0]; x anc[1];");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().num_qubits(), 5);
  EXPECT_EQ(result.value().gates()[0].qubits[0], 2);
  EXPECT_EQ(result.value().gates()[1].qubits[0], 3);
  EXPECT_EQ(result.value().gates()[2].qubits[0], 4);
}

TEST(Parser, CrossRegisterTwoQubitGate) {
  auto result = parse("qreg a[2]; qreg b[2]; cx a[1],b[0];");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().gates()[0].qubits, (std::vector<int>{1, 2}));
}

TEST(Parser, BroadcastOverSecondRegister) {
  auto result = parse("qreg a[2]; qreg b[3]; h b;");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().gate_count(), 3);
  EXPECT_EQ(result.value().gates()[0].qubits[0], 2);
  EXPECT_EQ(result.value().gates()[2].qubits[0], 4);
}

TEST(Parser, PerRegisterIndexBoundsEnforced) {
  // a[2] is out of range for a even though the circuit has 4 qubits.
  EXPECT_FALSE(parse("qreg a[2]; qreg b[2]; h a[2];").is_ok());
}

TEST(Parser, MultipleCregsAccepted) {
  auto result =
      parse("qreg q[2]; creg c[2]; creg d[2]; measure q[0] -> c[0];");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
}

TEST(Parser, DuplicateRegisterNamesRejected) {
  auto dup_q = parse("qreg q[1]; qreg q[2];");
  ASSERT_FALSE(dup_q.is_ok());
  EXPECT_NE(dup_q.status().message().find("duplicate"), std::string::npos);
  EXPECT_FALSE(parse("creg c[1]; qreg q[1]; creg c[2];").is_ok());
}

TEST(Parser, TruncatedProgramNamesLastLine) {
  auto result = parse("qreg q[3];\nh q[0];\ncx q[0],\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(result.status().message().find("unterminated"),
            std::string::npos);
}

TEST(Parser, BadAngleExpressionCarriesLineNumber) {
  auto result = parse("qreg q[1];\nrz(pi/0) q[0];\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
  auto garbage = parse("qreg q[1];\nrz(1+*2) q[0];\n");
  ASSERT_FALSE(garbage.is_ok());
  EXPECT_NE(garbage.status().message().find("line 2"), std::string::npos);
  // An angle that opens a million parentheses is an error, not a stack
  // overflow, whether or not it closes them.
  const std::string opens(1000000, '(');
  const std::string closes(1000000, ')');
  auto deep = parse("OPENQASM 2.0;\nqreg q[1];\nrz(" + opens + "pi" +
                    closes + ") q[0];\n");
  ASSERT_FALSE(deep.is_ok());
  EXPECT_EQ(deep.status().message(),
            "line 3: expression nests parentheses more than 64 deep");
  auto unclosed = parse("OPENQASM 2.0;\nqreg q[1];\nrz(" + opens +
                        "pi) q[0];\n");
  ASSERT_FALSE(unclosed.is_ok());
  EXPECT_EQ(unclosed.status().message(),
            "line 3: missing ')' in gate parameters");
}

TEST(Parser, UnknownStatementCarriesLineNumber) {
  auto result = parse("qreg q[2];\ncx q[0],q[1];\nteleport q[0];\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(result.status().message().find("teleport"), std::string::npos);
}

TEST(Parser, OutOfRangeIndexCarriesLineNumber) {
  auto result = parse("qreg q[2];\nh q[5];\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(result.status().message().find("out of range"),
            std::string::npos);
}

TEST(Parser, NegativeIndexCarriesLineNumber) {
  auto result = parse("qreg q[2];\nh q[-1];\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(Parser, MalformedRegisterDeclarationCarriesLineNumber) {
  auto result = parse("qreg q[banana];\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Register broadcast
// ---------------------------------------------------------------------------

TEST(Broadcast, SingleQubitGateOverRegister) {
  auto result = parse("qreg q[4]; h q;");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().gate_count(), 4);
  for (const auto& g : result.value().gates()) {
    EXPECT_EQ(g.kind, GateKind::kH);
  }
}

TEST(Broadcast, MeasureAndResetOverRegister) {
  auto result = parse("qreg q[3]; creg c[3]; reset q; measure q -> c;");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& gates = result.value().gates();
  ASSERT_EQ(gates.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(gates[i].kind, GateKind::kReset);
    EXPECT_EQ(gates[i + 3].kind, GateKind::kMeasure);
  }
}

// ---------------------------------------------------------------------------
// QASMBench macro gates: each expansion must be unitarily equivalent to an
// independent reference construction (not the expansion network itself).
// ---------------------------------------------------------------------------

circuit::Circuit parsed(const std::string& body) {
  auto result = parse("qreg q[3]; " + body);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.value();
}

TEST(MacroGates, U2IsU3WithPiOver2Theta) {
  circuit::Circuit ref(3);
  ref.u3(M_PI / 2.0, 0.3, 1.1, 0);
  EXPECT_TRUE(sim::circuits_equivalent(parsed("u2(0.3,1.1) q[0];"), ref));
}

TEST(MacroGates, RzzMatchesPhaseConstruction) {
  // rzz(t) = (P(t) x P(t)) . CP(-2t) up to global phase.
  const double t = 0.7;
  circuit::Circuit ref(3);
  ref.p(t, 0).p(t, 1).cp(-2.0 * t, 0, 1);
  EXPECT_TRUE(sim::circuits_equivalent(parsed("rzz(0.7) q[0],q[1];"), ref));
}

TEST(MacroGates, RxxIsHadamardConjugatedRzz) {
  const double t = 0.45;
  circuit::Circuit ref(3);
  ref.h(0).h(1).p(t, 0).p(t, 1).cp(-2.0 * t, 0, 1).h(0).h(1);
  EXPECT_TRUE(sim::circuits_equivalent(parsed("rxx(0.45) q[0],q[1];"), ref));
}

TEST(MacroGates, CrzMatchesControlPhaseConstruction) {
  // Controlled-RZ(l) = P(-l/2) on the control, then CP(l).
  const double l = 0.9;
  circuit::Circuit ref(3);
  ref.p(-l / 2.0, 0).cp(l, 0, 1);
  EXPECT_TRUE(sim::circuits_equivalent(parsed("crz(0.9) q[0],q[1];"), ref));
}

TEST(MacroGates, Cu3SpecialCases) {
  // cu3(0,0,l) is the controlled phase; cu3(pi,0,pi) is CX.
  circuit::Circuit cp_ref(3);
  cp_ref.cp(0.8, 0, 1);
  EXPECT_TRUE(
      sim::circuits_equivalent(parsed("cu3(0,0,0.8) q[0],q[1];"), cp_ref));
  circuit::Circuit cx_ref(3);
  cx_ref.cx(0, 1);
  EXPECT_TRUE(
      sim::circuits_equivalent(parsed("cu3(pi,0,pi) q[0],q[1];"), cx_ref));
}

TEST(MacroGates, ChIsControlledHadamard) {
  // Ry(-pi/4) X Ry(pi/4) = H exactly, so this three-gate network is the
  // phase-exact controlled-H the qelib1 expansion must reproduce.
  circuit::Circuit ref(3);
  ref.ry(M_PI / 4.0, 1).cx(0, 1).ry(-M_PI / 4.0, 1);
  EXPECT_TRUE(sim::circuits_equivalent(parsed("ch q[0],q[1];"), ref));
}

TEST(MacroGates, CczParsesNatively) {
  circuit::Circuit ref(3);
  ref.h(2).ccx(0, 1, 2).h(2);
  EXPECT_TRUE(
      sim::circuits_equivalent(parsed("ccz q[0],q[1],q[2];"), ref, 1e-8));
}

TEST(MacroGates, BroadcastAndErrorsApply) {
  // Macros broadcast like builtins and reject bad shapes.
  auto broadcast = parse("qreg q[3]; u2(0,pi) q;");
  ASSERT_TRUE(broadcast.is_ok());
  EXPECT_EQ(broadcast.value().gate_count(), 3);
  EXPECT_FALSE(parse("qreg q[3]; rzz(1) q[0];").is_ok());
  EXPECT_FALSE(parse("qreg q[3]; rzz(1,2) q[0],q[1];").is_ok());
  EXPECT_FALSE(parse("qreg q[3]; ch q[0],q[0];").is_ok());
  // Macro names cannot be redefined by gate blocks.
  EXPECT_FALSE(parse("gate ch a,b { cx a,b; } qreg q[2];").is_ok());
}

TEST(Broadcast, BarrierOverRegister) {
  auto result = parse("qreg q[3]; barrier q;");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value().gates()[0].qubits.size(), 3u);
}

TEST(Broadcast, ParametrisedGateOverRegister) {
  auto result = parse("qreg q[3]; rz(pi/2) q;");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().gate_count(), 3);
  for (const auto& g : result.value().gates()) {
    EXPECT_DOUBLE_EQ(g.params[0], M_PI / 2);
  }
}

TEST(Broadcast, TwoQubitBroadcastSameRegisterRejected) {
  // cx q,q would pair each qubit with itself.
  EXPECT_FALSE(parse("qreg q[2]; cx q,q;").is_ok());
}

// ---------------------------------------------------------------------------
// User-defined gates
// ---------------------------------------------------------------------------

TEST(GateDef, SimpleExpansion) {
  auto result = parse(
      "qreg q[2];\n"
      "gate bell a, b { h a; cx a, b; }\n"
      "bell q[0], q[1];\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& gates = result.value().gates();
  ASSERT_EQ(gates.size(), 2u);
  EXPECT_EQ(gates[0].kind, GateKind::kH);
  EXPECT_EQ(gates[0].qubits, (std::vector<int>{0}));
  EXPECT_EQ(gates[1].kind, GateKind::kCx);
  EXPECT_EQ(gates[1].qubits, (std::vector<int>{0, 1}));
}

TEST(GateDef, ParameterSubstitution) {
  auto result = parse(
      "qreg q[1];\n"
      "gate twist(theta) a { rz(theta/2) a; rz(-theta/2) a; rx(theta) a; }\n"
      "twist(pi) q[0];\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& gates = result.value().gates();
  ASSERT_EQ(gates.size(), 3u);
  EXPECT_DOUBLE_EQ(gates[0].params[0], M_PI / 2);
  EXPECT_DOUBLE_EQ(gates[1].params[0], -M_PI / 2);
  EXPECT_DOUBLE_EQ(gates[2].params[0], M_PI);

  // qelib1's own cu3 body nests parentheses in its angles.
  auto cu3 = parse(
      "qreg q[2];\n"
      "gate cu3q(theta,phi,lambda) c, t {\n"
      "  u1((lambda+phi)/2) c; u1((lambda-phi)/2) t; cx c,t;\n"
      "  u3(-theta/2,0,-(phi+lambda)/2) t; cx c,t; u3(theta/2,phi,0) t;\n"
      "}\n"
      "cu3q(0.2, 0.4, 0.6) q[0],q[1];\n");
  ASSERT_TRUE(cu3.is_ok()) << cu3.status().to_string();
  const auto& body = cu3.value().gates();
  ASSERT_EQ(body.size(), 6u);
  EXPECT_DOUBLE_EQ(body[0].params[0], (0.6 + 0.4) / 2);
  EXPECT_DOUBLE_EQ(body[1].params[0], (0.6 - 0.4) / 2);
  EXPECT_DOUBLE_EQ(body[3].params[2], -(0.4 + 0.6) / 2);
}

TEST(GateDef, NestedDefinitions) {
  auto result = parse(
      "qreg q[3];\n"
      "gate pair a, b { cx a, b; }\n"
      "gate chain a, b, c { pair a, b; pair b, c; }\n"
      "chain q[0], q[1], q[2];\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().gate_count(), 2);
  EXPECT_EQ(result.value().gates()[1].qubits, (std::vector<int>{1, 2}));
}

TEST(GateDef, MultilineBody) {
  auto result = parse(
      "qreg q[2];\n"
      "gate prep(a) x1, x2 {\n"
      "  ry(a) x1;\n"
      "  cz x1, x2;\n"
      "}\n"
      "prep(0.5) q[0], q[1];\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().gate_count(), 2);
}

TEST(GateDef, UnitaryMatchesInlineVersion) {
  auto with_def = parse(
      "qreg q[2];\n"
      "gate mix(t) a, b { ry(t) a; cx a, b; rz(-t) b; }\n"
      "mix(0.7) q[0], q[1];\n"
      "mix(0.2) q[1], q[0];\n");
  auto inline_version = parse(
      "qreg q[2];\n"
      "ry(0.7) q[0]; cx q[0],q[1]; rz(-0.7) q[1];\n"
      "ry(0.2) q[1]; cx q[1],q[0]; rz(-0.2) q[0];\n");
  ASSERT_TRUE(with_def.is_ok()) << with_def.status().to_string();
  ASSERT_TRUE(inline_version.is_ok());
  EXPECT_TRUE(
      sim::circuits_equivalent(with_def.value(), inline_version.value()));
}

TEST(GateDef, BroadcastInvocation) {
  auto result = parse(
      "qreg q[3];\n"
      "gate flip a { x a; }\n"
      "flip q;\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().gate_count(), 3);
}

TEST(GateDef, Errors) {
  // Redefinition of a builtin.
  EXPECT_FALSE(parse("qreg q[1]; gate h a { x a; }").is_ok());
  // Unknown formal qubit in body.
  EXPECT_FALSE(
      parse("qreg q[1]; gate bad a { x b; } bad q[0];").is_ok());
  // Unknown parameter in body expression.
  EXPECT_FALSE(
      parse("qreg q[1]; gate bad(t) a { rz(u) a; } bad(1) q[0];").is_ok());
  // Wrong invocation arity.
  EXPECT_FALSE(
      parse("qreg q[2]; gate one a { x a; } one q[0], q[1];").is_ok());
  // Wrong parameter count.
  EXPECT_FALSE(
      parse("qreg q[1]; gate p1(t) a { rz(t) a; } p1 q[0];").is_ok());
  // Recursive definition cannot even be written (name unknown inside its
  // own body at definition time is fine; expansion detects the cycle).
  auto recursive = parse(
      "qreg q[1]; gate loop a { x a; } "
      "gate loop2 a { loop2 a; } loop2 q[0];");
  EXPECT_FALSE(recursive.is_ok());
}

// Robustness: arbitrary garbage must produce a parse error, never a crash
// or an uncontrolled exception.
class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, GarbageInputsRejectedGracefully) {
  qfs::Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Mix of QASM-ish tokens and noise, random lengths.
  static const char* fragments[] = {
      "qreg q[", "];", "h ", "cx ", "q[0]", ",", "measure", "->", "creg c[",
      "rz(", "pi", ")", ";", "\n", "OPENQASM 2.0;", "{", "}", "0", "9999999",
      "-", "barrier", "((", "u3(1,2", "include \"x\"", "\t", "@", "q q q"};
  std::string source;
  int pieces = rng.uniform_int(1, 40);
  for (int i = 0; i < pieces; ++i) {
    source += fragments[rng.uniform_index(std::size(fragments))];
  }
  auto result = parse(source);
  // Either it parsed (some garbage is accidentally valid) or it failed with
  // a proper status; both are fine — crashing or throwing is not.
  if (!result.is_ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kParseError);
    EXPECT_FALSE(result.status().message().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// Writer + round trip
// ---------------------------------------------------------------------------

TEST(Writer, EmitsHeaderAndRegisters) {
  Circuit c(2, "demo");
  c.h(0).cx(0, 1);
  std::string text = to_qasm(c);
  EXPECT_NE(text.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(text.find("qreg q[2];"), std::string::npos);
  EXPECT_NE(text.find("h q[0];"), std::string::npos);
  EXPECT_NE(text.find("cx q[0],q[1];"), std::string::npos);
}

TEST(Writer, PhaseGateUsesU1Spelling) {
  Circuit c(1);
  c.p(0.5, 0);
  EXPECT_NE(to_qasm(c).find("u1(0.5"), std::string::npos);
}

TEST(Writer, MeasureArrow) {
  Circuit c(2);
  c.measure(1);
  EXPECT_NE(to_qasm(c).find("measure q[1] -> c[1];"), std::string::npos);
}

TEST(RoundTrip, StructurePreserved) {
  Circuit c(3);
  c.h(0).t(1);
  c.add(GateKind::kSdg, {2});
  c.cx(0, 1).cz(1, 2).swap(0, 2);
  c.rx(0.3, 0).ry(-0.7, 1).rz(M_PI / 3, 2).p(0.9, 0).cp(0.11, 0, 1);
  c.ccx(0, 1, 2);
  c.barrier({0, 1, 2});
  c.measure(0);

  auto result = parse(to_qasm(c));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const Circuit& back = result.value();
  EXPECT_EQ(back.num_qubits(), 3);
  // ccz-free circuit: same gate sequence must round-trip exactly by kind.
  ASSERT_EQ(back.size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(back.gates()[i].kind, c.gates()[i].kind) << "gate " << i;
    EXPECT_EQ(back.gates()[i].qubits, c.gates()[i].qubits) << "gate " << i;
  }
}

TEST(RoundTrip, AnglesSurviveWithHighPrecision) {
  Circuit c(1);
  c.rz(1.0 / 3.0, 0).u3(0.123456789, -2.3456789, 3.0101010101, 0);
  auto result = parse(to_qasm(c));
  ASSERT_TRUE(result.is_ok());
  const auto& gates = result.value().gates();
  EXPECT_NEAR(gates[0].params[0], 1.0 / 3.0, 1e-10);
  EXPECT_NEAR(gates[1].params[1], -2.3456789, 1e-10);
}

// ---------------------------------------------------------------------------
// cQASM writer
// ---------------------------------------------------------------------------

TEST(Cqasm, HeaderAndKernel) {
  Circuit c(3, "bell");
  c.h(0).cx(0, 1);
  std::string text = to_cqasm(c);
  EXPECT_NE(text.find("version 1.0"), std::string::npos);
  EXPECT_NE(text.find("qubits 3"), std::string::npos);
  EXPECT_NE(text.find(".bell"), std::string::npos);
  EXPECT_NE(text.find("cnot q[0],q[1]"), std::string::npos);
}

TEST(Cqasm, SpellingTable) {
  Circuit c(2);
  c.add(GateKind::kSdg, {0});
  c.add(GateKind::kTdg, {1});
  c.sx(0).measure(1).reset(0).cp(0.5, 0, 1);
  std::string text = to_cqasm(c);
  EXPECT_NE(text.find("sdag q[0]"), std::string::npos);
  EXPECT_NE(text.find("tdag q[1]"), std::string::npos);
  EXPECT_NE(text.find("x90 q[0]"), std::string::npos);
  EXPECT_NE(text.find("measure_z q[1]"), std::string::npos);
  EXPECT_NE(text.find("prep_z q[0]"), std::string::npos);
  EXPECT_NE(text.find("cr q[0],q[1],0.5"), std::string::npos);
}

TEST(Cqasm, AnglesAfterOperands) {
  Circuit c(1);
  c.rx(1.25, 0);
  EXPECT_NE(to_cqasm(c).find("rx q[0],1.25"), std::string::npos);
}

TEST(Cqasm, BarrierOmitted) {
  Circuit c(2);
  c.h(0);
  c.barrier({0, 1});
  EXPECT_EQ(to_cqasm(c).find("barrier"), std::string::npos);
}

TEST(Cqasm, UnsupportedGateIsContractViolation) {
  Circuit c(3);
  c.add(GateKind::kCswap, {0, 1, 2});  // no cQASM 1.0 spelling
  EXPECT_THROW((void)to_cqasm(c), AssertionError);
}

TEST(Cqasm, TimedProgramBundlesAndWaits) {
  // Build a program by scheduling a small circuit on a line device.
  device::Device d = device::line_device(2);
  Circuit c(2, "timed");
  c.rx(0.5, 0).rx(0.25, 0).measure(1);
  auto schedule = compiler::asap_schedule(c, d);
  auto program = isa::lower_to_timed_program(c, schedule);
  std::string text = to_cqasm(program);
  EXPECT_NE(text.find("version 1.0"), std::string::npos);
  EXPECT_NE(text.find("rx q[0],0.5"), std::string::npos);
  // measure starts at cycle 0 with rx -> same bundle with '|'.
  EXPECT_NE(text.find(" | "), std::string::npos);
  EXPECT_NE(text.find("{ "), std::string::npos);
}

TEST(Cqasm, TimedProgramEmitsWaitForGaps) {
  device::Device d = device::line_device(2);
  Circuit c(2);
  c.cz(0, 1).rx(0.1, 0);  // cz takes 2 cycles -> 1-cycle wait before rx
  auto program =
      isa::lower_to_timed_program(c, compiler::asap_schedule(c, d));
  std::string text = to_cqasm(program);
  EXPECT_NE(text.find("wait 1"), std::string::npos);
}

// Property sweep: random circuits survive write -> parse -> unitary check.
class QasmRoundTripSweep : public ::testing::TestWithParam<int> {};

TEST_P(QasmRoundTripSweep, RandomCircuitEquivalentAfterRoundTrip) {
  qfs::Rng rng(static_cast<std::uint64_t>(GetParam()));
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = 4;
  spec.num_gates = 25;
  spec.two_qubit_fraction = 0.4;
  Circuit c = workloads::random_circuit(spec, rng);
  auto back = parse(to_qasm(c));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_TRUE(sim::circuits_equivalent(c, back.value(), 1e-8))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, QasmRoundTripSweep, ::testing::Range(0, 12));

TEST(RoundTrip, UnitaryEquivalent) {
  Circuit c(3);
  c.h(0).cx(0, 1).t(2).ccz(0, 1, 2).swap(1, 2).rz(0.77, 0);
  auto result = parse(to_qasm(c));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  // ccz is emitted as h-ccx-h; the unitary must still match.
  EXPECT_TRUE(sim::circuits_equivalent(c, result.value(), 1e-9));
}

}  // namespace
}  // namespace qfs::qasm

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/checkers.h"
#include "analysis/diagnostic.h"
#include "compiler/schedule.h"
#include "device/device.h"
#include "isa/timed_program.h"
#include "mapper/pipeline.h"
#include "qasm/parser.h"
#include "support/rng.h"
#include "workloads/algorithms.h"
#include "workloads/random_circuit.h"
#include "workloads/suite.h"

namespace qfs::analysis {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

std::vector<std::string> codes_of(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> codes;
  for (const Diagnostic& d : diags) codes.push_back(d.code);
  return codes;
}

bool contains_code(const std::vector<Diagnostic>& diags,
                   const std::string& code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic& first_with_code(const std::vector<Diagnostic>& diags,
                                  const std::string& code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return d;
  }
  ADD_FAILURE() << "no diagnostic with code " << code;
  static const Diagnostic none;
  return none;
}

// ---------------------------------------------------------------------------
// Registry integrity
// ---------------------------------------------------------------------------

TEST(Registry, CodesAreUniqueAndWellFormed) {
  std::vector<std::string> seen;
  for (const CheckerInfo& info : checker_registry()) {
    std::string code = info.code;
    EXPECT_EQ(code.size(), 6u) << code;
    EXPECT_TRUE(code.rfind("QFS", 0) == 0) << code;
    EXPECT_EQ(std::count(seen.begin(), seen.end(), code), 0)
        << "duplicate code " << code;
    seen.push_back(code);
    EXPECT_NE(info.name, nullptr);
    EXPECT_NE(info.summary, nullptr);
  }
  EXPECT_GE(seen.size(), 10u);
}

TEST(Registry, FindCheckerRoundTrips) {
  for (const CheckerInfo& info : checker_registry()) {
    const CheckerInfo* found = find_checker(info.code);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, &info);
  }
  EXPECT_EQ(find_checker("QFS999"), nullptr);
}

// ---------------------------------------------------------------------------
// Raw-gate checkers: the un-asserting entry point can hold violations the
// constructive Circuit API rejects by crashing.
// ---------------------------------------------------------------------------

TEST(Checkers, Qfs001QubitOutOfRange) {
  std::vector<Gate> gates = {Gate{GateKind::kCx, {0, 5}, {}}};
  auto diags = analyze_gates(3, gates);
  const Diagnostic& d = first_with_code(diags, "QFS001");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.gate_index, 0);
  EXPECT_EQ(d.location.qubit, 5);
}

TEST(Checkers, Qfs001NegativeQubit) {
  std::vector<Gate> gates = {Gate{GateKind::kH, {-1}, {}}};
  auto diags = analyze_gates(2, gates);
  EXPECT_TRUE(contains_code(diags, "QFS001"));
}

TEST(Checkers, Qfs002DuplicateOperand) {
  std::vector<Gate> gates = {Gate{GateKind::kCz, {1, 1}, {}}};
  auto diags = analyze_gates(2, gates);
  const Diagnostic& d = first_with_code(diags, "QFS002");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.gate_index, 0);
  EXPECT_EQ(d.location.qubit, 1);
}

TEST(Checkers, Qfs003GateAfterMeasure) {
  Circuit c(2);
  c.h(0).cx(0, 1).measure(0).h(0);
  auto diags = analyze_circuit(c);
  const Diagnostic& d = first_with_code(diags, "QFS003");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.location.gate_index, 3);
  EXPECT_EQ(d.location.qubit, 0);
}

TEST(Checkers, Qfs003ResetClearsMeasuredState) {
  Circuit c(2);
  c.h(0).cx(0, 1).measure(0).reset(0).h(0);
  auto diags = analyze_circuit(c);
  EXPECT_FALSE(contains_code(diags, "QFS003"));
}

TEST(Checkers, Qfs004IdleQubit) {
  Circuit c(3);
  c.h(0).cx(0, 1);
  auto diags = analyze_circuit(c);
  const Diagnostic& d = first_with_code(diags, "QFS004");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.location.qubit, 2);
}

TEST(Checkers, Qfs004SuppressedOnPhysicalCircuits) {
  device::Device dev = device::line_device(6);
  Circuit c(6);
  c.rz(0.5, 0);
  CheckOptions opts;
  opts.device = &dev;
  opts.physical = true;
  EXPECT_FALSE(contains_code(analyze_circuit(c, opts), "QFS004"));
  // ... but still reported at the lint stage.
  EXPECT_TRUE(contains_code(analyze_circuit(c), "QFS004"));
}

TEST(Checkers, Qfs005NonNativeGate) {
  device::Device dev = device::line_device(4);  // surface-code gate set
  Circuit c(2);
  c.t(0).cz(0, 1);
  CheckOptions opts;
  opts.device = &dev;
  opts.physical = true;
  auto diags = analyze_circuit(c, opts);
  const Diagnostic& d = first_with_code(diags, "QFS005");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.gate_index, 0);
  // cz is native: exactly one non-native finding.
  const std::vector<std::string> codes = codes_of(diags);
  EXPECT_EQ(std::count(codes.begin(), codes.end(), std::string("QFS005")), 1);
}

TEST(Checkers, Qfs006NonAdjacentPair) {
  device::Device dev = device::line_device(4);
  Circuit c(4);
  c.cz(0, 1).cz(0, 3);
  CheckOptions opts;
  opts.device = &dev;
  opts.physical = true;
  auto diags = analyze_circuit(c, opts);
  const Diagnostic& d = first_with_code(diags, "QFS006");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.gate_index, 1);
}

TEST(Checkers, Qfs008UnreachableAfterMeasureAll) {
  Circuit c(2);
  c.h(0).cx(0, 1).measure(0).measure(1).h(0);
  auto diags = analyze_circuit(c);
  const Diagnostic& d = first_with_code(diags, "QFS008");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.location.gate_index, 4);
}

TEST(Checkers, Qfs009OversizedRegister) {
  device::Device dev = device::line_device(3);
  Circuit c(5);
  c.rz(0.1, 4);
  CheckOptions opts;
  opts.device = &dev;
  opts.physical = true;
  auto diags = analyze_circuit(c, opts);
  EXPECT_TRUE(contains_code(diags, "QFS009"));

  // A timed program wider than the device.
  isa::TimedProgram wide("wide", 20.0, 5, {});
  EXPECT_TRUE(contains_code(analyze_timed_program(wide, dev), "QFS009"));
}

TEST(Checkers, CleanCircuitHasNoFindings) {
  device::Device dev = device::line_device(3);
  Circuit c(3);
  c.rz(0.5, 0).cz(0, 1).cz(1, 2).measure(0).measure(1).measure(2);
  CheckOptions opts;
  opts.device = &dev;
  opts.physical = true;
  EXPECT_TRUE(analyze_circuit(c, opts).empty());
  EXPECT_TRUE(analyze_circuit(c).empty());
}

// ---------------------------------------------------------------------------
// Timed-program checkers (QFS007: the control-group / double-booking
// contract test — QASM cannot express timing, so the violation is seeded
// directly).
// ---------------------------------------------------------------------------

TEST(TimedProgram, Qfs007ControlGroupKindMixing) {
  device::Device dev = device::line_device(4);
  dev.set_control_groups({0, 0, 1, 1});
  // Qubits 0 and 1 share a control group but run different kinds in
  // overlapping cycles — exactly what shared analog electronics forbid.
  std::vector<isa::Bundle> bundles = {
      {0,
       {isa::Instruction{GateKind::kRx, {0}, {0.5}, 2},
        isa::Instruction{GateKind::kRy, {1}, {0.5}, 2}}},
  };
  isa::TimedProgram program("mixed", 20.0, 4, bundles);
  auto diags = analyze_timed_program(program, dev);
  const Diagnostic& d = first_with_code(diags, "QFS007");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("control group"), std::string::npos);

  // The same clash in surface-17's own control groups (qubits 0 and 1 are
  // both in group 0), one cycle long.
  device::Device surface = device::surface17_device();
  std::vector<isa::Bundle> one_cycle = {
      {0,
       {isa::Instruction{GateKind::kRx, {0}, {0.1}, 1},
        isa::Instruction{GateKind::kRy, {1}, {0.1}, 1}}},
  };
  isa::TimedProgram clash("bad", 20.0, 17, one_cycle);
  EXPECT_NE(first_with_code(analyze_timed_program(clash, surface), "QFS007")
                .message.find("control group"),
            std::string::npos);
}

TEST(TimedProgram, Qfs007QubitDoubleBooked) {
  device::Device dev = device::line_device(4);
  std::vector<isa::Bundle> bundles = {
      {0, {isa::Instruction{GateKind::kRx, {0}, {0.5}, 3}}},
      {1, {isa::Instruction{GateKind::kRy, {0}, {0.5}, 1}}},
  };
  isa::TimedProgram program("overlap", 20.0, 4, bundles);
  auto diags = analyze_timed_program(program, dev);
  const Diagnostic& d = first_with_code(diags, "QFS007");
  EXPECT_NE(d.message.find("double-booked"), std::string::npos);

  // A single-qubit gate starting inside a two-cycle two-qubit gate.
  device::Device pair = device::line_device(2);
  std::vector<isa::Bundle> inside = {
      {0, {isa::Instruction{GateKind::kCz, {0, 1}, {}, 2}}},
      {1, {isa::Instruction{GateKind::kX, {0}, {}, 1}}},
  };
  isa::TimedProgram overlap("bad", 20.0, 2, inside);
  EXPECT_NE(first_with_code(analyze_timed_program(overlap, pair), "QFS007")
                .message.find("double-booked"),
            std::string::npos);
}

TEST(TimedProgram, Qfs006NonAdjacentInstruction) {
  device::Device dev = device::line_device(4);
  std::vector<isa::Bundle> bundles = {
      {0, {isa::Instruction{GateKind::kCz, {0, 3}, {}, 1}}},
  };
  isa::TimedProgram program("nonadj", 20.0, 4, bundles);
  auto diags = analyze_timed_program(program, dev);
  EXPECT_TRUE(contains_code(diags, "QFS006"));

  // Two qubits of a three-qubit line with one in between.
  device::Device line3 = device::line_device(3);
  std::vector<isa::Bundle> skip = {
      {0, {isa::Instruction{GateKind::kCz, {0, 2}, {}, 2}}},
  };
  isa::TimedProgram uncoupled("bad", 20.0, 3, skip);
  EXPECT_TRUE(
      contains_code(analyze_timed_program(uncoupled, line3), "QFS006"));
}

TEST(TimedProgram, CleanProgramHasNoFindings) {
  device::Device dev = device::line_device(4);
  dev.set_control_groups({0, 0, 1, 1});
  std::vector<isa::Bundle> bundles = {
      {0,
       {isa::Instruction{GateKind::kRx, {0}, {0.5}, 2},
        isa::Instruction{GateKind::kRx, {1}, {0.5}, 2}}},
      {2, {isa::Instruction{GateKind::kCz, {0, 1}, {}, 1}}},
  };
  isa::TimedProgram program("clean", 20.0, 4, bundles);
  EXPECT_TRUE(analyze_timed_program(program, dev).empty());
}

TEST(TimedProgram, Qfs007SilentOnCompiledSuitePrograms) {
  // Compile + schedule + lower a slice of the paper suite, QFT-5 and four
  // random circuits: the compiled programs are well-formed, so every
  // schedule checker stays silent.
  device::Device dev = device::surface17_device();
  auto expect_clean = [&dev](const std::string& name,
                             const mapper::MappingResult& result) {
    compiler::Schedule schedule = compiler::asap_schedule(result.mapped, dev);
    isa::TimedProgram program =
        isa::lower_to_timed_program(result.mapped, schedule);
    EXPECT_EQ(program.instruction_count(), result.mapped.gate_count()) << name;
    std::vector<Diagnostic> diags = analyze_timed_program(program, dev);
    EXPECT_TRUE(diags.empty()) << name << ":\n" << render_diagnostics(diags);
  };

  workloads::SuiteOptions suite_opts;
  suite_opts.random_count = 4;
  suite_opts.real_count = 4;
  suite_opts.reversible_count = 2;
  suite_opts.max_qubits = 17;
  suite_opts.max_gates = 400;
  qfs::Rng suite_rng(21);
  auto suite = workloads::make_suite(suite_opts, suite_rng);

  mapper::MappingOptions options;
  options.placer = "degree-match";
  options.router = "lookahead";
  for (std::size_t i = 0; i < suite.size(); ++i) {
    qfs::Rng rng(i);
    expect_clean(suite[i].name,
                 mapper::map_circuit(suite[i].circuit, dev, options, rng));
  }

  // Under the default mapping options.
  qfs::Rng qft_rng(1);
  expect_clean("qft5", mapper::map_circuit(workloads::qft(5), dev, qft_rng));
  qfs::Rng gen(2);
  for (int trial = 0; trial < 4; ++trial) {
    workloads::RandomCircuitSpec spec;
    spec.num_qubits = 8;
    spec.num_gates = 60;
    spec.two_qubit_fraction = 0.35;
    Circuit c = workloads::random_circuit(spec, gen);
    qfs::Rng rng(static_cast<std::uint64_t>(trial));
    expect_clean("random trial " + std::to_string(trial),
                 mapper::map_circuit(c, dev, rng));
  }
}

// ---------------------------------------------------------------------------
// Source-level linting
// ---------------------------------------------------------------------------

TEST(LintSource, MapsParserRangeErrorToQfs001) {
  auto diags = lint_source(
      "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[7];\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "QFS001");
  EXPECT_EQ(diags[0].location.line, 3);
}

TEST(LintSource, MapsRepeatedOperandToQfs002) {
  auto diags = lint_source("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "QFS002");
  EXPECT_EQ(diags[0].location.line, 3);
}

TEST(LintSource, MapsOtherParseErrorsToQfs100) {
  auto diags = lint_source("OPENQASM 2.0;\nqreg q[2];\nwat q[0];\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "QFS100");
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST(LintSource, CleanSourceRunsCircuitCheckers) {
  auto diags =
      lint_source("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n");  // q[1] idle
  EXPECT_TRUE(contains_code(diags, "QFS004"));
  EXPECT_FALSE(has_errors(diags));
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

TEST(Rendering, HumanFormatIncludesSourceLocationAndCode) {
  Diagnostic d;
  d.code = "QFS001";
  d.severity = Severity::kError;
  d.message = "qubit operand 5 out of range";
  d.location.gate_index = 4;
  EXPECT_EQ(diagnostic_to_string(d, "in.qasm"),
            "in.qasm: gate 4: error[QFS001]: qubit operand 5 out of range");
  d.location.line = 12;  // line wins over gate index
  EXPECT_EQ(diagnostic_to_string(d),
            "line 12: error[QFS001]: qubit operand 5 out of range");
}

TEST(Rendering, JsonOmitsUnknownLocationFields) {
  Diagnostic d;
  d.code = "QFS009";
  d.severity = Severity::kError;
  d.message = "too wide";
  std::string json = diagnostics_to_json({d}).to_string();
  EXPECT_NE(json.find("\"code\":\"QFS009\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_EQ(json.find("\"line\""), std::string::npos);
  EXPECT_EQ(json.find("\"gate\""), std::string::npos);
}

TEST(Rendering, SummaryCountsBySeverity) {
  Diagnostic e;
  e.severity = Severity::kError;
  Diagnostic w;
  w.severity = Severity::kWarning;
  EXPECT_EQ(diagnostic_summary({e, w, w}), "1 error, 2 warnings");
  EXPECT_EQ(diagnostic_summary({}), "0 errors, 0 warnings");
}

}  // namespace
}  // namespace qfs::analysis

#include "analysis/checkers.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "qasm/parser.h"
#include "support/strings.h"

namespace qfs::analysis {

using circuit::Gate;
using circuit::GateKind;

namespace {

std::string gate_label(const Gate& g) {
  return std::string(circuit::gate_name(g.kind));
}

/// A diagnostic with its code's severity from checker_registry(), the one
/// place each severity is set.
Diagnostic make_diag(const char* code, std::string message,
                     SourceLocation loc = {}) {
  const CheckerInfo* info = find_checker(code);
  QFS_ASSERT_MSG(info != nullptr, std::string("unregistered code ") + code);
  Diagnostic d;
  d.code = code;
  d.severity = info->severity;
  d.message = std::move(message);
  d.location = loc;
  return d;
}

/// QFS009: register wider than the device.
void check_register_width(int num_qubits, const CheckOptions& options,
                          std::vector<Diagnostic>& out) {
  if (options.device == nullptr) return;
  if (num_qubits <= options.device->num_qubits()) return;
  std::ostringstream os;
  os << "circuit uses " << num_qubits << " qubits but device '"
     << options.device->name() << "' has only "
     << options.device->num_qubits();
  out.push_back(make_diag("QFS009", os.str()));
}

/// QFS004: declared-but-never-used qubits (lint stage only — on a mapped
/// physical circuit most of the chip is legitimately idle).
void check_idle_qubits(int num_qubits, const std::vector<Gate>& gates,
                       std::vector<Diagnostic>& out) {
  std::vector<bool> used(static_cast<std::size_t>(num_qubits), false);
  for (const Gate& g : gates) {
    if (g.kind == GateKind::kBarrier) continue;
    for (int q : g.qubits) {
      if (q >= 0 && q < num_qubits) used[static_cast<std::size_t>(q)] = true;
    }
  }
  for (int q = 0; q < num_qubits; ++q) {
    if (used[static_cast<std::size_t>(q)]) continue;
    std::ostringstream os;
    os << "qubit " << q << " is declared but never used";
    out.push_back(make_diag("QFS004", os.str(), SourceLocation{-1, -1, q}));
  }
}

}  // namespace

const std::vector<CheckerInfo>& checker_registry() {
  static const std::vector<CheckerInfo> registry = {
      {"QFS001", Severity::kError, "qubit-range",
       "qubit operand out of range", Stage::kBoth},
      {"QFS002", Severity::kError, "duplicate-operand",
       "duplicate qubit operands on one gate", Stage::kBoth},
      {"QFS003", Severity::kWarning, "gate-after-measure",
       "gate acts on an already-measured qubit", Stage::kBoth},
      {"QFS004", Severity::kWarning, "idle-qubit",
       "declared qubit is never used", Stage::kLint},
      {"QFS005", Severity::kError, "non-native-gate",
       "gate not in the device's primitive gate set", Stage::kVerify},
      {"QFS006", Severity::kError, "non-adjacent-pair",
       "two-qubit gate on a non-adjacent physical pair", Stage::kVerify},
      {"QFS007", Severity::kError, "timing-overlap",
       "timed-program overlap on a qubit or within a control group",
       Stage::kVerify},
      {"QFS008", Severity::kWarning, "unreachable-after-measure-all",
       "operations after every used qubit has been measured", Stage::kLint},
      {"QFS009", Severity::kError, "oversized-register",
       "circuit register wider than the device", Stage::kVerify},
      {"QFS100", Severity::kError, "parse-error",
       "QASM source does not parse", Stage::kBoth},
      // Translation validation (analysis/equiv.h): artifact-vs-source
      // findings from the permutation-tracking matcher.
      {"QFS101", Severity::kError, "artifact-structure",
       "compiled artifact is structurally invalid (layout size, range or "
       "injectivity, register width)",
       Stage::kVerify},
      {"QFS102", Severity::kError, "unmatched-physical-gate",
       "physical gate matches no pending source gate under the tracked "
       "permutation",
       Stage::kVerify},
      {"QFS103", Severity::kError, "missing-source-gate",
       "source gate was never realized in the mapped circuit",
       Stage::kVerify},
      {"QFS104", Severity::kError, "parameter-mismatch",
       "physical gate realizes a source gate with mismatched parameters",
       Stage::kVerify},
      {"QFS105", Severity::kError, "dead-or-distant-coupler",
       "two-qubit gate on a physical pair with no live coupler",
       Stage::kVerify},
      {"QFS106", Severity::kError, "non-native-translation",
       "mapped circuit contains a gate outside the device's native set",
       Stage::kVerify},
      {"QFS107", Severity::kError, "final-layout-mismatch",
       "reported final layout differs from the accumulated permutation",
       Stage::kVerify},
      {"QFS108", Severity::kError, "schedule-order-violation",
       "timed program violates per-qubit order, durations or booking",
       Stage::kVerify},
      {"QFS109", Severity::kError, "swap-count-mismatch",
       "artifact swap metadata disagrees with the mapped circuit",
       Stage::kVerify},
      {"QFS110", Severity::kError, "operand-order-mismatch",
       "physical gate reverses the operand order of its source gate",
       Stage::kVerify},
  };
  return registry;
}

const CheckerInfo* find_checker(const std::string& code) {
  for (const CheckerInfo& info : checker_registry()) {
    if (code == info.code) return &info;
  }
  return nullptr;
}

std::vector<Diagnostic> analyze_gates(int num_qubits,
                                      const std::vector<Gate>& gates,
                                      const CheckOptions& options) {
  std::vector<Diagnostic> out;
  const device::Device* dev = options.physical ? options.device : nullptr;
  if (options.physical) check_register_width(num_qubits, options, out);

  // Which qubits carry a collapsed (measured, not-yet-reset) state, and
  // which are ever used — the inputs to QFS003/QFS008.
  std::vector<bool> measured(static_cast<std::size_t>(num_qubits), false);
  std::set<int> used_qubits;
  for (const Gate& g : gates) {
    if (g.kind == GateKind::kBarrier) continue;
    for (int q : g.qubits) {
      if (q >= 0 && q < num_qubits) used_qubits.insert(q);
    }
  }
  bool measure_all_reported = false;
  int measured_used_count = 0;

  for (int i = 0; i < static_cast<int>(gates.size()); ++i) {
    const Gate& g = gates[static_cast<std::size_t>(i)];

    // QFS001: operand range.
    bool in_range = true;
    for (int q : g.qubits) {
      if (q >= 0 && q < num_qubits) continue;
      in_range = false;
      std::ostringstream os;
      os << "qubit operand " << q << " of gate '" << gate_label(g)
         << "' is out of range for a circuit of width " << num_qubits;
      out.push_back(make_diag("QFS001", os.str(), SourceLocation{-1, i, q}));
    }

    // QFS002: duplicate operands.
    std::set<int> seen;
    for (int q : g.qubits) {
      if (!seen.insert(q).second) {
        std::ostringstream os;
        os << "gate '" << gate_label(g) << "' lists qubit " << q
           << " more than once";
        out.push_back(make_diag("QFS002", os.str(), SourceLocation{-1, i, q}));
      }
    }

    if (g.kind == GateKind::kBarrier) continue;

    // QFS008: anything after measure-all is unreachable (reported once).
    if (!measure_all_reported && !used_qubits.empty() &&
        measured_used_count == static_cast<int>(used_qubits.size())) {
      std::ostringstream os;
      os << "operation '" << gate_label(g)
         << "' is unreachable: every used qubit has already been measured";
      out.push_back(make_diag("QFS008", os.str(), SourceLocation{-1, i, -1}));
      measure_all_reported = true;
    }

    // QFS003 and the measured-state bookkeeping.
    for (int q : g.qubits) {
      if (q < 0 || q >= num_qubits) continue;
      auto idx = static_cast<std::size_t>(q);
      if (g.kind == GateKind::kMeasure) {
        if (!measured[idx] && used_qubits.count(q)) ++measured_used_count;
        measured[idx] = true;
      } else if (g.kind == GateKind::kReset) {
        if (measured[idx] && used_qubits.count(q)) --measured_used_count;
        measured[idx] = false;
      } else if (measured[idx]) {
        std::ostringstream os;
        os << "gate '" << gate_label(g) << "' acts on qubit " << q
           << " after it was measured (no reset in between)";
        out.push_back(make_diag("QFS003", os.str(), SourceLocation{-1, i, q}));
      }
    }

    // QFS005: primitive-gate-set conformance (verify stage).
    if (dev != nullptr && !dev->gateset().supports(g.kind)) {
      std::ostringstream os;
      os << "gate '" << gate_label(g) << "' is not in device '"
         << dev->name() << "' gate set '" << dev->gateset().name() << "'";
      out.push_back(make_diag("QFS005", os.str(), SourceLocation{-1, i, -1}));
    }

    // QFS006: coupling-graph adjacency (verify stage).
    if (dev != nullptr && in_range && circuit::is_unitary(g.kind) &&
        g.qubits.size() >= 2 &&
        g.qubits.size() <= static_cast<std::size_t>(dev->num_qubits())) {
      for (std::size_t a = 0; a < g.qubits.size(); ++a) {
        for (std::size_t b = a + 1; b < g.qubits.size(); ++b) {
          if (g.qubits[a] == g.qubits[b]) continue;
          if (g.qubits[a] >= dev->num_qubits() ||
              g.qubits[b] >= dev->num_qubits()) {
            continue;  // already QFS009 territory
          }
          if (dev->topology().adjacent(g.qubits[a], g.qubits[b])) continue;
          std::ostringstream os;
          os << "gate '" << gate_label(g) << "' couples qubits "
             << g.qubits[a] << " and " << g.qubits[b]
             << ", which are not adjacent on device '" << dev->name() << "'";
          out.push_back(make_diag("QFS006", os.str(),
                                  SourceLocation{-1, i, g.qubits[a]}));
        }
      }
    }
  }

  if (!options.physical) check_idle_qubits(num_qubits, gates, out);
  return out;
}

std::vector<Diagnostic> analyze_circuit(const circuit::Circuit& circuit,
                                        const CheckOptions& options) {
  return analyze_gates(circuit.num_qubits(), circuit.gates(), options);
}

std::vector<Diagnostic> analyze_timed_program(const isa::TimedProgram& program,
                                              const device::Device& device) {
  std::vector<Diagnostic> out;
  if (program.num_qubits() > device.num_qubits()) {
    std::ostringstream os;
    os << "program uses " << program.num_qubits() << " qubits but device '"
       << device.name() << "' has only " << device.num_qubits();
    out.push_back(make_diag("QFS009", os.str()));
  }

  struct Span {
    int start, end, instr;
    GateKind kind;
  };
  std::vector<std::vector<Span>> busy(
      static_cast<std::size_t>(std::max(program.num_qubits(), 0)));
  std::map<int, std::vector<Span>> group_spans;

  int instr_index = 0;
  for (const isa::Bundle& b : program.bundles()) {
    for (const isa::Instruction& ins : b.instructions) {
      const int end = b.start_cycle + std::max(ins.duration_cycles, 1);
      if (ins.duration_cycles <= 0) {
        std::ostringstream os;
        os << "instruction '" << circuit::gate_name(ins.kind) << "' at cycle "
           << b.start_cycle << " has non-positive duration "
           << ins.duration_cycles;
        out.push_back(make_diag("QFS007", os.str(),
                                SourceLocation{-1, instr_index, -1}));
      }
      bool in_range = true;
      for (int q : ins.qubits) {
        if (q >= 0 && q < program.num_qubits()) continue;
        in_range = false;
        std::ostringstream os;
        os << "operand " << q << " of instruction '"
           << circuit::gate_name(ins.kind) << "' at cycle " << b.start_cycle
           << " is out of range for a " << program.num_qubits()
           << "-qubit program";
        out.push_back(make_diag("QFS001", os.str(),
                                SourceLocation{-1, instr_index, q}));
      }
      if (in_range) {
        for (int q : ins.qubits) {
          auto idx = static_cast<std::size_t>(q);
          for (const Span& s : busy[idx]) {
            if (b.start_cycle < s.end && s.start < end) {
              std::ostringstream os;
              os << "qubit " << q << " is double-booked: instructions "
                 << s.instr << " and " << instr_index
                 << " overlap in cycles [" << std::max(s.start, b.start_cycle)
                 << ", " << std::min(s.end, end) << ")";
              out.push_back(make_diag("QFS007", os.str(),
                                      SourceLocation{-1, instr_index, q}));
            }
          }
          busy[idx].push_back(Span{b.start_cycle, end, instr_index, ins.kind});
          if (device.has_control_groups() && q < device.num_qubits()) {
            group_spans[device.control_group(q)].push_back(
                Span{b.start_cycle, end, instr_index, ins.kind});
          }
        }
      }
      if (in_range && circuit::is_two_qubit(ins.kind) &&
          ins.qubits.size() == 2 && ins.qubits[0] < device.num_qubits() &&
          ins.qubits[1] < device.num_qubits() &&
          !device.topology().adjacent(ins.qubits[0], ins.qubits[1])) {
        std::ostringstream os;
        os << "instruction '" << circuit::gate_name(ins.kind)
           << "' couples qubits " << ins.qubits[0] << " and " << ins.qubits[1]
           << ", which are not adjacent on device '" << device.name() << "'";
        out.push_back(make_diag("QFS006", os.str(),
                                SourceLocation{-1, instr_index, ins.qubits[0]}));
      }
      ++instr_index;
    }
  }

  // Control groups: overlapping instructions within one group must share a
  // gate kind (shared analog electronics broadcast one waveform).
  for (const auto& [group, spans] : group_spans) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        if (spans[i].kind == spans[j].kind) continue;
        if (spans[i].instr == spans[j].instr) continue;
        if (spans[i].start < spans[j].end && spans[j].start < spans[i].end) {
          std::ostringstream os;
          os << "control group " << group << " runs '"
             << circuit::gate_name(spans[i].kind) << "' and '"
             << circuit::gate_name(spans[j].kind)
             << "' in overlapping cycles (instructions " << spans[i].instr
             << " and " << spans[j].instr << ")";
          out.push_back(make_diag("QFS007", os.str(),
                                  SourceLocation{-1, spans[j].instr, -1}));
        }
      }
    }
  }
  return out;
}

std::vector<Diagnostic> lint_source(const std::string& qasm_source,
                                    const CheckOptions& options) {
  auto parsed = qasm::parse(qasm_source);
  if (!parsed.is_ok()) {
    // The parser polices two of our invariants itself; surface those under
    // their own codes (with the source line), everything else as QFS100.
    std::string msg = parsed.status().message();
    SourceLocation loc;
    if (starts_with(msg, "line ")) {
      int line = 0;
      auto colon = msg.find(':');
      if (colon != std::string::npos &&
          parse_int(std::string_view(msg).substr(5, colon - 5), line)) {
        loc.line = line;
        // The renderer prints the location itself; drop the textual prefix.
        msg = std::string(trim(std::string_view(msg).substr(colon + 1)));
      }
    }
    const char* code = "QFS100";
    if (msg.find("qubit index out of range") != std::string::npos) {
      code = "QFS001";
    } else if (msg.find("repeated qubit operand") != std::string::npos) {
      code = "QFS002";
    }
    return {make_diag(code, std::move(msg), loc)};
  }
  return analyze_circuit(parsed.value(), options);
}

}  // namespace qfs::analysis

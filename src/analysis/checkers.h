// Static circuit checkers: machine-checked validity without simulation.
//
// The registry runs over circuits (logical or mapped-physical), raw gate
// lists, timed ISA programs, and QASM sources, and reports findings as
// Diagnostics (diagnostic.h). Nothing here asserts on bad input — the
// whole point is to diagnose-and-explain what the constructive APIs would
// reject by crashing.
//
// Diagnostic code table (stable; never renumber):
//   QFS001 error    qubit operand out of range
//   QFS002 error    duplicate qubit operands on one gate
//   QFS003 warning  gate acts on an already-measured qubit
//   QFS004 warning  declared qubit is never used
//   QFS005 error    gate not in the device's primitive gate set
//   QFS006 error    two-qubit gate on a non-adjacent physical pair
//   QFS007 error    timed-program overlap (qubit double-booked, or mixed
//                   gate kinds overlapping within one control group)
//   QFS008 warning  unreachable operations after measure-all
//   QFS009 error    circuit register wider than the device
//   QFS100 error    QASM source does not parse
//   QFS101 error    compiled artifact is structurally invalid
//   QFS102 error    physical gate matches no pending source gate
//   QFS103 error    source gate never realized in the mapped circuit
//   QFS104 error    physical gate realizes a source gate with wrong params
//   QFS105 error    two-qubit gate on a pair with no live coupler
//   QFS106 error    mapped circuit contains a non-native gate
//   QFS107 error    final layout differs from the accumulated permutation
//   QFS108 error    timed program violates per-qubit order/durations
//   QFS109 error    swap metadata disagrees with the mapped circuit
//   QFS110 error    physical gate reverses its source operand order
//
// QFS001-004 and QFS008 are device-independent ("lint" stage); QFS005,
// QFS006, QFS007 and QFS009 need a device and only make sense for mapped
// physical circuits ("verify" stage). QFS101-QFS110 are produced by the
// translation validator (analysis/equiv.h), which checks a compiled
// artifact against its source circuit.
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "circuit/circuit.h"
#include "device/device.h"
#include "isa/timed_program.h"

namespace qfs::analysis {

/// What a checker applies to. Lint checks hold for any circuit; verify
/// checks treat the circuit as physical (qubit ids = device qubits).
enum class Stage {
  kLint,
  kVerify,
  kBoth,
};

struct CheckOptions {
  /// Device for the verify-stage checks; ignored unless `physical`.
  const device::Device* device = nullptr;
  /// Treat the circuit as mapped/physical: enable QFS005/006/009 (needs
  /// `device`) and disable lint-only checks that are meaningless after
  /// mapping (QFS004 — most physical qubits are legitimately idle).
  bool physical = false;
};

/// Registry row: one entry per diagnostic code, for docs, --help output
/// and table-driven tests.
struct CheckerInfo {
  const char* code;
  Severity severity;
  const char* name;     ///< short kebab-case identifier
  const char* summary;  ///< one-line description
  Stage stage;
};

/// All diagnostic codes, ascending (includes QFS007/QFS100, which are
/// produced by analyze_timed_program / lint_source rather than the
/// circuit-level walk).
const std::vector<CheckerInfo>& checker_registry();

/// Registry row for `code`, or nullptr for unknown codes.
const CheckerInfo* find_checker(const std::string& code);

/// Run every applicable checker over a raw gate list. This is the
/// un-asserting entry point: the gates may violate any invariant
/// (out-of-range operands, duplicates, ...) and every violation becomes a
/// diagnostic instead of a crash. Diagnostics come back ordered by gate
/// index (whole-circuit findings last).
std::vector<Diagnostic> analyze_gates(int num_qubits,
                                      const std::vector<circuit::Gate>& gates,
                                      const CheckOptions& options = {});

/// analyze_gates over a constructed Circuit (which already guarantees
/// QFS001/QFS002 hold; the remaining checkers still apply).
std::vector<Diagnostic> analyze_circuit(const circuit::Circuit& circuit,
                                        const CheckOptions& options = {});

/// Validate a timed ISA program against a device: operand ranges (QFS001),
/// coupling-graph adjacency (QFS006), qubit double-booking and control-
/// group kind mixing (QFS007).
std::vector<Diagnostic> analyze_timed_program(const isa::TimedProgram& program,
                                              const device::Device& device);

/// Lint a QASM source end to end: parse errors surface as QFS001/QFS002
/// (the two violations the parser itself polices, with their source line)
/// or QFS100 for anything else; a parseable source is then analyzed with
/// `options`.
std::vector<Diagnostic> lint_source(const std::string& qasm_source,
                                    const CheckOptions& options = {});

}  // namespace qfs::analysis

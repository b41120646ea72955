// Translation validation: prove, without simulation, that a compiled
// artifact still computes its source circuit.
//
// The validator symbolically tracks the logical->physical qubit permutation
// through the initial layout and every SWAP the router inserted, and checks
// that each physical gate realizes exactly one source gate (in dependency-
// respecting per-qubit order, with decomposition-aware matching for gates
// lowered by compiler/decompose), that every gate is native and every
// two-qubit gate lands on a live coupler, that an optional timed program
// respects per-qubit order and durations, and that the final/measurement
// remapping equals the accumulated permutation.
//
// Violations surface as stable diagnostics QFS101-QFS110 (see checkers.h
// for the registry) through the ordinary Diagnostic renderers, so qfsc,
// qfsd and the tests all print them the same way.
#pragma once

#include <span>
#include <vector>

#include "analysis/diagnostic.h"
#include "circuit/circuit.h"
#include "device/device.h"
#include "isa/timed_program.h"

namespace qfs::analysis {

/// Borrowed view of one compiled artifact. Deliberately built from primitive
/// fields rather than mapper::MappingResult so this library never depends on
/// the mapper (which itself links the analysis library for per-attempt
/// validation); callers copy the four fields out of their result type.
struct TranslationArtifact {
  /// The final physical circuit (required; borrowed, not owned).
  const circuit::Circuit* mapped = nullptr;

  /// Virtual -> physical maps over the source circuit's qubits.
  std::vector<int> initial_layout;
  std::vector<int> final_layout;

  /// Router-reported SWAP count; negative skips the QFS109 cross-check.
  int swaps_inserted = -1;

  /// Optional scheduled form of `mapped` (borrowed); enables QFS108.
  const isa::TimedProgram* timed = nullptr;
};

struct EquivOptions {
  /// Stop after this many findings (a broken artifact tends to cascade).
  int max_diagnostics = 8;
};

/// Validate that `artifact` is a faithful translation of `source` for
/// `device`. Returns an empty vector when the artifact checks out; findings
/// come back ordered by mapped-gate index where that is meaningful. Never
/// asserts on malformed artifacts — every defect becomes a diagnostic.
std::vector<Diagnostic> validate_translation(
    const circuit::Circuit& source, const device::Device& device,
    const TranslationArtifact& artifact, const EquivOptions& options = {});

/// The router's window shapes lowered once to one gate set, on canonical
/// qubits: swap(0,1), and the 4-CX bridge on (0,1,2), bare for a CX and
/// conjugated by h(2) for a CZ. Lowering only ever copies qubit indices, so
/// the lowering of a shape on physical qubits is its canonical template
/// with qubit k read as label k. Empty when the gate set has no entangling
/// primitive (no window can then be inserted).
struct WindowTemplates {
  explicit WindowTemplates(const device::GateSet& gateset);

  std::vector<circuit::Gate> swap;
  std::vector<circuit::Gate> bridge_cx;
  std::vector<circuit::Gate> bridge_cz;
};

/// True when `window` begins with `tmpl` under the relabelling canonical
/// qubit k -> labels[k]: kinds, parameters and relabelled operands equal.
bool matches_relabelled(std::span<const circuit::Gate> window,
                        const std::vector<circuit::Gate>& tmpl,
                        std::span<const int> labels);

/// True when validate_translation reports no error-severity findings.
bool translation_is_valid(const circuit::Circuit& source,
                          const device::Device& device,
                          const TranslationArtifact& artifact,
                          const EquivOptions& options = {});

}  // namespace qfs::analysis

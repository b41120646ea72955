// OpenQASM 2.0 parser.
//
// Supported: the OPENQASM/include headers; any number of qreg and creg
// declarations (quantum registers concatenate, in declaration order, into
// the circuit's one qubit index space); the qelib1 gate names that map
// onto the qfs vocabulary (id x y z h s sdg t tdg sx sxdg rx ry rz p/u1
// u3/u cx cy cz cp/cu1 swap ccx ccz cswap) and the QASMBench macros u2 rzz
// rxx crz cu3 ch, expanded inline; measure, reset, barrier, comments,
// angle expressions over + - * / ( ) pi and decimal literals (parentheses
// nest at most 64 deep), **user gate
// definitions** (`gate name(p) a,b { ... }`, expanded at invocation with
// parameter substitution, nested definitions allowed), and **register
// broadcast** (`h q;`, `measure q -> c;`, `cx q[0],q;`-style element-wise
// application).
//
// Unsupported constructs (if, opaque) produce a parse error that names the
// offending line. The parser reads the source in one pass and allocates
// per circuit, not per gate.
#pragma once

#include <string>

#include "circuit/circuit.h"
#include "support/status.h"

namespace qfs::qasm {

/// Parse a full OpenQASM 2.0 program into a Circuit.
qfs::StatusOr<circuit::Circuit> parse(const std::string& source);

/// Evaluate a constant angle expression ("pi/2", "-3*pi/4", "0.25").
/// Exposed for direct testing.
qfs::StatusOr<double> evaluate_angle_expression(const std::string& expr);

}  // namespace qfs::qasm

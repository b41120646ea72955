// Circuit IR: a named, fixed-width sequence of gates with the counting and
// structural queries the compilation stack needs.
//
// Circuits are value types: passes take a Circuit and return a new one.
#pragma once

#include <string>
#include <vector>

#include "circuit/gate.h"

namespace qfs::circuit {

class Circuit {
 public:
  Circuit() = default;
  Circuit(int num_qubits, std::string name = "");

  int num_qubits() const { return num_qubits_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::vector<Gate>& gates() const { return gates_; }
  std::size_t size() const { return gates_.size(); }
  bool empty() const { return gates_.empty(); }

  /// Capacity for `n` gates, for builders that know the final size.
  void reserve(std::size_t n) { gates_.reserve(n); }

  /// Append a gate; validates kind/operand contract and qubit range.
  void add(Gate g) {
    for (int q : g.qubits) {
      QFS_ASSERT_MSG(q < num_qubits_, "gate operand exceeds circuit width");
    }
    // Check in place, so raw Gate{} literals obey the contract too.
    check_gate(g);
    gates_.push_back(std::move(g));
  }
  void add(GateKind kind, Qubits qubits, Params params = {});

  // Fluent single-gate builders (return *this for chaining).
  Circuit& i(int q) { return chain(GateKind::kI, {q}); }
  Circuit& x(int q) { return chain(GateKind::kX, {q}); }
  Circuit& y(int q) { return chain(GateKind::kY, {q}); }
  Circuit& z(int q) { return chain(GateKind::kZ, {q}); }
  Circuit& h(int q) { return chain(GateKind::kH, {q}); }
  Circuit& s(int q) { return chain(GateKind::kS, {q}); }
  Circuit& t(int q) { return chain(GateKind::kT, {q}); }
  Circuit& sx(int q) { return chain(GateKind::kSx, {q}); }
  Circuit& rx(double theta, int q) { return chain(GateKind::kRx, {q}, {theta}); }
  Circuit& ry(double theta, int q) { return chain(GateKind::kRy, {q}, {theta}); }
  Circuit& rz(double theta, int q) { return chain(GateKind::kRz, {q}, {theta}); }
  Circuit& p(double lambda, int q) { return chain(GateKind::kPhase, {q}, {lambda}); }
  Circuit& u3(double theta, double phi, double lambda, int q) {
    return chain(GateKind::kU3, {q}, {theta, phi, lambda});
  }
  Circuit& cx(int c, int t) { return chain(GateKind::kCx, {c, t}); }
  Circuit& cz(int a, int b) { return chain(GateKind::kCz, {a, b}); }
  Circuit& cp(double lambda, int a, int b) {
    return chain(GateKind::kCphase, {a, b}, {lambda});
  }
  Circuit& swap(int a, int b) { return chain(GateKind::kSwap, {a, b}); }
  Circuit& ccx(int c1, int c2, int t) { return chain(GateKind::kCcx, {c1, c2, t}); }
  Circuit& ccz(int a, int b, int c) { return chain(GateKind::kCcz, {a, b, c}); }
  Circuit& measure(int q) { return chain(GateKind::kMeasure, {q}); }
  Circuit& reset(int q) { return chain(GateKind::kReset, {q}); }
  Circuit& barrier(Qubits qubits) {
    return chain(GateKind::kBarrier, std::move(qubits));
  }

  /// Append all gates of `other` (same or smaller width).
  void append(const Circuit& other);

  /// Reverse-order circuit of inverse gates; contract violation if any gate
  /// is non-unitary.
  Circuit inverse() const;

  // --- Counting queries (barriers are structural and never counted). ---

  /// Gates excluding barriers.
  int gate_count() const;

  /// Two-qubit unitary gates.
  int two_qubit_gate_count() const;

  /// two_qubit_gate_count / gate_count; 0 for empty circuits.
  double two_qubit_fraction() const;

  /// Logical depth: gates on the same qubit serialise; a barrier serialises
  /// all listed qubits. Barriers themselves add no depth.
  int depth() const;

  /// Qubits touched by at least one non-barrier gate, ascending.
  std::vector<int> used_qubits() const;

  /// True when every multi-qubit unitary acts on adjacent qubits according
  /// to `adjacent(a, b)`.
  template <typename AdjacencyFn>
  bool satisfies_connectivity(AdjacencyFn adjacent) const {
    for (const Gate& g : gates_) {
      if (!is_unitary(g.kind) || g.qubits.size() < 2) continue;
      for (std::size_t i = 0; i < g.qubits.size(); ++i) {
        for (std::size_t j = i + 1; j < g.qubits.size(); ++j) {
          if (!adjacent(g.qubits[i], g.qubits[j])) return false;
        }
      }
    }
    return true;
  }

  bool operator==(const Circuit& other) const {
    return num_qubits_ == other.num_qubits_ && gates_ == other.gates_;
  }

  /// Multi-line text rendering for logs and golden tests.
  std::string to_string() const;

 private:
  Circuit& chain(GateKind kind, Qubits qubits, Params params = {}) {
    add(kind, std::move(qubits), std::move(params));
    return *this;
  }

  int num_qubits_ = 0;
  std::string name_;
  std::vector<Gate> gates_;
};

}  // namespace qfs::circuit

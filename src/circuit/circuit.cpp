#include "circuit/circuit.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace qfs::circuit {

Circuit::Circuit(int num_qubits, std::string name)
    : num_qubits_(num_qubits), name_(std::move(name)) {
  QFS_ASSERT_MSG(num_qubits >= 0, "negative qubit count");
}

void Circuit::add(GateKind kind, Qubits qubits, Params params) {
  add(Gate{kind, std::move(qubits), std::move(params)});
}

void Circuit::append(const Circuit& other) {
  QFS_ASSERT_MSG(other.num_qubits_ <= num_qubits_,
                 "appended circuit is wider than target");
  for (const Gate& g : other.gates_) add(g);
}

Circuit Circuit::inverse() const {
  Circuit inv(num_qubits_, name_.empty() ? "" : name_ + "_inv");
  for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
    QFS_ASSERT_MSG(is_unitary(it->kind), "inverse of non-unitary circuit");
    inv.add(inverse_gate(*it));
  }
  return inv;
}

int Circuit::gate_count() const {
  int n = 0;
  for (const Gate& g : gates_) {
    if (g.kind != GateKind::kBarrier) ++n;
  }
  return n;
}

int Circuit::two_qubit_gate_count() const {
  int n = 0;
  for (const Gate& g : gates_) {
    if (is_two_qubit(g.kind)) ++n;
  }
  return n;
}

double Circuit::two_qubit_fraction() const {
  int total = gate_count();
  return total == 0 ? 0.0 : static_cast<double>(two_qubit_gate_count()) / total;
}

int Circuit::depth() const {
  std::vector<int> level(static_cast<std::size_t>(num_qubits_), 0);
  int depth = 0;
  for (const Gate& g : gates_) {
    int start = 0;
    for (int q : g.qubits) start = std::max(start, level[static_cast<std::size_t>(q)]);
    int end = (g.kind == GateKind::kBarrier) ? start : start + 1;
    for (int q : g.qubits) level[static_cast<std::size_t>(q)] = end;
    depth = std::max(depth, end);
  }
  return depth;
}

std::vector<int> Circuit::used_qubits() const {
  std::set<int> used;
  for (const Gate& g : gates_) {
    if (g.kind == GateKind::kBarrier) continue;
    used.insert(g.qubits.begin(), g.qubits.end());
  }
  return {used.begin(), used.end()};
}

std::string Circuit::to_string() const {
  std::ostringstream os;
  os << "circuit " << (name_.empty() ? "<anonymous>" : name_) << " ("
     << num_qubits_ << " qubits, " << gate_count() << " gates)\n";
  for (const Gate& g : gates_) os << "  " << gate_to_string(g) << '\n';
  return os.str();
}

}  // namespace qfs::circuit

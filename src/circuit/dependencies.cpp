#include "circuit/dependencies.h"

#include <algorithm>

namespace qfs::circuit {

namespace {

/// Calls `visit(p, i)` once per dependency edge, in ascending i: p is the
/// last earlier gate on one of gate i's operands, deduplicated (a gate
/// reaches a predecessor through several shared qubits once).
template <typename Visit>
void for_each_dependency(const Circuit& circuit, Visit&& visit) {
  std::vector<int> last(static_cast<std::size_t>(circuit.num_qubits()), -1);
  std::vector<int> seen;
  const std::vector<Gate>& gates = circuit.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    seen.clear();
    for (int q : gates[i].qubits) {
      int& slot = last[static_cast<std::size_t>(q)];
      if (slot >= 0 &&
          std::find(seen.begin(), seen.end(), slot) == seen.end()) {
        seen.push_back(slot);
        visit(slot, static_cast<int>(i));
      }
      slot = static_cast<int>(i);
    }
  }
}

}  // namespace

void build_dependencies(const Circuit& circuit, Dependencies& out) {
  const std::size_t n = circuit.size();
  // Count the edges per gate, prefix-sum the out-degrees to start offsets,
  // then visit the edges again and fill each successor list in ascending
  // order, using its offset as the write cursor and shifting the offsets
  // back after.
  out.num_preds.assign(n, 0);
  out.succ_offsets.assign(n + 1, 0);
  for_each_dependency(circuit, [&out](int p, int i) {
    ++out.num_preds[static_cast<std::size_t>(i)];
    ++out.succ_offsets[static_cast<std::size_t>(p) + 1];
  });
  for (std::size_t i = 0; i < n; ++i) {
    out.succ_offsets[i + 1] += out.succ_offsets[i];
  }
  out.succs.resize(static_cast<std::size_t>(out.succ_offsets[n]));
  for_each_dependency(circuit, [&out](int p, int i) {
    out.succs[static_cast<std::size_t>(
        out.succ_offsets[static_cast<std::size_t>(p)]++)] = i;
  });
  for (std::size_t i = n; i > 0; --i) {
    out.succ_offsets[i] = out.succ_offsets[i - 1];
  }
  out.succ_offsets[0] = 0;
}

}  // namespace qfs::circuit

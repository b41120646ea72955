#include "circuit/flat.h"

#include <algorithm>

#include "support/assert.h"

namespace qfs::circuit {

FlatCircuit flatten(const Circuit& circuit) {
  FlatCircuit flat;
  flatten_into(circuit, flat);
  return flat;
}

void flatten_into(const Circuit& circuit, FlatCircuit& out) {
  std::size_t num_params = 0;
  std::size_t num_spilled = 0;
  for (const Gate& g : circuit.gates()) {
    QFS_ASSERT_MSG(g.qubits.size() <= 255 && g.params.size() <= 255,
                   "gate operand/param count exceeds flat IR limits");
    num_params += g.params.size();
    if (g.qubits.size() > static_cast<std::size_t>(Instr::kMaxInlineQubits)) {
      num_spilled += g.qubits.size();
    }
  }
  out.num_qubits = circuit.num_qubits();
  out.instrs.clear();
  out.params.clear();
  out.overflow.clear();
  out.instrs.reserve(circuit.size());
  out.params.reserve(num_params);
  out.overflow.reserve(num_spilled);
  for (const Gate& g : circuit.gates()) {
    Instr ins;
    ins.op = to_op(g.kind);
    ins.num_qubits = static_cast<std::uint8_t>(g.qubits.size());
    ins.num_params = static_cast<std::uint8_t>(g.params.size());
    if (g.qubits.size() <= static_cast<std::size_t>(Instr::kMaxInlineQubits)) {
      for (std::size_t i = 0; i < g.qubits.size(); ++i) {
        ins.q[i] = g.qubits[i];
      }
    } else {
      ins.overflow_offset = static_cast<std::uint32_t>(out.overflow.size());
      out.overflow.insert(out.overflow.end(), g.qubits.begin(),
                          g.qubits.end());
    }
    ins.param_offset = static_cast<std::uint32_t>(out.params.size());
    out.params.insert(out.params.end(), g.params.begin(), g.params.end());
    out.instrs.push_back(ins);
  }
}

namespace {

/// Calls `visit(p, i)` once per dependency edge, in ascending i: p is the
/// last earlier gate on one of gate i's operands, deduplicated (a gate
/// reaches a predecessor through several shared qubits once).
template <typename Visit>
void for_each_dependency(const FlatCircuit& flat, Visit&& visit) {
  std::vector<int> last(static_cast<std::size_t>(flat.num_qubits), -1);
  std::vector<int> seen;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    int count = 0;
    const std::int32_t* q = flat.qubits_of(i, &count);
    seen.clear();
    for (int s = 0; s < count; ++s) {
      int& slot = last[static_cast<std::size_t>(q[s])];
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

void build_dependencies(const FlatCircuit& flat, FlatDependencies& out) {
  const std::size_t n = flat.size();
  // Count the edges per gate, prefix-sum the out-degrees to start offsets,
  // then visit the edges again and fill each successor list in ascending
  // order, using its offset as the write cursor and shifting the offsets
  // back after.
  out.num_preds.assign(n, 0);
  out.succ_offsets.assign(n + 1, 0);
  for_each_dependency(flat, [&out](int p, int i) {
    ++out.num_preds[static_cast<std::size_t>(i)];
    ++out.succ_offsets[static_cast<std::size_t>(p) + 1];
  });
  for (std::size_t i = 0; i < n; ++i) {
    out.succ_offsets[i + 1] += out.succ_offsets[i];
  }
  out.succs.resize(static_cast<std::size_t>(out.succ_offsets[n]));
  for_each_dependency(flat, [&out](int p, int i) {
    out.succs[static_cast<std::size_t>(
        out.succ_offsets[static_cast<std::size_t>(p)]++)] = i;
  });
  for (std::size_t i = n; i > 0; --i) {
    out.succ_offsets[i] = out.succ_offsets[i - 1];
  }
  out.succ_offsets[0] = 0;
}

Circuit unflatten(const FlatCircuit& flat, const std::string& name) {
  Circuit out(flat.num_qubits, name);
  for (std::size_t i = 0; i < flat.instrs.size(); ++i) {
    const Instr& ins = flat.instrs[i];
    int count = 0;
    const std::int32_t* q = flat.qubits_of(i, &count);
    std::vector<int> qubits(q, q + count);
    const double* p = flat.params_of(i);
    std::vector<double> params(p, p + ins.num_params);
    out.add(to_gate_kind(ins.op), std::move(qubits), std::move(params));
  }
  return out;
}

}  // namespace qfs::circuit

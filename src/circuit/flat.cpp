#include "circuit/flat.h"

#include "support/assert.h"

namespace qfs::circuit {

FlatCircuit flatten(const Circuit& circuit) {
  FlatCircuit flat;
  flat.num_qubits = circuit.num_qubits();
  flat.instrs.reserve(circuit.size());
  for (const Gate& g : circuit.gates()) {
    Instr ins;
    ins.op = to_op(g.kind);
    QFS_ASSERT_MSG(g.qubits.size() <= 255 && g.params.size() <= 255,
                   "gate operand/param count exceeds flat IR limits");
    ins.num_qubits = static_cast<std::uint8_t>(g.qubits.size());
    ins.num_params = static_cast<std::uint8_t>(g.params.size());
    if (g.qubits.size() <= static_cast<std::size_t>(Instr::kMaxInlineQubits)) {
      for (std::size_t i = 0; i < g.qubits.size(); ++i) {
        ins.q[i] = g.qubits[i];
      }
    } else {
      ins.overflow_offset = static_cast<std::uint32_t>(flat.overflow.size());
      flat.overflow.insert(flat.overflow.end(), g.qubits.begin(),
                           g.qubits.end());
    }
    ins.param_offset = static_cast<std::uint32_t>(flat.params.size());
    flat.params.insert(flat.params.end(), g.params.begin(), g.params.end());
    flat.instrs.push_back(ins);
  }
  return flat;
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

// Flat POD instruction array: the compile hot-path mirror of Circuit.
//
// The pointer-heavy IR (Gate with two std::vectors per instruction) is the
// right interface for passes that build or rewrite circuits, but the
// router/scheduler inner loops only *read* kind + operands, millions of
// times, and every Gate access costs two potential cache misses. FlatCircuit
// packs the same program into three contiguous buffers:
//   - instrs:  one fixed-size Instr (op byte + operand slots) per gate,
//   - params:  all angle parameters, exact doubles, pooled in gate order,
//   - overflow: qubit operands of variable-arity gates (barriers) that do
//     not fit the fixed slots.
//
// Conversion happens at pipeline boundaries only (see mapper/routing.cpp):
// a pass converts once, scans the flat array in its loops, and emits its
// result from the *original* Gate objects (instrs[i] is gate i), so params
// are never re-encoded on the way out.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"

namespace qfs::circuit {

/// GateKind packed into one byte. Enumerator order mirrors GateKind exactly
/// (pinned by flat_ir_test's exhaustive mirror check), so conversion is a
/// static_cast in both directions.
enum class Op : std::uint8_t {
  kI,
  kX,
  kY,
  kZ,
  kH,
  kS,
  kSdg,
  kT,
  kTdg,
  kSx,
  kSxdg,
  kRx,
  kRy,
  kRz,
  kPhase,
  kU3,
  kCx,
  kCy,
  kCz,
  kCphase,
  kSwap,
  kCcx,
  kCcz,
  kCswap,
  kMeasure,
  kReset,
  kBarrier,
};

inline constexpr int kNumOps = static_cast<int>(Op::kBarrier) + 1;
static_assert(kNumOps == kNumGateKinds,
              "Op must mirror GateKind enumerator-for-enumerator");

inline Op to_op(GateKind kind) { return static_cast<Op>(kind); }
inline GateKind to_gate_kind(Op op) { return static_cast<GateKind>(op); }

/// One flat instruction: 24 bytes, no indirection for <= 3 operands.
struct Instr {
  /// Fixed operand slots (covers every fixed-arity kind; three-qubit gates
  /// are the widest). Unused slots hold -1.
  static constexpr int kMaxInlineQubits = 3;

  Op op = Op::kI;
  /// Operand count actually used. For arity <= 3 the operands live in
  /// `q[0..num_qubits)`; wider gates (variable-arity barriers) spill every
  /// operand to FlatCircuit::overflow at `overflow_offset`.
  std::uint8_t num_qubits = 0;
  std::uint8_t num_params = 0;
  std::int32_t q[kMaxInlineQubits] = {-1, -1, -1};
  /// Offset of this gate's params in FlatCircuit::params.
  std::uint32_t param_offset = 0;
  /// Offset in FlatCircuit::overflow when the operands spill (else 0).
  std::uint32_t overflow_offset = 0;

  bool spilled() const { return num_qubits > kMaxInlineQubits; }
};

/// A circuit flattened for read-only scanning. Gate i of the source circuit
/// is instrs[i]; the source object stays the emission authority.
struct FlatCircuit {
  int num_qubits = 0;
  std::vector<Instr> instrs;
  std::vector<double> params;
  std::vector<std::int32_t> overflow;

  std::size_t size() const { return instrs.size(); }

  /// Operand pointer + count for instruction i, inline or spilled.
  const std::int32_t* qubits_of(std::size_t i, int* count) const {
    const Instr& ins = instrs[i];
    *count = ins.num_qubits;
    return ins.spilled() ? overflow.data() + ins.overflow_offset : ins.q;
  }

  const double* params_of(std::size_t i) const {
    return params.data() + instrs[i].param_offset;
  }
};

/// Flatten `circuit`. Exact: every operand and parameter is preserved
/// bit-for-bit (params are copied as doubles, never narrowed).
FlatCircuit flatten(const Circuit& circuit);

/// flatten() into `out`, reusing its buffers' capacity: a hot-path caller
/// that keeps one FlatCircuit per thread allocates only when a circuit
/// outgrows every earlier one. Each buffer is reserved to its exact size.
void flatten_into(const Circuit& circuit, FlatCircuit& out);

/// Gate dependencies of a FlatCircuit: predecessor counts and CSR
/// successor lists. Gate j depends on gate i < j when i is the last
/// earlier gate on one of j's operands (a barrier orders every qubit it
/// lists, spilled operands included). Each edge counts once even when the
/// two gates share several qubits. succs[succ_offsets[i]..succ_offsets[i+1])
/// are gate i's direct successors, ascending; every one is above i, so
/// program order is a topological order.
struct FlatDependencies {
  std::vector<int> num_preds;
  std::vector<int> succ_offsets;
  std::vector<int> succs;

  std::size_t size() const { return num_preds.size(); }
  int num_predecessors(std::size_t i) const { return num_preds[i]; }
  int num_successors(std::size_t i) const {
    return succ_offsets[i + 1] - succ_offsets[i];
  }
  const int* successors(std::size_t i) const {
    return succs.data() + succ_offsets[i];
  }
};

/// Build the dependency lists of `flat` into `out`, reusing its capacity.
void build_dependencies(const FlatCircuit& flat, FlatDependencies& out);

/// Rebuild a Circuit (named `name`) from the flat form. Round-trips
/// byte-identically: unflatten(flatten(c), c.name()) == c.
Circuit unflatten(const FlatCircuit& flat, const std::string& name = "");

}  // namespace qfs::circuit

#include "compiler/optimize.h"

#include <cmath>
#include <optional>

namespace qfs::compiler {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

namespace {

bool same_operands(const Gate& a, const Gate& b) { return a.qubits == b.qubits; }

bool params_close(const circuit::Params& a, const circuit::Params& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > 1e-12) return false;
  }
  return true;
}

/// True when b is exactly the inverse of a (same operands).
bool are_inverse_pair(const Gate& a, const Gate& b) {
  if (!circuit::is_unitary(a.kind) || !circuit::is_unitary(b.kind)) return false;
  if (!same_operands(a, b)) return false;
  Gate inv = circuit::inverse_gate(a);
  return inv.kind == b.kind && params_close(inv.params, b.params);
}

bool is_rotation(GateKind kind) {
  return kind == GateKind::kRx || kind == GateKind::kRy ||
         kind == GateKind::kRz || kind == GateKind::kPhase;
}

/// One sweep of inverse-pair cancellation; returns nullopt when nothing
/// changed.
std::optional<Circuit> cancel_sweep(const Circuit& input) {
  const auto& gates = input.gates();
  std::vector<bool> removed(gates.size(), false);
  // Track, per qubit, the index of the latest surviving gate touching it.
  std::vector<int> last(static_cast<std::size_t>(input.num_qubits()), -1);
  bool changed = false;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    // Find the unique previous gate across all operands (must be the same
    // gate index on every operand for adjacency in the dependency sense).
    int prev = -1;
    bool uniform = true;
    for (int q : g.qubits) {
      int p = last[static_cast<std::size_t>(q)];
      if (prev == -1) {
        prev = p;
      } else if (prev != p) {
        uniform = false;
      }
    }
    if (uniform && prev >= 0 && !removed[static_cast<std::size_t>(prev)] &&
        are_inverse_pair(gates[static_cast<std::size_t>(prev)], g)) {
      removed[static_cast<std::size_t>(prev)] = true;
      removed[i] = true;
      changed = true;
      // Roll back `last` for the cancelled pair's qubits by rescanning.
      for (int q : g.qubits) {
        int restored = -1;
        for (int j = static_cast<int>(i) - 1; j >= 0; --j) {
          if (removed[static_cast<std::size_t>(j)]) continue;
          const Gate& h = gates[static_cast<std::size_t>(j)];
          for (int hq : h.qubits) {
            if (hq == q) {
              restored = j;
              break;
            }
          }
          if (restored != -1) break;
        }
        last[static_cast<std::size_t>(q)] = restored;
      }
      continue;
    }
    for (int q : g.qubits) last[static_cast<std::size_t>(q)] = static_cast<int>(i);
  }
  if (!changed) return std::nullopt;
  Circuit out(input.num_qubits(), input.name());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (!removed[i]) out.add(gates[i]);
  }
  return out;
}

}  // namespace

Circuit remove_identities(const Circuit& input) {
  Circuit out(input.num_qubits(), input.name());
  for (const Gate& g : input.gates()) {
    if (g.kind == GateKind::kI) continue;
    if (is_rotation(g.kind) &&
        std::abs(std::remainder(g.params[0], 2.0 * M_PI)) < 1e-12) {
      continue;  // identity up to global phase
    }
    out.add(g);
  }
  return out;
}

Circuit cancel_inverse_pairs(const Circuit& input) {
  Circuit current = input;
  while (auto next = cancel_sweep(current)) current = std::move(*next);
  return current;
}

Circuit merge_rotations(const Circuit& input) {
  Circuit out(input.num_qubits(), input.name());
  // Pending rotation per qubit: kind + accumulated angle.
  struct Pending {
    GateKind kind = GateKind::kI;
    double angle = 0.0;
    bool active = false;
  };
  std::vector<Pending> pending(static_cast<std::size_t>(input.num_qubits()));

  auto flush = [&out](Pending& p, int q) {
    if (!p.active) return;
    if (std::abs(std::remainder(p.angle, 2.0 * M_PI)) >= 1e-12) {
      out.add(p.kind, {q}, {p.angle});
    }
    p.active = false;
    p.angle = 0.0;
  };

  for (const Gate& g : input.gates()) {
    if (is_rotation(g.kind) && g.qubits.size() == 1) {
      auto& p = pending[static_cast<std::size_t>(g.qubits[0])];
      if (p.active && p.kind == g.kind) {
        p.angle += g.params[0];
      } else {
        flush(p, g.qubits[0]);
        p.kind = g.kind;
        p.angle = g.params[0];
        p.active = true;
      }
      continue;
    }
    for (int q : g.qubits) flush(pending[static_cast<std::size_t>(q)], q);
    out.add(g);
  }
  for (int q = 0; q < input.num_qubits(); ++q) {
    flush(pending[static_cast<std::size_t>(q)], q);
  }
  return out;
}

namespace {

/// Per-qubit commutation class.
enum class Axis { kDiag, kXLike, kOther };

Axis axis_on(const Gate& g, int qubit) {
  switch (g.kind) {
    case GateKind::kZ:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kRz:
    case GateKind::kPhase:
    case GateKind::kCz:
    case GateKind::kCphase:
    case GateKind::kCcz:
      return Axis::kDiag;
    case GateKind::kX:
    case GateKind::kRx:
    case GateKind::kSx:
    case GateKind::kSxdg:
      return Axis::kXLike;
    case GateKind::kCx:
      return qubit == g.qubits[0] ? Axis::kDiag : Axis::kXLike;
    case GateKind::kCcx:
      return qubit == g.qubits[2] ? Axis::kXLike : Axis::kDiag;
    default:
      return Axis::kOther;
  }
}

}  // namespace

bool gates_commute(const Gate& a, const Gate& b) {
  if (!circuit::is_unitary(a.kind) || !circuit::is_unitary(b.kind)) {
    return false;
  }
  for (int qa : a.qubits) {
    for (int qb : b.qubits) {
      if (qa != qb) continue;
      Axis ax = axis_on(a, qa);
      Axis bx = axis_on(b, qb);
      if (ax == Axis::kOther || ax != bx) return false;
    }
  }
  return true;
}

namespace {

std::optional<Circuit> commutation_cancel_sweep(const Circuit& input) {
  const auto& gates = input.gates();
  std::vector<bool> removed(gates.size(), false);
  bool changed = false;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (removed[i]) continue;
    const Gate& g = gates[i];
    if (!circuit::is_unitary(g.kind)) continue;
    // Walk left past commuting gates looking for the inverse partner.
    for (std::size_t jj = i; jj > 0; --jj) {
      std::size_t j = jj - 1;
      if (removed[j]) continue;
      const Gate& h = gates[j];
      if (are_inverse_pair(h, g)) {
        removed[i] = true;
        removed[j] = true;
        changed = true;
        break;
      }
      if (!gates_commute(g, h)) break;
    }
  }
  if (!changed) return std::nullopt;
  Circuit out(input.num_qubits(), input.name());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (!removed[i]) out.add(gates[i]);
  }
  return out;
}

}  // namespace

Circuit cancel_with_commutation(const Circuit& input) {
  Circuit current = input;
  while (auto next = commutation_cancel_sweep(current)) current = std::move(*next);
  return current;
}

Circuit optimize(const Circuit& input) {
  Circuit current = input;
  while (true) {
    Circuit next = cancel_with_commutation(
        cancel_inverse_pairs(merge_rotations(remove_identities(current))));
    if (next == current) return current;
    current = std::move(next);
  }
}

}  // namespace qfs::compiler

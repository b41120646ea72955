#include "compiler/decompose.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/matrix.h"
#include "compiler/euler.h"

namespace qfs::compiler {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

namespace {

constexpr double kPi = M_PI;

/// Lowered parameter-free kinds, indexed by kind: each entry is the kind's
/// gate on qubits 0..k-1 rewritten by the rules below. Built on first use
/// and local to one decompose_to_gateset call.
using Templates =
    std::array<std::optional<std::vector<Gate>>, circuit::kNumGateKinds>;

/// Emits gates into `out`, lowering recursively until native.
///
/// A parameter-free kind lowers the same way wherever it acts: the rules
/// only pass qubit indices through. So each such kind is lowered once into
/// a template and later gates of that kind relabel it, which emits exactly
/// the gates the rules would. Parametrised kinds go through the rules.
class Lowerer {
 public:
  /// With `keep_identities` no rotation is dropped as the identity, so a
  /// parametrised gate emits the most gates any angle can give it.
  Lowerer(Circuit& out, const device::GateSet& target, Templates& templates,
          bool keep_identities = false)
      : out_(out),
        target_(target),
        templates_(templates),
        keep_identities_(keep_identities) {}

  void lower(const Gate& g) {
    if (target_.supports(g.kind)) {
      out_.add(g);
      return;
    }
    if (g.params.empty()) {
      emit_template(g);
      return;
    }
    apply_rule(g);
  }

  /// The most gates lower() can emit for one gate of `kind`: 1 for a
  /// native or non-unitary kind, the template's size for a parameter-free
  /// kind, and for a parametrised kind its rule run with no rotation
  /// dropped (the angles decide nothing else).
  std::size_t max_lowered_size(GateKind kind) {
    if (target_.supports(kind)) return 1;
    if (circuit::gate_param_count(kind) == 0) return template_for(kind).size();
    const circuit::Params zeros(
        static_cast<std::size_t>(circuit::gate_param_count(kind)));
    Circuit worst(circuit::gate_arity(kind));
    Lowerer(worst, target_, templates_, /*keep_identities=*/true)
        .apply_rule(Gate{kind, canonical_qubits(kind), zeros});
    return worst.size();
  }

 private:
  static circuit::Qubits canonical_qubits(GateKind kind) {
    circuit::Qubits canonical;
    for (int q = 0; q < circuit::gate_arity(kind); ++q) canonical.push_back(q);
    return canonical;
  }

  const std::vector<Gate>& template_for(GateKind kind) {
    auto& lowered = templates_[static_cast<std::size_t>(kind)];
    if (!lowered) lowered = build_template(kind);
    return *lowered;
  }

  void emit_template(const Gate& g) {
    for (const Gate& t : template_for(g.kind)) {
      Gate relabelled = t;
      for (auto& q : relabelled.qubits) {
        q = g.qubits[static_cast<std::size_t>(q)];
      }
      out_.add(std::move(relabelled));
    }
  }

  std::vector<Gate> build_template(GateKind kind) {
    Circuit lowered(circuit::gate_arity(kind));
    Lowerer(lowered, target_, templates_)
        .apply_rule(Gate{kind, canonical_qubits(kind), {}});
    return lowered.gates();
  }

  /// Rewrites one non-native gate by its lowering rule.
  void apply_rule(const Gate& g) {
    switch (g.kind) {
      // ---- three-qubit ----
      case GateKind::kCcx:
        lower_ccx(g.qubits[0], g.qubits[1], g.qubits[2]);
        return;
      case GateKind::kCcz:
        // ccz = H(c) ccx H(c)
        lower_1q(GateKind::kH, g.qubits[2]);
        lower_ccx(g.qubits[0], g.qubits[1], g.qubits[2]);
        lower_1q(GateKind::kH, g.qubits[2]);
        return;
      case GateKind::kCswap:
        // cswap(c,a,b) = cx(b,a) ccx(c,a,b) cx(b,a)
        lower_cx(g.qubits[2], g.qubits[1]);
        lower_ccx(g.qubits[0], g.qubits[1], g.qubits[2]);
        lower_cx(g.qubits[2], g.qubits[1]);
        return;
      // ---- two-qubit ----
      case GateKind::kCx:
        lower_cx(g.qubits[0], g.qubits[1]);
        return;
      case GateKind::kCz:
        // target lacks cz but (by contract) has cx
        lower_1q(GateKind::kH, g.qubits[1]);
        lower_cx(g.qubits[0], g.qubits[1]);
        lower_1q(GateKind::kH, g.qubits[1]);
        return;
      case GateKind::kCy:
        lower_1q(GateKind::kSdg, g.qubits[1]);
        lower_cx(g.qubits[0], g.qubits[1]);
        lower_1q(GateKind::kS, g.qubits[1]);
        return;
      case GateKind::kSwap:
        lower_cx(g.qubits[0], g.qubits[1]);
        lower_cx(g.qubits[1], g.qubits[0]);
        lower_cx(g.qubits[0], g.qubits[1]);
        return;
      case GateKind::kCphase: {
        // cp(l) a,b = p(l/2) a ; cx a,b ; p(-l/2) b ; cx a,b ; p(l/2) b
        double l = g.params[0];
        lower_param(GateKind::kPhase, g.qubits[0], l / 2);
        lower_cx(g.qubits[0], g.qubits[1]);
        lower_param(GateKind::kPhase, g.qubits[1], -l / 2);
        lower_cx(g.qubits[0], g.qubits[1]);
        lower_param(GateKind::kPhase, g.qubits[1], l / 2);
        return;
      }
      // ---- single-qubit ----
      default:
        QFS_ASSERT_MSG(circuit::gate_arity(g.kind) == 1 &&
                           circuit::is_unitary(g.kind),
                       "no lowering rule for gate");
        lower_1q_unitary(g);
        return;
    }
  }

  void lower_1q(GateKind kind, int q) { lower(circuit::make_gate(kind, {q})); }

  void lower_param(GateKind kind, int q, double value) {
    lower(circuit::make_gate(kind, {q}, {value}));
  }

  void lower_cx(int control, int t) {
    if (target_.supports(GateKind::kCx)) {
      out_.add(GateKind::kCx, {control, t});
      return;
    }
    QFS_ASSERT_MSG(target_.supports(GateKind::kCz),
                   "target gate set has no entangling primitive");
    // cx(c,t) = Ry(-pi/2) t ; cz(c,t) ; Ry(pi/2) t   (H-conjugation with the
    // Ry form native to surface-code sets).
    lower_param(GateKind::kRy, t, -kPi / 2);
    out_.add(GateKind::kCz, {control, t});
    lower_param(GateKind::kRy, t, kPi / 2);
  }

  void lower_ccx(int c1, int c2, int t) {
    // Standard 6-CX Toffoli network.
    lower_1q(GateKind::kH, t);
    lower_cx(c2, t);
    lower_1q(GateKind::kTdg, t);
    lower_cx(c1, t);
    lower_1q(GateKind::kT, t);
    lower_cx(c2, t);
    lower_1q(GateKind::kTdg, t);
    lower_cx(c1, t);
    lower_1q(GateKind::kT, c2);
    lower_1q(GateKind::kT, t);
    lower_1q(GateKind::kH, t);
    lower_cx(c1, c2);
    lower_1q(GateKind::kT, c1);
    lower_1q(GateKind::kTdg, c2);
    lower_cx(c1, c2);
  }

  void lower_1q_unitary(const Gate& g) {
    const int q = g.qubits[0];
    ZyzAngles a = zyz_decompose(circuit::gate_matrix(g));
    const bool has_ry = target_.supports(GateKind::kRy);
    const bool has_rz = target_.supports(GateKind::kRz);
    if (has_ry && has_rz) {
      // Circuit order: Rz(lambda), Ry(theta), Rz(phi).
      emit_if_nonzero(GateKind::kRz, q, a.lambda);
      emit_if_nonzero(GateKind::kRy, q, a.theta);
      emit_if_nonzero(GateKind::kRz, q, a.phi);
      return;
    }
    QFS_ASSERT_MSG(has_rz && target_.supports(GateKind::kSx),
                   "1q lowering needs {Ry,Rz} or {Sx,Rz} in the target set");
    // Qiskit ZSX identity (up to global phase):
    // U(theta,phi,lambda) = Rz(phi+pi) Sx Rz(theta+pi) Sx Rz(lambda).
    emit_if_nonzero(GateKind::kRz, q, a.lambda);
    out_.add(GateKind::kSx, {q});
    emit_if_nonzero(GateKind::kRz, q, a.theta + kPi);
    out_.add(GateKind::kSx, {q});
    emit_if_nonzero(GateKind::kRz, q, a.phi + kPi);
  }

  void emit_if_nonzero(GateKind kind, int q, double angle) {
    // Skip exact multiples of 2*pi only when they produce the identity for
    // rotations (global phase is irrelevant to circuit semantics here).
    double normalized = std::remainder(angle, 4.0 * kPi);
    if (!keep_identities_ &&
        std::abs(std::remainder(normalized, 2.0 * kPi)) < 1e-12) {
      // Rz(2pi) = -I: a pure global phase; safe to drop.
      return;
    }
    out_.add(kind, {q}, {angle});
  }

  Circuit& out_;
  const device::GateSet& target_;
  Templates& templates_;
  const bool keep_identities_;
};

}  // namespace

Circuit decompose_to_gateset(const Circuit& input,
                             const device::GateSet& target) {
  Circuit out(input.num_qubits(), input.name());
  Templates templates;
  Lowerer lowerer(out, target, templates);
  // Size the output before emitting into it, so it is never reallocated:
  // the bound is exact unless a parametrised kind loses a rotation.
  constexpr std::size_t kUnsized = SIZE_MAX;
  std::array<std::size_t, circuit::kNumGateKinds> max_size;
  max_size.fill(kUnsized);
  std::size_t capacity = 0;
  for (const Gate& g : input.gates()) {
    std::size_t& bound = max_size[static_cast<std::size_t>(g.kind)];
    if (bound == kUnsized) bound = lowerer.max_lowered_size(g.kind);
    capacity += bound;
  }
  out.reserve(capacity);
  for (const Gate& g : input.gates()) {
    if (!circuit::is_unitary(g.kind)) {
      out.add(g);  // measure/reset/barrier pass through
      continue;
    }
    lowerer.lower(g);
  }
  QFS_ASSERT_MSG(out.size() <= capacity, "lowering outgrew its size bound");
  return out;
}

Circuit expand_swaps(const Circuit& input) {
  Circuit out(input.num_qubits(), input.name());
  const auto swaps = std::count_if(
      input.gates().begin(), input.gates().end(),
      [](const Gate& g) { return g.kind == GateKind::kSwap; });
  out.reserve(input.size() + 2 * static_cast<std::size_t>(swaps));
  for (const Gate& g : input.gates()) {
    if (g.kind == GateKind::kSwap) {
      out.cx(g.qubits[0], g.qubits[1]);
      out.cx(g.qubits[1], g.qubits[0]);
      out.cx(g.qubits[0], g.qubits[1]);
    } else {
      out.add(g);
    }
  }
  return out;
}

}  // namespace qfs::compiler

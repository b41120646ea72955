#include "sim/stabilizer.h"

#include <algorithm>

namespace qfs::sim {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

bool is_clifford_gate(GateKind kind) {
  switch (kind) {
    case GateKind::kI:
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kSx:
    case GateKind::kSxdg:
    case GateKind::kCx:
    case GateKind::kCy:
    case GateKind::kCz:
    case GateKind::kSwap:
    case GateKind::kBarrier:
      return true;
    default:
      return false;
  }
}

namespace {

/// Quarter-turn index k in [0, 4) when angle ~= k*pi/2; -1 otherwise.
int quarter_turns(double angle) {
  double turns = angle / (M_PI / 2.0);
  double rounded = std::round(turns);
  if (std::abs(turns - rounded) > 1e-9) return -1;
  int k = static_cast<int>(std::llround(rounded)) % 4;
  return k < 0 ? k + 4 : k;
}

bool is_rotation_kind(GateKind kind) {
  return kind == GateKind::kRx || kind == GateKind::kRy ||
         kind == GateKind::kRz || kind == GateKind::kPhase;
}

}  // namespace

bool is_clifford_gate(const Gate& g) {
  if (is_clifford_gate(g.kind)) return true;
  if (is_rotation_kind(g.kind)) return quarter_turns(g.params[0]) >= 0;
  return false;
}

bool is_clifford_circuit(const Circuit& circuit) {
  for (const Gate& g : circuit.gates()) {
    if (!circuit::is_unitary(g.kind) && g.kind != GateKind::kBarrier) {
      return false;
    }
    if (!is_clifford_gate(g)) return false;
  }
  return true;
}

StabilizerState::StabilizerState(int num_qubits) : n_(num_qubits) {
  QFS_ASSERT_MSG(num_qubits >= 1, "need at least one qubit");
  const auto rows = static_cast<std::size_t>(2 * n_);
  x_.assign(rows, std::vector<std::uint8_t>(static_cast<std::size_t>(n_), 0));
  z_.assign(rows, std::vector<std::uint8_t>(static_cast<std::size_t>(n_), 0));
  sign_.assign(rows, 0);
  for (int i = 0; i < n_; ++i) {
    x_[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 1;       // destabilizer X_i
    z_[static_cast<std::size_t>(n_ + i)][static_cast<std::size_t>(i)] = 1;  // stabilizer Z_i
  }
}

namespace {

/// Phase exponent contribution (mod 4) of multiplying Pauli (x1,z1) by
/// (x2,z2) on one qubit (Aaronson-Gottesman's g function).
int pauli_phase(int x1, int z1, int x2, int z2) {
  if (x1 == 0 && z1 == 0) return 0;
  if (x1 == 1 && z1 == 1) return z2 - x2;            // Y
  if (x1 == 1 && z1 == 0) return z2 * (2 * x2 - 1);  // X
  return x2 * (1 - 2 * z2);                          // Z
}

}  // namespace

int StabilizerState::row_phase(int target, int source) const {
  int exponent = 2 * sign_[static_cast<std::size_t>(target)] +
                 2 * sign_[static_cast<std::size_t>(source)];
  for (int q = 0; q < n_; ++q) {
    exponent += pauli_phase(
        x_[static_cast<std::size_t>(source)][static_cast<std::size_t>(q)],
        z_[static_cast<std::size_t>(source)][static_cast<std::size_t>(q)],
        x_[static_cast<std::size_t>(target)][static_cast<std::size_t>(q)],
        z_[static_cast<std::size_t>(target)][static_cast<std::size_t>(q)]);
  }
  exponent %= 4;
  if (exponent < 0) exponent += 4;
  QFS_ASSERT_MSG(exponent == 0 || exponent == 2,
                 "stabilizer phase must stay real");
  return exponent / 2;
}

void StabilizerState::row_mult(int target, int source) {
  sign_[static_cast<std::size_t>(target)] =
      static_cast<std::uint8_t>(row_phase(target, source));
  for (int q = 0; q < n_; ++q) {
    x_[static_cast<std::size_t>(target)][static_cast<std::size_t>(q)] ^=
        x_[static_cast<std::size_t>(source)][static_cast<std::size_t>(q)];
    z_[static_cast<std::size_t>(target)][static_cast<std::size_t>(q)] ^=
        z_[static_cast<std::size_t>(source)][static_cast<std::size_t>(q)];
  }
}

void StabilizerState::apply_gate(const Gate& g) {
  if (g.kind == GateKind::kBarrier) return;
  QFS_ASSERT_MSG(is_clifford_gate(g),
                 std::string("non-Clifford gate in stabilizer simulation: ") +
                     circuit::gate_name(g.kind));
  for (int q : g.qubits) {
    QFS_ASSERT_MSG(0 <= q && q < n_, "qubit out of range");
  }

  // Quarter-turn rotations reduce to named Cliffords (global phase
  // irrelevant on stabilizer states).
  if (is_rotation_kind(g.kind)) {
    int k = quarter_turns(g.params[0]);
    QFS_ASSERT(k >= 0);
    if (k == 0) return;
    int q = g.qubits[0];
    if (g.kind == GateKind::kRz || g.kind == GateKind::kPhase) {
      static const GateKind z_like[4] = {GateKind::kI, GateKind::kS,
                                         GateKind::kZ, GateKind::kSdg};
      apply_gate(circuit::make_gate(z_like[k], {q}));
      return;
    }
    if (g.kind == GateKind::kRx) {
      static const GateKind x_like[4] = {GateKind::kI, GateKind::kSx,
                                         GateKind::kX, GateKind::kSxdg};
      apply_gate(circuit::make_gate(x_like[k], {q}));
      return;
    }
    // Ry(theta) = S Rx(theta) Sdg (matrix order) => circuit order:
    // Sdg, Rx-equivalent, S.
    apply_gate(circuit::make_gate(GateKind::kSdg, {q}));
    apply_gate(circuit::make_gate(GateKind::kRx, {q}, {g.params[0]}));
    apply_gate(circuit::make_gate(GateKind::kS, {q}));
    return;
  }
  const auto rows = static_cast<std::size_t>(2 * n_);

  auto apply_h = [this, rows](int q) {
    auto qi = static_cast<std::size_t>(q);
    for (std::size_t r = 0; r < rows; ++r) {
      sign_[r] ^= x_[r][qi] & z_[r][qi];
      std::swap(x_[r][qi], z_[r][qi]);
    }
  };
  auto apply_s = [this, rows](int q) {
    auto qi = static_cast<std::size_t>(q);
    for (std::size_t r = 0; r < rows; ++r) {
      sign_[r] ^= x_[r][qi] & z_[r][qi];
      z_[r][qi] ^= x_[r][qi];
    }
  };
  auto apply_x = [this, rows](int q) {
    auto qi = static_cast<std::size_t>(q);
    for (std::size_t r = 0; r < rows; ++r) sign_[r] ^= z_[r][qi];
  };
  auto apply_z = [this, rows](int q) {
    auto qi = static_cast<std::size_t>(q);
    for (std::size_t r = 0; r < rows; ++r) sign_[r] ^= x_[r][qi];
  };
  auto apply_cx = [this, rows](int c, int t) {
    auto ci = static_cast<std::size_t>(c);
    auto ti = static_cast<std::size_t>(t);
    for (std::size_t r = 0; r < rows; ++r) {
      sign_[r] ^= static_cast<std::uint8_t>(x_[r][ci] & z_[r][ti] &
                                            (x_[r][ti] ^ z_[r][ci] ^ 1));
      x_[r][ti] ^= x_[r][ci];
      z_[r][ci] ^= z_[r][ti];
    }
  };

  switch (g.kind) {
    case GateKind::kI:
      return;
    case GateKind::kH:
      apply_h(g.qubits[0]);
      return;
    case GateKind::kS:
      apply_s(g.qubits[0]);
      return;
    case GateKind::kSdg:
      apply_s(g.qubits[0]);
      apply_s(g.qubits[0]);
      apply_s(g.qubits[0]);
      return;
    case GateKind::kX:
      apply_x(g.qubits[0]);
      return;
    case GateKind::kZ:
      apply_z(g.qubits[0]);
      return;
    case GateKind::kY:
      apply_z(g.qubits[0]);
      apply_x(g.qubits[0]);
      return;
    case GateKind::kSx:
      // sqrt(X) = H S H up to global phase.
      apply_h(g.qubits[0]);
      apply_s(g.qubits[0]);
      apply_h(g.qubits[0]);
      return;
    case GateKind::kSxdg:
      apply_h(g.qubits[0]);
      apply_s(g.qubits[0]);
      apply_s(g.qubits[0]);
      apply_s(g.qubits[0]);
      apply_h(g.qubits[0]);
      return;
    case GateKind::kCx:
      apply_cx(g.qubits[0], g.qubits[1]);
      return;
    case GateKind::kCz:
      apply_h(g.qubits[1]);
      apply_cx(g.qubits[0], g.qubits[1]);
      apply_h(g.qubits[1]);
      return;
    case GateKind::kCy:
      // cy = sdg(t) cx s(t)
      apply_s(g.qubits[1]);
      apply_s(g.qubits[1]);
      apply_s(g.qubits[1]);
      apply_cx(g.qubits[0], g.qubits[1]);
      apply_s(g.qubits[1]);
      return;
    case GateKind::kSwap:
      apply_cx(g.qubits[0], g.qubits[1]);
      apply_cx(g.qubits[1], g.qubits[0]);
      apply_cx(g.qubits[0], g.qubits[1]);
      return;
    default:
      QFS_ASSERT_MSG(false, "unhandled Clifford gate");
  }
}

void StabilizerState::apply_circuit(const Circuit& circuit) {
  QFS_ASSERT_MSG(circuit.num_qubits() <= n_, "circuit wider than state");
  for (const Gate& g : circuit.gates()) {
    QFS_ASSERT_MSG(circuit::is_unitary(g.kind) || g.kind == GateKind::kBarrier,
                   "measure/reset need explicit measure() calls");
    apply_gate(g);
  }
}

bool StabilizerState::is_deterministic(int q) const {
  QFS_ASSERT_MSG(0 <= q && q < n_, "qubit out of range");
  for (int p = n_; p < 2 * n_; ++p) {
    if (x_[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)]) {
      return false;
    }
  }
  return true;
}

bool StabilizerState::measure(int q, qfs::Rng& rng) {
  QFS_ASSERT_MSG(0 <= q && q < n_, "qubit out of range");
  auto qi = static_cast<std::size_t>(q);

  int p = -1;
  for (int row = n_; row < 2 * n_; ++row) {
    if (x_[static_cast<std::size_t>(row)][qi]) {
      p = row;
      break;
    }
  }
  if (p >= 0) {
    // Random outcome: update every other row that anticommutes with Z_q.
    for (int row = 0; row < 2 * n_; ++row) {
      if (row != p && x_[static_cast<std::size_t>(row)][qi]) {
        row_mult(row, p);
      }
    }
    // Destabilizer takes the old stabilizer row; stabilizer becomes +-Z_q.
    x_[static_cast<std::size_t>(p - n_)] = x_[static_cast<std::size_t>(p)];
    z_[static_cast<std::size_t>(p - n_)] = z_[static_cast<std::size_t>(p)];
    sign_[static_cast<std::size_t>(p - n_)] = sign_[static_cast<std::size_t>(p)];
    std::fill(x_[static_cast<std::size_t>(p)].begin(),
              x_[static_cast<std::size_t>(p)].end(), 0);
    std::fill(z_[static_cast<std::size_t>(p)].begin(),
              z_[static_cast<std::size_t>(p)].end(), 0);
    z_[static_cast<std::size_t>(p)][qi] = 1;
    bool outcome = rng.bernoulli(0.5);
    sign_[static_cast<std::size_t>(p)] = outcome ? 1 : 0;
    return outcome;
  }

  // Deterministic outcome: accumulate the product of stabilizers whose
  // destabilizer partner anticommutes with Z_q into a scratch row.
  std::vector<std::uint8_t> sx(static_cast<std::size_t>(n_), 0);
  std::vector<std::uint8_t> sz(static_cast<std::size_t>(n_), 0);
  int scratch_sign = 0;
  for (int i = 0; i < n_; ++i) {
    if (!x_[static_cast<std::size_t>(i)][qi]) continue;
    int src = n_ + i;
    int exponent = 2 * scratch_sign + 2 * sign_[static_cast<std::size_t>(src)];
    for (int col = 0; col < n_; ++col) {
      exponent += pauli_phase(
          x_[static_cast<std::size_t>(src)][static_cast<std::size_t>(col)],
          z_[static_cast<std::size_t>(src)][static_cast<std::size_t>(col)],
          sx[static_cast<std::size_t>(col)], sz[static_cast<std::size_t>(col)]);
    }
    exponent %= 4;
    if (exponent < 0) exponent += 4;
    scratch_sign = exponent / 2;
    for (int col = 0; col < n_; ++col) {
      sx[static_cast<std::size_t>(col)] ^=
          x_[static_cast<std::size_t>(src)][static_cast<std::size_t>(col)];
      sz[static_cast<std::size_t>(col)] ^=
          z_[static_cast<std::size_t>(src)][static_cast<std::size_t>(col)];
    }
  }
  return scratch_sign != 0;
}

std::string StabilizerState::stabilizer_string(int row) const {
  QFS_ASSERT_MSG(0 <= row && row < n_, "stabilizer row out of range");
  auto r = static_cast<std::size_t>(n_ + row);
  std::string out = sign_[r] ? "-" : "+";
  for (int q = 0; q < n_; ++q) {
    auto qi = static_cast<std::size_t>(q);
    int xq = x_[r][qi], zq = z_[r][qi];
    out += xq ? (zq ? 'Y' : 'X') : (zq ? 'Z' : 'I');
  }
  return out;
}

std::vector<std::string> StabilizerState::canonical_stabilizers() const {
  // Gaussian elimination on a copy of the stabilizer half.
  StabilizerState work = *this;
  int pivot_row = work.n_;  // rows n..2n-1 are stabilizers
  auto bit = [&work](int row, int col, bool is_z) -> std::uint8_t {
    return is_z ? work.z_[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)]
                : work.x_[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)];
  };
  auto swap_rows = [&work](int a, int b) {
    std::swap(work.x_[static_cast<std::size_t>(a)], work.x_[static_cast<std::size_t>(b)]);
    std::swap(work.z_[static_cast<std::size_t>(a)], work.z_[static_cast<std::size_t>(b)]);
    std::swap(work.sign_[static_cast<std::size_t>(a)], work.sign_[static_cast<std::size_t>(b)]);
  };
  for (int pass = 0; pass < 2; ++pass) {
    bool is_z = pass == 1;
    for (int col = 0; col < work.n_ && pivot_row < 2 * work.n_; ++col) {
      int found = -1;
      for (int row = pivot_row; row < 2 * work.n_; ++row) {
        if (bit(row, col, is_z)) {
          found = row;
          break;
        }
      }
      if (found < 0) continue;
      swap_rows(pivot_row, found);
      for (int row = work.n_; row < 2 * work.n_; ++row) {
        if (row != pivot_row && bit(row, col, is_z)) {
          work.row_mult(row, pivot_row);
        }
      }
      ++pivot_row;
    }
  }
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(work.n_));
  for (int row = 0; row < work.n_; ++row) {
    out.push_back(work.stabilizer_string(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool StabilizerState::same_state(const StabilizerState& a,
                                 const StabilizerState& b) {
  if (a.n_ != b.n_) return false;
  return a.canonical_stabilizers() == b.canonical_stabilizers();
}

bool clifford_mapping_preserves_state(const Circuit& original,
                                      const Circuit& mapped,
                                      const std::vector<int>& initial_layout,
                                      const std::vector<int>& final_layout) {
  QFS_ASSERT_MSG(is_clifford_circuit(original) && is_clifford_circuit(mapped),
                 "clifford verification needs Clifford circuits");
  QFS_ASSERT_MSG(initial_layout.size() ==
                         static_cast<std::size_t>(original.num_qubits()) &&
                     final_layout.size() == initial_layout.size(),
                 "layout sizes must match the original circuit");
  const int np = mapped.num_qubits();

  auto relabel = [np](const Circuit& c, const std::vector<int>& layout) {
    Circuit out(np, c.name());
    for (Gate g : c.gates()) {
      for (int& q : g.qubits) q = layout[static_cast<std::size_t>(q)];
      out.add(std::move(g));
    }
    return out;
  };

  // Phase 1: plain |0...0> input.
  {
    StabilizerState expected(np);
    expected.apply_circuit(relabel(original, final_layout));
    StabilizerState actual(np);
    actual.apply_circuit(mapped);
    if (!StabilizerState::same_state(expected, actual)) return false;
  }
  // Phase 2: |+...+> on the virtual register (H-prep layer), exercising
  // the initial layout.
  {
    StabilizerState expected(np);
    Circuit prep_virtual(original.num_qubits());
    for (int v = 0; v < original.num_qubits(); ++v) prep_virtual.h(v);
    prep_virtual.append(original);
    expected.apply_circuit(relabel(prep_virtual, final_layout));

    StabilizerState actual(np);
    Circuit prep_physical(np);
    for (int p : initial_layout) prep_physical.h(p);
    actual.apply_circuit(prep_physical);
    actual.apply_circuit(mapped);
    if (!StabilizerState::same_state(expected, actual)) return false;
  }
  return true;
}

}  // namespace qfs::sim

// Gate model: the instruction vocabulary of the qfs IR.
//
// The set covers the common algorithm-level gates (H, T, Toffoli, ...), the
// parametrised rotations used by variational workloads, the primitive sets
// of the modelled devices (CZ + rotations for surface-code superconducting
// chips; CX + SX/RZ for IBM-style chips), and non-unitary operations
// (measure, reset) plus scheduling barriers.
//
// A Gate is a fixed-size value (at most 56 bytes): a one-byte kind, up to
// three operands stored inline as int32 and up to three parameters stored
// inline as exact doubles. Only a barrier wider than three operands puts
// its operands on the heap. Every pass, the router and the scheduler
// included, reads and builds this one representation.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "support/assert.h"

namespace qfs::circuit {

enum class GateKind : std::uint8_t {
  // single-qubit, parameter-free
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
  // single-qubit, parametrised
  kRx,     // params: theta
  kRy,     // params: theta
  kRz,     // params: theta
  kPhase,  // params: lambda (diag(1, e^{i lambda}))
  kU3,     // params: theta, phi, lambda (generic SU(2) up to phase)
  // two-qubit
  kCx,
  kCy,
  kCz,
  kCphase,  // params: lambda
  kSwap,
  // three-qubit
  kCcx,
  kCcz,
  kCswap,
  // non-unitary / structural
  kMeasure,
  kReset,
  kBarrier,
};

/// Number of distinct GateKind values (for iteration in tests/tables).
inline constexpr int kNumGateKinds = static_cast<int>(GateKind::kBarrier) + 1;

/// Lower-case mnemonic ("h", "cx", "rz", ...), matching OpenQASM where the
/// gate exists there.
const char* gate_name(GateKind kind);

namespace detail {

/// Operand and parameter counts of one kind.
struct KindShape {
  std::uint8_t arity;
  std::uint8_t num_params;
};

/// The shape of every kind, indexed by GateKind: the one source of
/// gate_arity, gate_param_count and the checks of check_gate.
inline constexpr KindShape kKindShapes[kNumGateKinds] = {
    {1, 0}, {1, 0}, {1, 0}, {1, 0}, {1, 0}, {1, 0},  // i x y z h s
    {1, 0}, {1, 0}, {1, 0}, {1, 0}, {1, 0},          // sdg t tdg sx sxdg
    {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 3},          // rx ry rz p u3
    {2, 0}, {2, 0}, {2, 0}, {2, 1}, {2, 0},          // cx cy cz cp swap
    {3, 0}, {3, 0}, {3, 0},                          // ccx ccz cswap
    {1, 0}, {1, 0}, {0, 0},                          // measure reset barrier
};

}  // namespace detail

/// Number of qubit operands; 0 means variable arity (barrier only).
constexpr int gate_arity(GateKind kind) {
  return detail::kKindShapes[static_cast<int>(kind)].arity;
}

/// Number of angle parameters the kind carries.
constexpr int gate_param_count(GateKind kind) {
  return detail::kKindShapes[static_cast<int>(kind)].num_params;
}

static_assert(gate_param_count(GateKind::kU3) == 3 &&
                  gate_arity(GateKind::kCphase) == 2 &&
                  gate_param_count(GateKind::kCphase) == 1 &&
                  gate_arity(GateKind::kCswap) == 3 &&
                  gate_arity(GateKind::kReset) == 1,
              "kKindShapes must follow the order of GateKind");

/// True for gates with a unitary matrix (everything except measure, reset,
/// barrier).
constexpr bool is_unitary(GateKind kind) {
  return kind != GateKind::kMeasure && kind != GateKind::kReset &&
         kind != GateKind::kBarrier;
}

/// True for two-qubit unitary gates (what an interaction graph records).
bool is_two_qubit(GateKind kind);

/// A sequence of trivially copyable T that keeps up to N elements inline
/// and moves them to the heap only beyond that. It offers the subset of
/// std::vector the IR's call sites use. Spilled storage holds
/// std::bit_ceil(size()) elements, so push_back grows it by doubling.
template <typename T, std::uint32_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N * sizeof(T) >= sizeof(T*),
                "the inline slots must be able to hold the heap pointer");

 public:
  InlineVec() = default;
  /// `n` value-initialised elements.
  explicit InlineVec(std::size_t n) {
    QFS_ASSERT_MSG(n <= UINT32_MAX, "too many elements for an InlineVec");
    size_ = static_cast<std::uint32_t>(n);
    if (spilled()) set_heap(new T[std::bit_ceil(size_)]());
  }
  InlineVec(std::initializer_list<T> init) {
    assign(init.begin(), init.size());
  }
  // Implicit, so call sites may keep passing a std::vector.
  InlineVec(const std::vector<T>& v) { assign(v.data(), v.size()); }
  InlineVec(const InlineVec& other) { assign(other.data(), other.size_); }
  InlineVec(InlineVec&& other) noexcept : size_(other.size_) {
    std::memcpy(slots_, other.slots_, sizeof slots_);
    other.size_ = 0;
  }
  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) {
      release();
      assign(other.data(), other.size_);
    }
    return *this;
  }
  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      release();
      size_ = other.size_;
      std::memcpy(slots_, other.slots_, sizeof slots_);
      other.size_ = 0;
    }
    return *this;
  }
  ~InlineVec() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return spilled() ? heap() : slots_; }
  const T* data() const { return spilled() ? heap() : slots_; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  void push_back(T value) {
    T* dst = data();
    if (size_ >= N && (size_ == N || std::has_single_bit(size_))) {
      T* grown = new T[std::bit_ceil(size_ + 1)];
      std::memcpy(grown, dst, size_ * sizeof(T));
      release();
      set_heap(grown);
      dst = grown;
    }
    dst[size_++] = value;
  }

  friend bool operator==(const InlineVec& a, const InlineVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  bool spilled() const { return size_ > N; }
  T* heap() const {
    T* p;
    std::memcpy(&p, slots_, sizeof p);
    return p;
  }
  void set_heap(T* p) { std::memcpy(static_cast<void*>(slots_), &p, sizeof p); }
  void release() {
    if (spilled()) delete[] heap();
  }
  /// Fill an empty (or released) vector with `n` elements from `src`.
  void assign(const T* src, std::size_t n) {
    QFS_ASSERT_MSG(n <= UINT32_MAX, "too many elements for an InlineVec");
    size_ = static_cast<std::uint32_t>(n);
    T* dst = slots_;
    if (spilled()) {
      dst = new T[std::bit_ceil(size_)];
      set_heap(dst);
    }
    if (n != 0) std::memcpy(dst, src, n * sizeof(T));
  }

  std::uint32_t size_ = 0;
  /// The elements while size_ <= N, else the bytes of the heap pointer.
  T slots_[N] = {};
};

/// Qubit operands: three inline, wider barriers on the heap.
using Qubits = InlineVec<std::int32_t, 3>;
/// Angle parameters, exact doubles: every kind carries at most three.
using Params = InlineVec<double, 3>;

/// One instruction: a kind, its qubit operands, and its angle parameters.
struct Gate {
  GateKind kind = GateKind::kI;
  Qubits qubits;
  Params params;

  bool operator==(const Gate& other) const = default;
};

static_assert(sizeof(Gate) <= 56, "a Gate must stay a small fixed-size value");

namespace detail {
/// operands_distinct for more than three operands: sorts a copy.
bool wide_operands_distinct(const Qubits& qubits);
}  // namespace detail

/// True when no qubit appears twice. Allocates only for more than three
/// operands (wide barriers).
inline bool operands_distinct(const Qubits& qubits) {
  const std::size_t n = qubits.size();
  if (n > 3) return detail::wide_operands_distinct(qubits);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (qubits[i] == qubits[j]) return false;
    }
  }
  return true;
}

/// The gate contract: arity, parameter count, operand distinctness and
/// non-negative operands, checked in that order. make_gate and
/// Circuit::add both check through it. Inline and table-driven, since
/// every append runs it.
inline void check_gate(const Gate& g) {
  const detail::KindShape shape = detail::kKindShapes[static_cast<int>(g.kind)];
  if (shape.arity != 0) {
    QFS_ASSERT_MSG(g.qubits.size() == std::size_t{shape.arity},
                   std::string("wrong operand count for ") + gate_name(g.kind));
  } else {
    QFS_ASSERT_MSG(!g.qubits.empty(), "barrier needs at least one qubit");
  }
  QFS_ASSERT_MSG(g.params.size() == std::size_t{shape.num_params},
                 std::string("wrong parameter count for ") + gate_name(g.kind));
  QFS_ASSERT_MSG(operands_distinct(g.qubits), "repeated qubit operand in gate");
  for (int q : g.qubits) QFS_ASSERT_MSG(q >= 0, "negative qubit index");
}

/// Validated constructor: builds the gate and checks it with check_gate.
Gate make_gate(GateKind kind, Qubits qubits, Params params = {});

/// The exact inverse of a unitary gate (e.g. s -> sdg, rx(t) -> rx(-t)).
/// Calling this on a non-unitary gate is a contract violation.
Gate inverse_gate(const Gate& g);

/// Render "cx q[0],q[1]" style text for logs and golden tests.
std::string gate_to_string(const Gate& g);

}  // namespace qfs::circuit

// Small dense complex matrices and the unitary matrices of the gate set.
// Dimensions stay tiny (2/4/8 for gate matrices, up to 2^n for unitary
// equivalence checks on few-qubit circuits), so a flat row-major array is
// the right representation. A 2x2 matrix keeps its entries inline, so the
// single-qubit algebra of the lowering never touches the heap.
#pragma once

#include <complex>

#include "circuit/gate.h"

namespace qfs::circuit {

using Complex = std::complex<double>;

/// Square complex matrix, row-major.
class CMatrix {
 public:
  CMatrix() = default;
  explicit CMatrix(int dim)
      : dim_(dim), data_(static_cast<std::size_t>(dim) * dim) {}

  static CMatrix identity(int dim);

  int dim() const { return dim_; }

  Complex& at(int r, int c) {
    return data_[static_cast<std::size_t>(r) * dim_ + c];
  }
  const Complex& at(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * dim_ + c];
  }

  CMatrix operator*(const CMatrix& rhs) const;
  CMatrix operator+(const CMatrix& rhs) const;
  CMatrix scaled(Complex factor) const;

  /// Conjugate transpose.
  CMatrix adjoint() const;

  /// Largest absolute entry of (this - rhs).
  double max_abs_diff(const CMatrix& rhs) const;

  /// Frobenius norm.
  double norm() const;

  bool is_unitary(double tol = 1e-9) const;

 private:
  int dim_ = 0;
  InlineVec<Complex, 4> data_;
};

/// Entrywise closeness.
bool approx_equal(const CMatrix& a, const CMatrix& b, double tol = 1e-9);

/// Closeness up to a global phase factor e^{i phi}.
bool approx_equal_up_to_phase(const CMatrix& a, const CMatrix& b,
                              double tol = 1e-9);

/// The unitary matrix of a gate kind (operand-local: 2x2, 4x4 or 8x8, with
/// qubit operand 0 as the most significant bit). Contract violation for
/// non-unitary kinds.
CMatrix gate_matrix(const Gate& g);

}  // namespace qfs::circuit

#include "circuit/matrix.h"

#include <cmath>

namespace qfs::circuit {

namespace {
constexpr Complex kI1(0.0, 1.0);
}

CMatrix CMatrix::identity(int dim) {
  CMatrix m(dim);
  for (int i = 0; i < dim; ++i) m.at(i, i) = 1.0;
  return m;
}

CMatrix CMatrix::operator*(const CMatrix& rhs) const {
  QFS_ASSERT_MSG(dim_ == rhs.dim_, "matrix dimension mismatch");
  CMatrix out(dim_);
  for (int r = 0; r < dim_; ++r) {
    for (int k = 0; k < dim_; ++k) {
      Complex a = at(r, k);
      if (a == Complex{}) continue;
      for (int c = 0; c < dim_; ++c) out.at(r, c) += a * rhs.at(k, c);
    }
  }
  return out;
}

CMatrix CMatrix::operator+(const CMatrix& rhs) const {
  QFS_ASSERT_MSG(dim_ == rhs.dim_, "matrix dimension mismatch");
  CMatrix out(dim_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] + rhs.data_[i];
  return out;
}

CMatrix CMatrix::scaled(Complex factor) const {
  CMatrix out = *this;
  for (auto& v : out.data_) v *= factor;
  return out;
}

CMatrix CMatrix::adjoint() const {
  CMatrix out(dim_);
  for (int r = 0; r < dim_; ++r) {
    for (int c = 0; c < dim_; ++c) out.at(c, r) = std::conj(at(r, c));
  }
  return out;
}

double CMatrix::max_abs_diff(const CMatrix& rhs) const {
  QFS_ASSERT_MSG(dim_ == rhs.dim_, "matrix dimension mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - rhs.data_[i]));
  }
  return worst;
}

double CMatrix::norm() const {
  double acc = 0.0;
  for (const auto& v : data_) acc += std::norm(v);
  return std::sqrt(acc);
}

bool CMatrix::is_unitary(double tol) const {
  CMatrix prod = (*this) * adjoint();
  return prod.max_abs_diff(CMatrix::identity(dim_)) <= tol;
}

bool approx_equal(const CMatrix& a, const CMatrix& b, double tol) {
  if (a.dim() != b.dim()) return false;
  return a.max_abs_diff(b) <= tol;
}

bool approx_equal_up_to_phase(const CMatrix& a, const CMatrix& b, double tol) {
  if (a.dim() != b.dim()) return false;
  // Find the largest entry of b to estimate the phase robustly.
  int br = 0, bc = 0;
  double best = -1.0;
  for (int r = 0; r < b.dim(); ++r) {
    for (int c = 0; c < b.dim(); ++c) {
      if (std::abs(b.at(r, c)) > best) {
        best = std::abs(b.at(r, c));
        br = r;
        bc = c;
      }
    }
  }
  if (best <= tol) return approx_equal(a, b, tol);
  if (std::abs(a.at(br, bc)) <= tol) return false;
  Complex phase = a.at(br, bc) / b.at(br, bc);
  double mag = std::abs(phase);
  if (std::abs(mag - 1.0) > tol) return false;
  return approx_equal(a, b.scaled(phase), tol);
}

namespace {

CMatrix mat2(Complex a, Complex b, Complex c, Complex d) {
  CMatrix m(2);
  m.at(0, 0) = a;
  m.at(0, 1) = b;
  m.at(1, 0) = c;
  m.at(1, 1) = d;
  return m;
}

CMatrix u3_matrix(double theta, double phi, double lambda) {
  double ct = std::cos(theta / 2.0);
  double st = std::sin(theta / 2.0);
  return mat2(ct, -std::exp(kI1 * lambda) * st,
              std::exp(kI1 * phi) * st, std::exp(kI1 * (phi + lambda)) * ct);
}

/// Two-qubit controlled-U with qubit operand 0 (MSB) as control.
CMatrix controlled(const CMatrix& u) {
  QFS_ASSERT(u.dim() == 2);
  CMatrix m = CMatrix::identity(4);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) m.at(2 + r, 2 + c) = u.at(r, c);
  }
  m.at(2, 2) = u.at(0, 0);
  m.at(2, 3) = u.at(0, 1);
  m.at(3, 2) = u.at(1, 0);
  m.at(3, 3) = u.at(1, 1);
  return m;
}

/// Three-qubit gate controlled on operands 0,1 (the two MSBs).
CMatrix doubly_controlled(const CMatrix& u) {
  QFS_ASSERT(u.dim() == 2);
  CMatrix m = CMatrix::identity(8);
  m.at(6, 6) = u.at(0, 0);
  m.at(6, 7) = u.at(0, 1);
  m.at(7, 6) = u.at(1, 0);
  m.at(7, 7) = u.at(1, 1);
  return m;
}

}  // namespace

CMatrix gate_matrix(const Gate& g) {
  QFS_ASSERT_MSG(is_unitary(g.kind), "matrix of non-unitary gate");
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  switch (g.kind) {
    case GateKind::kI:
      return CMatrix::identity(2);
    case GateKind::kX:
      return mat2(0, 1, 1, 0);
    case GateKind::kY:
      return mat2(0, -kI1, kI1, 0);
    case GateKind::kZ:
      return mat2(1, 0, 0, -1);
    case GateKind::kH:
      return mat2(inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2);
    case GateKind::kS:
      return mat2(1, 0, 0, kI1);
    case GateKind::kSdg:
      return mat2(1, 0, 0, -kI1);
    case GateKind::kT:
      return mat2(1, 0, 0, std::exp(kI1 * (M_PI / 4.0)));
    case GateKind::kTdg:
      return mat2(1, 0, 0, std::exp(-kI1 * (M_PI / 4.0)));
    case GateKind::kSx:
      return mat2(Complex(0.5, 0.5), Complex(0.5, -0.5),
                  Complex(0.5, -0.5), Complex(0.5, 0.5));
    case GateKind::kSxdg:
      return mat2(Complex(0.5, -0.5), Complex(0.5, 0.5),
                  Complex(0.5, 0.5), Complex(0.5, -0.5));
    case GateKind::kRx: {
      double t = g.params[0];
      return mat2(std::cos(t / 2), -kI1 * std::sin(t / 2),
                  -kI1 * std::sin(t / 2), std::cos(t / 2));
    }
    case GateKind::kRy: {
      double t = g.params[0];
      return mat2(std::cos(t / 2), -std::sin(t / 2),
                  std::sin(t / 2), std::cos(t / 2));
    }
    case GateKind::kRz: {
      double t = g.params[0];
      return mat2(std::exp(-kI1 * (t / 2)), 0, 0, std::exp(kI1 * (t / 2)));
    }
    case GateKind::kPhase:
      return mat2(1, 0, 0, std::exp(kI1 * g.params[0]));
    case GateKind::kU3:
      return u3_matrix(g.params[0], g.params[1], g.params[2]);
    case GateKind::kCx:
      return controlled(mat2(0, 1, 1, 0));
    case GateKind::kCy:
      return controlled(mat2(0, -kI1, kI1, 0));
    case GateKind::kCz:
      return controlled(mat2(1, 0, 0, -1));
    case GateKind::kCphase:
      return controlled(mat2(1, 0, 0, std::exp(kI1 * g.params[0])));
    case GateKind::kSwap: {
      CMatrix m(4);
      m.at(0, 0) = 1;
      m.at(1, 2) = 1;
      m.at(2, 1) = 1;
      m.at(3, 3) = 1;
      return m;
    }
    case GateKind::kCcx:
      return doubly_controlled(mat2(0, 1, 1, 0));
    case GateKind::kCcz:
      return doubly_controlled(mat2(1, 0, 0, -1));
    case GateKind::kCswap: {
      CMatrix m = CMatrix::identity(8);
      // Control is operand 0 (MSB); swap the two LSB qubits when it is 1.
      m.at(5, 5) = 0;
      m.at(6, 6) = 0;
      m.at(5, 6) = 1;
      m.at(6, 5) = 1;
      return m;
    }
    default:
      QFS_ASSERT_MSG(false, "unreachable: non-unitary kind");
  }
  return CMatrix();
}

}  // namespace qfs::circuit

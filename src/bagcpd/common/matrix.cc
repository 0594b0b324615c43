#include "bagcpd/common/matrix.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "bagcpd/common/check.h"

namespace bagcpd {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    BAGCPD_CHECK_MSG(rows[i].size() == m.cols_, "ragged rows in FromRows");
    for (std::size_t j = 0; j < m.cols_; ++j) m(i, j) = rows[i][j];
  }
  return m;
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const std::vector<double>& diag) {
  Matrix m(diag.size(), diag.size(), 0.0);
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Matrix Matrix::operator+(const Matrix& other) const {
  BAGCPD_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t k = 0; k < data_.size(); ++k) {
    out.data_[k] = data_[k] + other.data_[k];
  }
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  BAGCPD_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t k = 0; k < data_.size(); ++k) {
    out.data_[k] = data_[k] - other.data_[k];
  }
  return out;
}

Matrix Matrix::operator*(const Matrix& other) const {
  BAGCPD_CHECK_MSG(cols_ == other.rows_, "shape mismatch in matmul");
  Matrix out(rows_, other.cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += aik * other(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out(rows_, cols_);
  for (std::size_t k = 0; k < data_.size(); ++k) out.data_[k] = data_[k] * scalar;
  return out;
}

std::vector<double> Matrix::MatVec(const std::vector<double>& v) const {
  BAGCPD_CHECK(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

double Matrix::Trace() const {
  BAGCPD_CHECK(rows_ == cols_);
  double acc = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) acc += (*this)(i, i);
  return acc;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  BAGCPD_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0.0;
  for (std::size_t k = 0; k < data_.size(); ++k) {
    m = std::max(m, std::abs(data_[k] - other.data_[k]));
  }
  return m;
}

bool Matrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < cols_; ++j) {
      if (std::abs((*this)(i, j) - (*this)(j, i)) > tol) return false;
    }
  }
  return true;
}

Result<Matrix> Matrix::Cholesky() const {
  if (rows_ != cols_) return Status::Invalid("Cholesky of non-square matrix");
  const std::size_t n = rows_;
  Matrix l(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = (*this)(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          return Status::Invalid("matrix is not positive definite (pivot " +
                                 std::to_string(i) + " = " +
                                 std::to_string(sum) + ")");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

Result<std::vector<double>> Matrix::SolveSpd(
    const std::vector<double>& b) const {
  if (b.size() != rows_) return Status::Invalid("rhs size mismatch");
  BAGCPD_ASSIGN_OR_RETURN(Matrix l, Cholesky());
  const std::size_t n = rows_;
  // Forward solve L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Back solve L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
    x[i] = sum / l(i, i);
  }
  return x;
}

Result<std::vector<double>> Matrix::SolveLu(const std::vector<double>& b) const {
  if (rows_ != cols_) return Status::Invalid("SolveLu of non-square matrix");
  if (b.size() != rows_) return Status::Invalid("rhs size mismatch");
  const std::size_t n = rows_;
  Matrix a = *this;
  std::vector<double> x = b;
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = std::abs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(a(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-14) return Status::Invalid("matrix is numerically singular");
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(col, j), a(pivot, j));
      std::swap(x[col], x[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / a(col, col);
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) a(r, j) -= factor * a(col, j);
      x[r] -= factor * x[col];
    }
  }
  // Back substitution.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = x[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= a(i, j) * x[j];
    x[i] = sum / a(i, i);
  }
  return x;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  for (std::size_t i = 0; i < rows_; ++i) {
    os << (i == 0 ? "[[" : " [");
    for (std::size_t j = 0; j < cols_; ++j) {
      if (j) os << ", ";
      os << (*this)(i, j);
    }
    os << (i + 1 == rows_ ? "]]" : "]\n");
  }
  return os.str();
}

Result<SymmetricEigen> JacobiEigenSymmetric(const Matrix& a, int max_sweeps,
                                            double tol) {
  if (a.rows() != a.cols()) return Status::Invalid("matrix is not square");
  if (!a.IsSymmetric(1e-9)) return Status::Invalid("matrix is not symmetric");
  const std::size_t n = a.rows();
  Matrix d = a;
  Matrix v = Matrix::Identity(n);

  auto off_diagonal_norm = [&]() {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) acc += d(i, j) * d(i, j);
    }
    return std::sqrt(acc);
  };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() <= tol * (1.0 + d.FrobeniusNorm())) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double app = d(p, p);
        const double aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k);
          const double dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  SymmetricEigen eig;
  eig.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) eig.values[i] = d(i, i);

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return eig.values[x] > eig.values[y];
  });
  std::vector<double> sorted_values(n);
  Matrix sorted_vectors(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    sorted_values[k] = eig.values[order[k]];
    for (std::size_t i = 0; i < n; ++i) {
      sorted_vectors(i, k) = v(i, order[k]);
    }
  }
  eig.values = std::move(sorted_values);
  eig.vectors = std::move(sorted_vectors);
  return eig;
}

}  // namespace bagcpd

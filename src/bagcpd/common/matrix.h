// Small dense linear-algebra substrate: row-major double matrices with the
// factorizations the library needs (Cholesky for Gaussian sampling, symmetric
// Jacobi eigendecomposition for classical MDS and the baselines). Not a BLAS;
// problem sizes here are tens to a few hundreds.

#ifndef BAGCPD_COMMON_MATRIX_H_
#define BAGCPD_COMMON_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "bagcpd/common/check.h"
#include "bagcpd/common/result.h"
#include "bagcpd/common/status.h"

namespace bagcpd {

/// \brief Dense row-major matrix of doubles.
class Matrix {
 public:
  /// Creates an empty (0 x 0) matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Creates a matrix from nested initializer data (rows of equal length).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// \brief The n x n identity.
  static Matrix Identity(std::size_t n);

  /// \brief Diagonal matrix from a vector.
  static Matrix Diagonal(const std::vector<double>& diag);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  // Inline: the bootstrap's score reads the log-EMD tables through these
  // once per weight pair and replicate.
  double& operator()(std::size_t i, std::size_t j) {
    BAGCPD_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    BAGCPD_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// \brief Raw row-major storage.
  const std::vector<double>& data() const { return data_; }

  Matrix Transpose() const;
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(const Matrix& other) const;
  Matrix operator*(double scalar) const;

  /// \brief Matrix-vector product.
  std::vector<double> MatVec(const std::vector<double>& v) const;

  /// \brief Sum of diagonal entries (square matrices).
  double Trace() const;

  /// \brief Frobenius norm.
  double FrobeniusNorm() const;

  /// \brief Max |a_ij - b_ij|; matrices must have equal shape.
  double MaxAbsDiff(const Matrix& other) const;

  /// \brief True if |a_ij - a_ji| <= tol for all entries.
  bool IsSymmetric(double tol = 1e-12) const;

  /// \brief Lower-triangular Cholesky factor L with A = L L^T.
  /// Fails with Invalid if the matrix is not symmetric positive definite.
  Result<Matrix> Cholesky() const;

  /// \brief Solves A x = b for symmetric positive-definite A via Cholesky.
  Result<std::vector<double>> SolveSpd(const std::vector<double>& b) const;

  /// \brief Solves A x = b for general square A via partially pivoted LU.
  /// Fails with Invalid if the matrix is singular to working precision.
  Result<std::vector<double>> SolveLu(const std::vector<double>& b) const;

  /// \brief Human-readable rendering for diagnostics.
  std::string ToString(int precision = 4) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// \brief Eigendecomposition of a symmetric matrix.
struct SymmetricEigen {
  /// Eigenvalues in descending order.
  std::vector<double> values;
  /// Column k of `vectors` (i.e. vectors(i, k)) is the unit eigenvector for
  /// values[k].
  Matrix vectors;
};

/// \brief Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Converges quadratically; suitable for the n <= few-hundred matrices used by
/// classical MDS. Fails with Invalid if `a` is not square/symmetric.
Result<SymmetricEigen> JacobiEigenSymmetric(const Matrix& a,
                                            int max_sweeps = 64,
                                            double tol = 1e-12);

}  // namespace bagcpd

#endif  // BAGCPD_COMMON_MATRIX_H_

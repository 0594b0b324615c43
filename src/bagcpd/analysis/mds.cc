#include "bagcpd/analysis/mds.h"

#include <cmath>

namespace bagcpd {

Result<MdsEmbedding> ClassicalMds(const Matrix& distances, std::size_t dims) {
  if (distances.rows() != distances.cols()) {
    return Status::Invalid("distance matrix is not square");
  }
  if (!distances.IsSymmetric(1e-8)) {
    return Status::Invalid("distance matrix is not symmetric");
  }
  const std::size_t n = distances.rows();
  if (dims == 0 || dims > n) return Status::Invalid("invalid embedding dims");

  // B = -1/2 J D^2 J with J = I - 11^T / n (double centering).
  Matrix d2(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      d2(i, j) = distances(i, j) * distances(i, j);
    }
  }
  std::vector<double> row_mean(n, 0.0);
  double grand_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) row_mean[i] += d2(i, j);
    row_mean[i] /= static_cast<double>(n);
    grand_mean += row_mean[i];
  }
  grand_mean /= static_cast<double>(n);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b(i, j) = -0.5 * (d2(i, j) - row_mean[i] - row_mean[j] + grand_mean);
    }
  }

  BAGCPD_ASSIGN_OR_RETURN(SymmetricEigen eig, JacobiEigenSymmetric(b));

  MdsEmbedding out;
  out.eigenvalues = eig.values;
  out.coordinates = Matrix(n, dims, 0.0);
  for (std::size_t k = 0; k < dims; ++k) {
    const double lambda = eig.values[k];
    if (lambda <= 0.0) continue;  // Non-Euclidean remainder; leave zero.
    const double scale = std::sqrt(lambda);
    for (std::size_t i = 0; i < n; ++i) {
      out.coordinates(i, k) = scale * eig.vectors(i, k);
    }
  }
  return out;
}

}  // namespace bagcpd

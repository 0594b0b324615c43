#include "bagcpd/info/estimators.h"

#include <algorithm>
#include <cmath>

#include "bagcpd/common/check.h"
#include "bagcpd/emd/approx/emd_solver.h"
#include "bagcpd/emd/emd.h"

namespace bagcpd {

Matrix LogDistances(const Matrix& distances, double distance_floor) {
  BAGCPD_CHECK(distance_floor > 0.0);
  Matrix out(distances.rows(), distances.cols());
  for (std::size_t i = 0; i < distances.rows(); ++i) {
    for (std::size_t j = 0; j < distances.cols(); ++j) {
      out(i, j) = std::log(std::max(distances(i, j), distance_floor));
    }
  }
  return out;
}

double InformationContentFromLog(const std::vector<double>& log_dist_to_s,
                                 const std::vector<double>& gamma_prime,
                                 const InfoEstimatorOptions& options) {
  BAGCPD_CHECK(log_dist_to_s.size() == gamma_prime.size());
  double acc = 0.0;
  for (std::size_t j = 0; j < gamma_prime.size(); ++j) {
    acc += gamma_prime[j] * log_dist_to_s[j];
  }
  return options.c + options.d * acc;
}

double AutoEntropyFromLog(const Matrix& log_dist,
                          const std::vector<double>& gamma,
                          const InfoEstimatorOptions& options) {
  const std::size_t n = gamma.size();
  BAGCPD_CHECK(log_dist.rows() == n && log_dist.cols() == n);
  BAGCPD_CHECK_MSG(n >= 2, "auto-entropy needs at least two elements");
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // gamma_i == 1 would zero every other weight; the i-th term then has an
    // empty inner sum, so skip it (limit of the expression as gamma_i -> 1).
    const double denom = 1.0 - gamma[i];
    if (denom <= 0.0) continue;
    double inner = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      inner += gamma[j] * log_dist(i, j);
    }
    acc += gamma[i] * inner / denom;
  }
  return options.c + options.d * acc;
}

double CrossEntropyFromLog(const Matrix& log_dist,
                           const std::vector<double>& gamma,
                           const std::vector<double>& gamma_prime,
                           const InfoEstimatorOptions& options) {
  BAGCPD_CHECK(log_dist.rows() == gamma.size());
  BAGCPD_CHECK(log_dist.cols() == gamma_prime.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    if (gamma[i] == 0.0) continue;
    double inner = 0.0;
    for (std::size_t j = 0; j < gamma_prime.size(); ++j) {
      inner += gamma_prime[j] * log_dist(i, j);
    }
    acc += gamma[i] * inner;
  }
  return options.c + options.d * acc;
}

Result<double> InformationContent(const Signature& s,
                                  const WeightedSignatureSet& s_prime,
                                  GroundDistance ground,
                                  const InfoEstimatorOptions& options) {
  BAGCPD_RETURN_NOT_OK(s.Validate());
  BAGCPD_RETURN_NOT_OK(s_prime.Validate());
  // One shared-right batch of s_prime's signatures against s: the full
  // transportation solve for every pair, so each distance is bitwise the
  // one CrossDistanceMatrix computes.
  std::vector<SignatureView> views;
  views.reserve(s_prime.size());
  for (std::size_t j = 0; j < s_prime.size(); ++j) {
    views.push_back(s_prime.signatures.view(j));
  }
  std::vector<double> log_dist(s_prime.size());
  BAGCPD_RETURN_NOT_OK(DefaultEmdWorkspace().ComputeBatch(
      views.data(), views.size(), s, ground, log_dist.data()));
  for (double& d : log_dist) d = std::log(std::max(d, options.distance_floor));
  return InformationContentFromLog(log_dist, s_prime.weights, options);
}

Result<double> AutoEntropy(const WeightedSignatureSet& s, GroundDistance ground,
                           const InfoEstimatorOptions& options) {
  BAGCPD_RETURN_NOT_OK(s.Validate());
  if (s.size() < 2) {
    return Status::Invalid("auto-entropy needs at least two signatures");
  }
  BAGCPD_ASSIGN_OR_RETURN(Matrix dist, PairwiseEmdMatrix(s.signatures, ground));
  return AutoEntropyFromLog(LogDistances(dist, options.distance_floor),
                            s.weights, options);
}

Result<double> CrossEntropy(const WeightedSignatureSet& s,
                            const WeightedSignatureSet& s_prime,
                            GroundDistance ground,
                            const InfoEstimatorOptions& options) {
  BAGCPD_RETURN_NOT_OK(s.Validate());
  BAGCPD_RETURN_NOT_OK(s_prime.Validate());
  BAGCPD_ASSIGN_OR_RETURN(
      Matrix dist, CrossDistanceMatrix(s.signatures, s_prime.signatures, ground));
  return CrossEntropyFromLog(LogDistances(dist, options.distance_floor),
                             s.weights, s_prime.weights, options);
}

Result<double> SymmetrizedKl(const WeightedSignatureSet& s,
                             const WeightedSignatureSet& s_prime,
                             GroundDistance ground,
                             const InfoEstimatorOptions& options) {
  BAGCPD_ASSIGN_OR_RETURN(double cross, CrossEntropy(s, s_prime, ground, options));
  BAGCPD_ASSIGN_OR_RETURN(double auto_s, AutoEntropy(s, ground, options));
  BAGCPD_ASSIGN_OR_RETURN(double auto_sp, AutoEntropy(s_prime, ground, options));
  // Eq. 17: (2 H(S,S') - H(S) - H(S')) / 2; H(.,.) is symmetric since EMD is.
  return cross - 0.5 * (auto_s + auto_sp);
}

}  // namespace bagcpd

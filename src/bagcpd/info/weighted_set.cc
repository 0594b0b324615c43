#include "bagcpd/info/weighted_set.h"

#include <cmath>

#include "bagcpd/common/check.h"

namespace bagcpd {

Status WeightedSignatureSet::Validate(double tol) const {
  if (signatures.empty()) return Status::Invalid("weighted set is empty");
  if (signatures.size() != weights.size()) {
    return Status::Invalid("weighted set size mismatch");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) return Status::Invalid("negative weight in weighted set");
    total += w;
  }
  if (std::abs(total - 1.0) > tol) {
    return Status::Invalid("weights sum to " + std::to_string(total) +
                           ", expected 1");
  }
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    BAGCPD_RETURN_NOT_OK(signatures.view(i).Validate());
  }
  return Status::OK();
}

WeightedSignatureSet WeightedSignatureSet::Uniform(SignatureSet signatures) {
  WeightedSignatureSet set;
  const double w = signatures.empty()
                       ? 0.0
                       : 1.0 / static_cast<double>(signatures.size());
  set.weights.assign(signatures.size(), w);
  set.signatures = std::move(signatures);
  return set;
}

std::vector<double> DiscountWeights(std::size_t window, bool toward_end) {
  BAGCPD_CHECK(window > 0);
  std::vector<double> w(window);
  double total = 0.0;
  for (std::size_t o = 0; o < window; ++o) {
    // Distance from the inspection point: the element adjacent to t gets 1,
    // the next 1/2, etc. (paper Eq. 15).
    const std::size_t steps = toward_end ? (window - o) : (o + 1);
    w[o] = 1.0 / static_cast<double>(steps);
    total += w[o];
  }
  for (double& v : w) v /= total;
  return w;
}

}  // namespace bagcpd

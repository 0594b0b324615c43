// A weighted collection of signatures: the object the distance-based
// information estimators operate on (paper Section 3.3,
// S = {(S_i, gamma_i)} with gamma_i >= 0, sum gamma_i = 1).
//
// Members live in a SignatureSet — one shared center buffer, one shared
// weight buffer — so the estimators' distance-matrix builds stream all
// signatures through the cache instead of chasing per-signature heap blocks.
// Members may be invalid (SignatureSet::AppendUnchecked); Validate() reports
// them as a Status, so no estimator aborts on bad input.

#ifndef BAGCPD_INFO_WEIGHTED_SET_H_
#define BAGCPD_INFO_WEIGHTED_SET_H_

#include <vector>

#include "bagcpd/common/status.h"
#include "bagcpd/signature/signature.h"
#include "bagcpd/signature/signature_set.h"

namespace bagcpd {

/// \brief Signatures (shared-buffer SoA) with simplex weights.
struct WeightedSignatureSet {
  SignatureSet signatures;
  /// gamma_i: non-negative, summing to one (checked by Validate()).
  std::vector<double> weights;

  std::size_t size() const { return signatures.size(); }

  /// \brief Structural validation: sizes match, weights on the simplex
  /// (within `tol` of summing to one), every signature valid.
  Status Validate(double tol = 1e-9) const;

  /// \brief Builds a set with uniform weights 1/n.
  static WeightedSignatureSet Uniform(SignatureSet signatures);
};

/// \brief The per-element discount weights of paper Eq. 15, normalized to the
/// simplex. For a reference window {t - tau, ..., t - 1} the weight of the
/// element at offset o from the inspection point decays as 1 / (distance to t).
///
/// `window` is the window length; `toward_end` selects whether weights grow
/// toward the end of the window (reference windows, newest last) or toward the
/// beginning (test windows, newest first).
std::vector<double> DiscountWeights(std::size_t window, bool toward_end);

}  // namespace bagcpd

#endif  // BAGCPD_INFO_WEIGHTED_SET_H_

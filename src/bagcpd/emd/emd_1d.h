// Exact fast path for one-dimensional EMD with |x - y| ground distance and
// equal total weights: the optimal transport cost on the line equals the L1
// distance between the two cumulative weight functions,
//
//   cost = integral |F_a(x) - F_b(x)| dx,
//
// computable by one sorted sweep in O((K + L) log(K + L)) instead of a
// min-cost-flow solve. This matters in practice: every bipartite-graph
// feature of Section 5.3 produces 1-d bags, and normalized signatures (unit
// total mass) always qualify.
//
// ComputeEmd() dispatches here automatically when the signatures are 1-d,
// the ground distance is Euclidean/Manhattan (identical in 1-d), and the
// totals match to relative precision; the transportation solver remains the
// general path (and the only one that reports the flow matrix).

#ifndef BAGCPD_EMD_EMD_1D_H_
#define BAGCPD_EMD_EMD_1D_H_

#include "bagcpd/common/result.h"
#include "bagcpd/emd/ground_distance.h"
#include "bagcpd/signature/signature.h"

namespace bagcpd {

/// \brief True iff the fast path applies: both signatures 1-d with equal
/// total weight (relative tolerance 1e-9).
bool Emd1dApplicable(SignatureView a, SignatureView b);

/// \brief Exact 1-d balanced EMD (Eq. 12 value) under a Euclidean or
/// Manhattan `ground` (equal in 1-d). Fails with Invalid where
/// Emd1dApplicable does not hold, and where the transportation solve finds a
/// ground distance that is not finite.
Result<double> ComputeEmd1d(SignatureView a, SignatureView b,
                            GroundDistance ground = GroundDistance::kEuclidean);

}  // namespace bagcpd

#endif  // BAGCPD_EMD_EMD_1D_H_

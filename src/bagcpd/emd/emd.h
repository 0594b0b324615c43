// Earth Mover's Distance between signatures (paper Section 3.2, Eqs. 7-12;
// Rubner, Tomasi & Guibas 2000). Supports partial matching: when the two
// signatures carry different total weight, only min(W, W') mass is moved and
// the distance is normalized by the moved mass (Eq. 12), exactly as in the
// paper's formulation.
//
// All entry points take SignatureView, so owning Signatures (implicit
// conversion), SignatureSet members, and SignatureRing slots all flow through
// one code path. The batch helpers take SignatureSet — one shared buffer for
// the whole batch; callers holding owning Signatures Append them into one.
//
// Every transportation solve here runs on the calling thread's
// DefaultEmdWorkspace() (emd/approx/emd_solver.h), so steady state is
// allocation-free.

#ifndef BAGCPD_EMD_EMD_H_
#define BAGCPD_EMD_EMD_H_

#include "bagcpd/common/matrix.h"
#include "bagcpd/common/result.h"
#include "bagcpd/emd/ground_distance.h"
#include "bagcpd/signature/signature.h"
#include "bagcpd/signature/signature_set.h"

namespace bagcpd {

class ThreadPool;

/// \brief Detailed EMD output including the optimal flow.
struct EmdSolution {
  /// The Earth Mover's Distance (Eq. 12): cost / moved mass.
  double emd = 0.0;
  /// Total transported mass == min(total weight of a, total weight of b).
  double total_flow = 0.0;
  /// Total transportation cost sum_kl f*_kl d_kl.
  double cost = 0.0;
  /// flow(k, l) = optimal f*_kl (size K x L).
  Matrix flow;
};

/// \brief Computes the EMD and the optimal flow between two signatures
/// with the full transportation solve.
///
/// Fails with Invalid if either signature is structurally invalid.
Result<EmdSolution> ComputeEmdDetailed(
    SignatureView a, SignatureView b,
    GroundDistance ground = GroundDistance::kEuclidean);

/// \brief The EMD alone (default ground distance: Euclidean, the paper's
/// choice): the same transportation solve as ComputeEmdDetailed, the matrix
/// fills, the information estimators and the detector, so its value equals
/// theirs bitwise.
Result<double> ComputeEmd(SignatureView a, SignatureView b,
                          GroundDistance ground = GroundDistance::kEuclidean);

/// \brief Dense symmetric matrix of pairwise EMDs over a set of signatures
/// (used by the Fig. 6 EMD heat maps and MDS embeddings).
///
/// With a `pool`, the C(n, 2) transportation problems are solved in
/// ParallelForChunked's chunks (the split is a pure function of the pair
/// count and pool size); without one, the calling thread solves them as one
/// chunk. Each EMD depends only on its two signatures, so the matrix is
/// bitwise-identical for any pool size, and a failure returns the error of
/// the lowest failing pair in row-major order.
Result<Matrix> PairwiseEmdMatrix(const SignatureSet& signatures,
                                 GroundDistance ground = GroundDistance::kEuclidean,
                                 ThreadPool* pool = nullptr);

/// \brief Dense |a| x |b| matrix of EMDs between two signature sets (the
/// cross-entropy table of the information estimators). With a `pool` the
/// rows are solved in ParallelForChunked's chunks, otherwise as one chunk on
/// the calling thread; bitwise-identical for any pool size, and a failure
/// returns the error of the lowest failing pair in row-major order.
Result<Matrix> CrossDistanceMatrix(const SignatureSet& a,
                                   const SignatureSet& b,
                                   GroundDistance ground = GroundDistance::kEuclidean,
                                   ThreadPool* pool = nullptr);

}  // namespace bagcpd

#endif  // BAGCPD_EMD_EMD_H_

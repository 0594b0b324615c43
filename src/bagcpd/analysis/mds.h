// Classical multidimensional scaling (Torgerson): embeds a distance matrix
// into a low-dimensional Euclidean space. Used to render the Fig. 6 center
// panels (bags mapped to 2-d from their pairwise EMDs).

#ifndef BAGCPD_ANALYSIS_MDS_H_
#define BAGCPD_ANALYSIS_MDS_H_

#include <vector>

#include "bagcpd/common/matrix.h"
#include "bagcpd/common/result.h"

namespace bagcpd {

/// \brief Classical MDS output.
struct MdsEmbedding {
  /// n x dims coordinate matrix.
  Matrix coordinates;
  /// The eigenvalues of the doubly-centered Gram matrix (descending); the
  /// leading `dims` were used. Negative tail values measure how non-Euclidean
  /// the distances are.
  std::vector<double> eigenvalues;
};

/// \brief Embeds the symmetric distance matrix `distances` into `dims`
/// dimensions. Components with non-positive eigenvalues are zeroed.
Result<MdsEmbedding> ClassicalMds(const Matrix& distances, std::size_t dims = 2);

}  // namespace bagcpd

#endif  // BAGCPD_ANALYSIS_MDS_H_

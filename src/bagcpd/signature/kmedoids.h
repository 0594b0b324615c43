// k-medoids quantizer (PAM-style BUILD + SWAP), the second quantization
// option named in paper Section 3.1. Medoids are actual bag points, which is
// preferable when centroids of the data are not meaningful.

#ifndef BAGCPD_SIGNATURE_KMEDOIDS_H_
#define BAGCPD_SIGNATURE_KMEDOIDS_H_

#include <cstdint>

#include "bagcpd/common/point.h"
#include "bagcpd/common/result.h"
#include "bagcpd/signature/signature.h"

namespace bagcpd {

/// \brief Configuration for KMedoidsQuantize.
struct KMedoidsOptions {
  /// Requested number of medoids; clamped to the bag size.
  std::size_t k = 8;
  /// Maximum SWAP passes.
  int max_iterations = 20;
  /// When the bag is larger than this, SWAP candidates are subsampled to keep
  /// the quantizer O(n * sample) per pass instead of O(n^2).
  std::size_t swap_candidate_sample = 64;
  std::uint64_t seed = 0;
};

/// \brief k-medoids output.
struct KMedoidsResult {
  Signature signature;
  /// Indices into the bag of the chosen medoids.
  std::vector<std::size_t> medoid_indices;
  /// Sum of distances of points to their medoid.
  double total_deviation = 0.0;
};

/// \brief Clusters `bag` around k of its own points (Euclidean distance) and
/// returns medoids as centers with member counts as weights.
Result<KMedoidsResult> KMedoidsQuantize(BagView bag,
                                        const KMedoidsOptions& options);

/// \brief Same clustering, streaming the surviving (medoid, weight) pairs
/// into `sink` (sized for at least min(options.k, bag.size()) centers,
/// typically borrowed over a SignatureRing slot) instead of materializing a
/// Signature. KMedoidsQuantize is this call over an owning assembler, so the
/// pairs are identical.
Status KMedoidsQuantizeInto(BagView bag, const KMedoidsOptions& options,
                            SignatureAssembler* sink);

}  // namespace bagcpd

#endif  // BAGCPD_SIGNATURE_KMEDOIDS_H_

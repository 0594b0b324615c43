// Lloyd's k-means with k-means++ seeding: the default quantizer turning a bag
// into a signature (paper Section 3.1). Operates on contiguous BagViews with
// flat center buffers — no per-point heap allocation in the hot loops.

#ifndef BAGCPD_SIGNATURE_KMEANS_H_
#define BAGCPD_SIGNATURE_KMEANS_H_

#include <cstdint>

#include "bagcpd/common/point.h"
#include "bagcpd/common/result.h"
#include "bagcpd/signature/signature.h"

namespace bagcpd {

/// \brief Configuration for KMeansQuantize.
struct KMeansOptions {
  /// Requested number of clusters; clamped to the bag size.
  std::size_t k = 8;
  /// Maximum Lloyd iterations.
  int max_iterations = 50;
  /// Convergence threshold on total squared center movement.
  double tolerance = 1e-7;
  /// Seed for the k-means++ initialization.
  std::uint64_t seed = 0;
};

/// \brief Full k-means output: assignments alongside the signature.
struct KMeansResult {
  Signature signature;
  /// assignment[i] is the cluster index of bag point i.
  std::vector<std::size_t> assignment;
  /// Final within-cluster sum of squared distances.
  double inertia = 0.0;
  /// Number of Lloyd iterations executed.
  int iterations = 0;
};

/// \brief Clusters `bag` into at most `options.k` groups and returns the
/// cluster centers as signature centers with member counts as weights.
///
/// Empty clusters are reseeded to the point farthest from its center, so the
/// returned signature always has strictly positive weights. Fails with
/// Invalid if the bag is empty.
///
/// With a non-null `arena` the signature's packed buffer and the per-call
/// scratch are drawn from (and recycled through) that arena; results are
/// bitwise-identical either way.
Result<KMeansResult> KMeansQuantize(BagView bag, const KMeansOptions& options,
                                    BufferArena* arena = nullptr);

/// \brief Same clustering, but the surviving (center, weight) pairs stream
/// into `sink` — a SignatureAssembler sized for at least min(options.k,
/// bag.size()) centers, typically in borrowed-buffer mode over a
/// SignatureRing slot — instead of materializing a Signature. KMeansQuantize
/// is this call over an owning assembler, so the pairs are identical. On
/// error nothing has been added.
Status KMeansQuantizeInto(BagView bag, const KMeansOptions& options,
                          BufferArena* arena, SignatureAssembler* sink);

}  // namespace bagcpd

#endif  // BAGCPD_SIGNATURE_KMEANS_H_

// SignatureBuilder: the single configuration point choosing how bags are
// summarized into signatures. The detector and all experiment harnesses go
// through this interface, on zero-copy BagViews; nested bags are flattened
// once at the facade (FlatBag::FromBag) before they get here.
//
// Both entry points share one assembly path: a single private Emit holds
// the method switch and writes the quantizer's (center, weight) pairs into
// a SignatureAssembler. Build() gives it an owning assembler and adopts the
// buffer; BuildInto() gives it one borrowed over the next SignatureRing slot.

#ifndef BAGCPD_SIGNATURE_BUILDER_H_
#define BAGCPD_SIGNATURE_BUILDER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bagcpd/common/point.h"
#include "bagcpd/common/result.h"
#include "bagcpd/signature/histogram.h"
#include "bagcpd/signature/kmeans.h"
#include "bagcpd/signature/kmedoids.h"
#include "bagcpd/signature/lvq.h"
#include "bagcpd/signature/signature.h"
#include "bagcpd/signature/signature_set.h"

namespace bagcpd {

/// \brief Quantization method used to form signatures (paper Section 3.1).
enum class SignatureMethod {
  /// Lloyd k-means with k-means++ seeding (default).
  kKMeans,
  /// PAM-style k-medoids.
  kKMedoids,
  /// Competitive-learning vector quantization.
  kLvq,
  /// Fixed-width histogram bins.
  kHistogram,
  /// Single centroid (the information-losing baseline of Section 1).
  kCentroid,
};

/// \brief Returns a short lowercase name ("kmeans", "histogram", ...).
const char* SignatureMethodName(SignatureMethod method);

/// \brief Every quantization method, in declaration order (api/ registry
/// name table).
const std::vector<SignatureMethod>& AllSignatureMethods();

/// \brief Inverse of SignatureMethodName; rejects unknown names with a
/// message listing the known ones.
Result<SignatureMethod> ParseSignatureMethod(const std::string& name);

/// \brief Unified options for SignatureBuilder.
struct SignatureBuilderOptions {
  SignatureMethod method = SignatureMethod::kKMeans;
  /// Cluster/prototype count for kKMeans / kKMedoids / kLvq.
  std::size_t k = 8;
  /// Histogram bin width for kHistogram.
  double bin_width = 1.0;
  /// Histogram grid origin for kHistogram.
  double histogram_origin = 0.0;
  /// If true, signature weights are normalized to total mass 1. EMD between
  /// normalized signatures is a metric (balanced transport), bag-size
  /// fluctuations stop leaking into the distances, and the exact 1-d sweep
  /// fast path applies to every pair (emd/emd_1d.h). The paper's experiments
  /// use raw counts (partial matching); both behave almost identically
  /// because Eq. 12 normalizes by the moved mass.
  bool normalize = false;
  /// Base seed; per-bag seeds are derived from it and the bag index so the
  /// same stream always produces the same signatures.
  std::uint64_t seed = 0;
};

/// \brief Stateless factory turning bags into signatures.
class SignatureBuilder {
 public:
  explicit SignatureBuilder(SignatureBuilderOptions options)
      : options_(options) {}

  /// \brief Builds the signature of `bag` (normalized iff options().normalize).
  /// `bag_index` seeds any stochastic quantizer deterministically per
  /// position in the stream. With a non-null `arena`, the signature's packed
  /// buffer and the quantizer scratch recycle through that arena (identical
  /// output either way).
  Result<Signature> Build(BagView bag, std::uint64_t bag_index = 0,
                          BufferArena* arena = nullptr) const;

  /// \brief Builds the signature of `bag` directly into `ring`'s next slot —
  /// the quantizer assembles into the ring's own storage (borrowed slot), so
  /// the detector push path performs no intermediate signature copy. The
  /// slot is sized to the method's cluster bound: min(k, n) for the
  /// clustering quantizers, 1 for the centroid, and the exact occupied-bin
  /// count for histogram, which bins the bag before borrowing. The committed
  /// slot, and the ring's footprint, match Build() + SignatureRing::PushBack
  /// bit for bit. On error the ring is unchanged.
  Status BuildInto(BagView bag, std::uint64_t bag_index, BufferArena* arena,
                   SignatureRing* ring) const;

  const SignatureBuilderOptions& options() const { return options_; }

 private:
  /// \brief The one method switch: validates `bag`, quantizes it and emits
  /// the (normalized iff options().normalize) signature into `*sink`, which
  /// it opens once the cluster bound is known — over a slot borrowed from
  /// `ring` when `ring` is non-null, else owning (from `arena` if given).
  /// On error an opened sink may hold a borrow the caller must cancel.
  Status Emit(BagView bag, std::uint64_t bag_index, BufferArena* arena,
              SignatureRing* ring,
              std::optional<SignatureAssembler>* sink) const;

  SignatureBuilderOptions options_;
};

}  // namespace bagcpd

#endif  // BAGCPD_SIGNATURE_BUILDER_H_

// Unsupervised learning-vector-quantization (competitive learning / online
// k-means), the third quantization option named in paper Section 3.1
// (Kohonen, "Learning vector quantization"). Processes the bag in one or more
// online passes, moving the winning prototype toward each sample with a
// decaying learning rate.

#ifndef BAGCPD_SIGNATURE_LVQ_H_
#define BAGCPD_SIGNATURE_LVQ_H_

#include <cstdint>

#include "bagcpd/common/point.h"
#include "bagcpd/common/result.h"
#include "bagcpd/signature/signature.h"

namespace bagcpd {

/// \brief Configuration for LvqQuantize.
struct LvqOptions {
  /// Number of prototypes; clamped to the bag size.
  std::size_t k = 8;
  /// Number of online passes over the (shuffled) bag.
  int epochs = 5;
  /// Initial learning rate; decays linearly to ~0 over all updates.
  double initial_learning_rate = 0.3;
  std::uint64_t seed = 0;
};

/// \brief Quantizes `bag` with competitive learning and returns prototypes as
/// centers with final assignment counts as weights.
Result<Signature> LvqQuantize(BagView bag, const LvqOptions& options,
                              BufferArena* arena = nullptr);

/// \brief Same quantization, streaming the surviving (prototype, weight)
/// pairs into `sink` (sized for at least min(options.k, bag.size()) centers,
/// typically borrowed over a SignatureRing slot) instead of materializing a
/// Signature. LvqQuantize is this call over an owning assembler, so the
/// pairs are identical.
Status LvqQuantizeInto(BagView bag, const LvqOptions& options,
                       BufferArena* arena, SignatureAssembler* sink);

}  // namespace bagcpd

#endif  // BAGCPD_SIGNATURE_LVQ_H_

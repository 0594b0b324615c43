// Fixed-width histogram signatures: partition R^d into axis-aligned bins and
// count the observations per bin (paper Section 3.1, "another very simple way
// to make signatures"). Only non-empty bins are materialized, so the signature
// stays sparse even in higher dimensions.

#ifndef BAGCPD_SIGNATURE_HISTOGRAM_H_
#define BAGCPD_SIGNATURE_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "bagcpd/common/point.h"
#include "bagcpd/common/result.h"
#include "bagcpd/signature/signature.h"

namespace bagcpd {

/// \brief Configuration for HistogramQuantize.
struct HistogramOptions {
  /// Bin width along every axis.
  double bin_width = 1.0;
  /// Origin of the grid (bin b covers [origin + b*w, origin + (b+1)*w)).
  double origin = 0.0;
  /// If true, the center of each occupied bin is used as the signature center;
  /// if false, the mean of the samples inside the bin is used (tighter ground
  /// distances; still a histogram partition).
  bool use_bin_centers = true;
};

/// \brief A bag sorted into the histogram grid, before any signature
/// exists. size() is the exact number of centers EmitInto() adds, so a
/// caller sizes its SignatureAssembler — or borrows a SignatureRing slot —
/// to fit. Its buffers are reused from bag to bag.
class HistogramBins {
 public:
  /// \brief Bins `bag`, replacing any earlier binning; fails on an invalid
  /// bag, a non-positive width, or a value whose bin index falls outside the
  /// int64 range (and then holds no bins).
  Status Compute(BagView bag, const HistogramOptions& options);

  /// \brief Number of occupied bins.
  std::size_t size() const { return counts_.size(); }

  /// \brief Adds one (center, count) pair per occupied bin, in grid order.
  /// `sink` has room for at least size() centers of the bag's dimension.
  void EmitInto(SignatureAssembler* sink) const;

 private:
  std::size_t dim_ = 0;
  std::vector<std::int64_t> keys_;  // keys_[i * dim_ + j]: point i, axis j.
  // The rows sorted by (bin multi-index, row): one run per occupied bin.
  std::vector<std::size_t> order_;
  // Per occupied bin, in grid order: its center (dim_ doubles) and count.
  std::vector<double> centers_;
  std::vector<double> counts_;
};

/// \brief Histogram-quantizes `bag`; weights are per-bin counts.
Result<Signature> HistogramQuantize(BagView bag,
                                    const HistogramOptions& options);

}  // namespace bagcpd

#endif  // BAGCPD_SIGNATURE_HISTOGRAM_H_

// Fixed-width histogram signatures: partition R^d into axis-aligned bins and
// count the observations per bin (paper Section 3.1, "another very simple way
// to make signatures"). Only non-empty bins are materialized, so the signature
// stays sparse even in higher dimensions.

#ifndef BAGCPD_SIGNATURE_HISTOGRAM_H_
#define BAGCPD_SIGNATURE_HISTOGRAM_H_

#include <cstdint>
#include <map>
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
/// to fit.
class HistogramBins {
 public:
  /// \brief Bins `bag`; fails on an invalid bag, a non-positive width, or a
  /// value whose bin index falls outside the int64 range.
  static Result<HistogramBins> Compute(BagView bag,
                                       const HistogramOptions& options);

  /// \brief Number of occupied bins.
  std::size_t size() const { return bins_.size(); }

  /// \brief Adds one (center, count) pair per occupied bin, in grid order.
  /// `sink` has room for at least size() centers of the bag's dimension.
  void EmitInto(SignatureAssembler* sink) const;

 private:
  struct Stats {
    double count = 0.0;
    Point sum;
  };

  HistogramOptions options_;
  std::size_t dim_ = 0;
  // Multi-index of the bin -> stats. std::map keeps deterministic ordering.
  std::map<std::vector<std::int64_t>, Stats> bins_;
};

/// \brief Histogram-quantizes `bag`; weights are per-bin counts.
Result<Signature> HistogramQuantize(BagView bag,
                                    const HistogramOptions& options,
                                    BufferArena* arena = nullptr);

}  // namespace bagcpd

#endif  // BAGCPD_SIGNATURE_HISTOGRAM_H_

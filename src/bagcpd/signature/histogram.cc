#include "bagcpd/signature/histogram.h"

#include <cmath>
#include <cstdio>

namespace bagcpd {
namespace {

// -2^63, the smallest int64 and exactly a double; the valid bin indices are
// [kMinBinIndex, -kMinBinIndex).
constexpr double kMinBinIndex = -9223372036854775808.0;

}  // namespace

Result<HistogramBins> HistogramBins::Compute(BagView bag,
                                             const HistogramOptions& options) {
  BAGCPD_RETURN_NOT_OK(ValidateBagView(bag));
  if (!(options.bin_width > 0.0)) {
    return Status::Invalid("bin_width must be > 0");
  }

  const std::size_t d = bag.dim();
  HistogramBins out;
  out.options_ = options;
  out.dim_ = d;
  std::vector<std::int64_t> key(d);
  for (const PointView x : bag) {
    for (std::size_t j = 0; j < d; ++j) {
      const double index =
          std::floor((x[j] - options.origin) / options.bin_width);
      // Casting a double outside [-2^63, 2^63) to int64 is undefined; a
      // finite value far from the origin at a small width gets there.
      if (!(index >= kMinBinIndex && index < -kMinBinIndex)) {
        char message[256];
        std::snprintf(message, sizeof(message),
                      "histogram bin index of value %.17g on axis %zu is "
                      "outside the int64 range (bin_width %.17g, origin "
                      "%.17g)",
                      x[j], j, options.bin_width, options.origin);
        return Status::Invalid(message);
      }
      key[j] = static_cast<std::int64_t>(index);
    }
    Stats& stats = out.bins_[key];
    if (stats.sum.empty()) stats.sum.assign(d, 0.0);
    stats.count += 1.0;
    for (std::size_t j = 0; j < d; ++j) stats.sum[j] += x[j];
  }
  return out;
}

void HistogramBins::EmitInto(SignatureAssembler* sink) const {
  Point center(dim_);
  for (const auto& [index, stats] : bins_) {
    if (options_.use_bin_centers) {
      for (std::size_t j = 0; j < dim_; ++j) {
        center[j] = options_.origin +
                    (static_cast<double>(index[j]) + 0.5) * options_.bin_width;
      }
    } else {
      for (std::size_t j = 0; j < dim_; ++j) {
        center[j] = stats.sum[j] / stats.count;
      }
    }
    sink->Add(center, stats.count);
  }
}

Result<Signature> HistogramQuantize(BagView bag,
                                    const HistogramOptions& options,
                                    BufferArena* arena) {
  BAGCPD_ASSIGN_OR_RETURN(HistogramBins bins,
                          HistogramBins::Compute(bag, options));
  SignatureAssembler assembler(bins.size(), bag.dim(), arena);
  bins.EmitInto(&assembler);
  return assembler.Finish();
}

}  // namespace bagcpd

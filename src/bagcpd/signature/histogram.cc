#include "bagcpd/signature/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace bagcpd {
namespace {

// -2^63, the smallest int64 and exactly a double; the valid bin indices are
// [kMinBinIndex, -kMinBinIndex).
constexpr double kMinBinIndex = -9223372036854775808.0;

}  // namespace

Status HistogramBins::Compute(BagView bag, const HistogramOptions& options) {
  centers_.clear();
  counts_.clear();
  BAGCPD_RETURN_NOT_OK(ValidateBagView(bag));
  if (!(options.bin_width > 0.0)) {
    return Status::Invalid("bin_width must be > 0");
  }

  const std::size_t n = bag.size();
  const std::size_t d = bag.dim();
  dim_ = d;
  keys_.resize(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    const PointView x = bag[i];
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
      keys_[i * d + j] = static_cast<std::int64_t>(index);
    }
  }

  // Grid order is the lexicographic order of the multi-indices; the row
  // breaks ties, so the order is total and each bin's run keeps bag order.
  const std::int64_t* keys = keys_.data();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [keys, d](std::size_t a,
                                                    std::size_t b) {
    const std::int64_t* ka = keys + a * d;
    const std::int64_t* kb = keys + b * d;
    for (std::size_t j = 0; j < d; ++j) {
      if (ka[j] != kb[j]) return ka[j] < kb[j];
    }
    return a < b;
  });

  // Each bin is one run of equal keys; its mean sums its points in bag order.
  for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
    const std::int64_t* key = keys + order_[begin] * d;
    while (end < n && std::equal(key, key + d, keys + order_[end] * d)) ++end;
    const double count = static_cast<double>(end - begin);
    for (std::size_t j = 0; j < d; ++j) {
      double sum = 0.0;
      for (std::size_t r = begin; r < end; ++r) sum += bag[order_[r]][j];
      centers_.push_back(
          options.use_bin_centers
              ? options.origin +
                    (static_cast<double>(key[j]) + 0.5) * options.bin_width
              : sum / count);
    }
    counts_.push_back(count);
  }
  return Status::OK();
}

void HistogramBins::EmitInto(SignatureAssembler* sink) const {
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    sink->Add(PointView(centers_.data() + b * dim_, dim_), counts_[b]);
  }
}

Result<Signature> HistogramQuantize(BagView bag,
                                    const HistogramOptions& options) {
  HistogramBins bins;
  BAGCPD_RETURN_NOT_OK(bins.Compute(bag, options));
  SignatureAssembler assembler(bins.size(), bag.dim());
  bins.EmitInto(&assembler);
  return assembler.Finish();
}

}  // namespace bagcpd

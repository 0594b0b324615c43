#include "bagcpd/signature/builder.h"

#include <algorithm>

#include "bagcpd/common/enum_names.h"

namespace bagcpd {

namespace {

// SplitMix64-style mix for per-bag seeds.
std::uint64_t MixSeed(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* SignatureMethodName(SignatureMethod method) {
  switch (method) {
    case SignatureMethod::kKMeans:
      return "kmeans";
    case SignatureMethod::kKMedoids:
      return "kmedoids";
    case SignatureMethod::kLvq:
      return "lvq";
    case SignatureMethod::kHistogram:
      return "histogram";
    case SignatureMethod::kCentroid:
      return "centroid";
  }
  return "unknown";
}

const std::vector<SignatureMethod>& AllSignatureMethods() {
  static const std::vector<SignatureMethod> kAll = {
      SignatureMethod::kKMeans, SignatureMethod::kKMedoids,
      SignatureMethod::kLvq, SignatureMethod::kHistogram,
      SignatureMethod::kCentroid};
  return kAll;
}

Result<SignatureMethod> ParseSignatureMethod(const std::string& name) {
  return ParseNamedEnum(name, AllSignatureMethods(), SignatureMethodName,
                        "quantizer");
}

Result<Signature> SignatureBuilder::Build(BagView bag,
                                          std::uint64_t bag_index) const {
  std::optional<SignatureAssembler> sink;
  BAGCPD_RETURN_NOT_OK(Emit(bag, bag_index, nullptr, &sink));
  return sink->Finish();
}

Status SignatureBuilder::BuildInto(BagView bag, std::uint64_t bag_index,
                                   SignatureRing* ring) const {
  std::optional<SignatureAssembler> sink;
  const Status emitted = Emit(bag, bag_index, ring, &sink);
  if (!emitted.ok()) {
    if (sink.has_value()) ring->CancelBorrow();
    return emitted;
  }
  ring->CommitBorrowed(sink->FinishInPlace());
  return Status::OK();
}

Status SignatureBuilder::Emit(BagView bag, std::uint64_t bag_index,
                              SignatureRing* ring,
                              std::optional<SignatureAssembler>* sink) const {
  // Validate before opening the sink: its dimension comes from the bag.
  BAGCPD_RETURN_NOT_OK(ValidateBagView(bag));
  const std::size_t d = bag.dim();
  const auto open = [&](std::size_t max_k) {
    if (ring != nullptr) {
      sink->emplace(ring->BorrowSlot(max_k, d), max_k, d);
    } else {
      sink->emplace(max_k, d);
    }
    return &**sink;
  };
  // The clustering quantizers emit at most min(k, n) centers.
  const auto open_clusters = [&]() -> Result<SignatureAssembler*> {
    if (options_.k == 0) return Status::Invalid("k must be >= 1");
    return open(std::min(options_.k, bag.size()));
  };

  const std::uint64_t seed = MixSeed(options_.seed ^ MixSeed(bag_index));
  Status emitted = Status::OK();
  switch (options_.method) {
    case SignatureMethod::kKMeans: {
      KMeansOptions opts;
      opts.k = options_.k;
      opts.seed = seed;
      BAGCPD_ASSIGN_OR_RETURN(SignatureAssembler* out, open_clusters());
      emitted = KMeansQuantizeInto(bag, opts, out);
      break;
    }
    case SignatureMethod::kKMedoids: {
      KMedoidsOptions opts;
      opts.k = options_.k;
      opts.seed = seed;
      BAGCPD_ASSIGN_OR_RETURN(SignatureAssembler* out, open_clusters());
      emitted = KMedoidsQuantizeInto(bag, opts, out);
      break;
    }
    case SignatureMethod::kLvq: {
      LvqOptions opts;
      opts.k = options_.k;
      opts.seed = seed;
      BAGCPD_ASSIGN_OR_RETURN(SignatureAssembler* out, open_clusters());
      emitted = LvqQuantizeInto(bag, opts, out);
      break;
    }
    case SignatureMethod::kHistogram: {
      HistogramOptions opts;
      opts.bin_width = options_.bin_width;
      opts.origin = options_.histogram_origin;
      // The bin count is data-dependent: bin first, then open a sink of
      // exactly that many centers. The thread's bins keep their buffers
      // from build to build; Emit never re-enters itself.
      static thread_local HistogramBins bins;
      BAGCPD_RETURN_NOT_OK(bins.Compute(bag, opts));
      bins.EmitInto(open(bins.size()));
      break;
    }
    case SignatureMethod::kCentroid: {
      // The mean is summed straight into the sink's one center.
      SignatureAssembler* out = open(1);
      BagMeanInto(bag, out->Append(static_cast<double>(bag.size())));
      break;
    }
  }
  BAGCPD_RETURN_NOT_OK(emitted);
  if (!sink->has_value()) return Status::Invalid("unknown signature method");
  if ((*sink)->count() == 0) {
    return Status::Invalid("signature has no centers");
  }
  if (options_.normalize) (*sink)->NormalizeWeights();
  return Status::OK();
}

}  // namespace bagcpd

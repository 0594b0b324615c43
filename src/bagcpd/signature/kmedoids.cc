#include "bagcpd/signature/kmedoids.h"

#include <algorithm>
#include <limits>

#include "bagcpd/common/rng.h"

namespace bagcpd {

namespace {

double DeviationToNearest(BagView bag,
                          const std::vector<std::size_t>& medoids,
                          std::vector<std::size_t>* assignment) {
  double total = 0.0;
  for (std::size_t i = 0; i < bag.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_m = 0;
    for (std::size_t m = 0; m < medoids.size(); ++m) {
      const double dist = EuclideanDistance(bag[i], bag[medoids[m]]);
      if (dist < best) {
        best = dist;
        best_m = m;
      }
    }
    if (assignment) (*assignment)[i] = best_m;
    total += best;
  }
  return total;
}

Status CheckArgs(BagView bag, const KMedoidsOptions& options) {
  BAGCPD_RETURN_NOT_OK(ValidateBagView(bag));
  if (options.k == 0) return Status::Invalid("k must be >= 1");
  return Status::OK();
}

// Core BUILD/SWAP run behind both entry points (arguments already checked):
// the surviving (medoid, weight) pairs always stream into `sink`, an owning
// assembler for KMedoidsQuantize or a borrowed ring slot for
// KMedoidsQuantizeInto.
KMedoidsResult QuantizeImpl(BagView bag, const KMedoidsOptions& options,
                            BufferArena* arena, SignatureAssembler* sink) {
  const std::size_t n = bag.size();
  const std::size_t k = std::min(options.k, n);
  LazyMt19937_64 urbg(options.seed);  // The std::mt19937_64 stream, lazily.

  // BUILD: greedy distance-weighted seeding (k-means++-style on distances).
  std::vector<std::size_t> medoids;
  medoids.reserve(k);
  medoids.push_back(static_cast<std::size_t>(
      UniformIntDraw(urbg, 0, static_cast<int>(n) - 1)));
  PooledBuffer closest_buf = PooledBuffer::AcquireFrom(arena, n);
  std::vector<double>& closest = closest_buf.vec();
  closest.assign(n, std::numeric_limits<double>::infinity());
  while (medoids.size() < k) {
    for (std::size_t i = 0; i < n; ++i) {
      closest[i] =
          std::min(closest[i], EuclideanDistance(bag[i], bag[medoids.back()]));
    }
    double total = 0.0;
    for (double c : closest) total += c;
    if (total <= 0.0) {
      medoids.push_back(static_cast<std::size_t>(
          UniformIntDraw(urbg, 0, static_cast<int>(n) - 1)));
      continue;
    }
    double u = Canonical64(urbg) * total;
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      u -= closest[i];
      if (u <= 0.0) {
        chosen = i;
        break;
      }
    }
    medoids.push_back(chosen);
  }

  std::vector<std::size_t> assignment(n, 0);
  double best_total = DeviationToNearest(bag, medoids, &assignment);

  // SWAP passes over sampled candidates.
  for (int pass = 0; pass < options.max_iterations; ++pass) {
    bool improved = false;
    const std::size_t sample =
        std::min(options.swap_candidate_sample, n);
    std::vector<std::size_t> perm = PermutationDraw(urbg, n);
    for (std::size_t m = 0; m < medoids.size(); ++m) {
      for (std::size_t s = 0; s < sample; ++s) {
        const std::size_t candidate = perm[s];
        if (std::find(medoids.begin(), medoids.end(), candidate) !=
            medoids.end()) {
          continue;
        }
        const std::size_t saved = medoids[m];
        medoids[m] = candidate;
        const double total = DeviationToNearest(bag, medoids, nullptr);
        if (total + 1e-12 < best_total) {
          best_total = total;
          improved = true;
        } else {
          medoids[m] = saved;
        }
      }
    }
    if (!improved) break;
  }

  best_total = DeviationToNearest(bag, medoids, &assignment);

  KMedoidsResult out;
  out.total_deviation = best_total;
  std::vector<double> weights(medoids.size(), 0.0);
  for (std::size_t i = 0; i < n; ++i) weights[assignment[i]] += 1.0;
  for (std::size_t m = 0; m < medoids.size(); ++m) {
    if (weights[m] > 0.0) {
      sink->Add(bag[medoids[m]], weights[m]);
      out.medoid_indices.push_back(medoids[m]);
    }
  }
  return out;
}

}  // namespace

Result<KMedoidsResult> KMedoidsQuantize(BagView bag,
                                        const KMedoidsOptions& options,
                                        BufferArena* arena) {
  BAGCPD_RETURN_NOT_OK(CheckArgs(bag, options));
  SignatureAssembler sink(std::min(options.k, bag.size()), bag.dim(), arena);
  KMedoidsResult out = QuantizeImpl(bag, options, arena, &sink);
  out.signature = sink.Finish();
  return out;
}

Status KMedoidsQuantizeInto(BagView bag, const KMedoidsOptions& options,
                            BufferArena* arena, SignatureAssembler* sink) {
  BAGCPD_RETURN_NOT_OK(CheckArgs(bag, options));
  QuantizeImpl(bag, options, arena, sink);
  return Status::OK();
}

}  // namespace bagcpd

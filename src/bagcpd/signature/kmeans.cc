#include "bagcpd/signature/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bagcpd/common/rng.h"

namespace bagcpd {

namespace {

// k-means++ seeding (Arthur & Vassilvitskii 2007): iteratively picks centers
// with probability proportional to the squared distance to the closest
// already-chosen center. Writes the k centers, row-major, to `*centers`.
void SeedPlusPlus(BagView bag, std::size_t k, LazyMt19937_64& urbg,
                  std::vector<double>* centers) {
  const std::size_t d = bag.dim();
  const auto append = [&](std::size_t i) {
    centers->insert(centers->end(), bag[i].begin(), bag[i].end());
  };
  centers->clear();
  append(static_cast<std::size_t>(
      UniformIntDraw(urbg, 0, static_cast<int>(bag.size()) - 1)));

  thread_local std::vector<double> closest_sq;  // Reused from run to run.
  closest_sq.assign(bag.size(), std::numeric_limits<double>::infinity());
  while (centers->size() < k * d) {
    const PointView newest(centers->data() + centers->size() - d, d);
    double total = 0.0;
    for (std::size_t i = 0; i < bag.size(); ++i) {
      const double d2 = SquaredDistance(bag[i], newest);
      closest_sq[i] = std::min(closest_sq[i], d2);
      total += closest_sq[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with chosen centers; duplicate one.
      append(static_cast<std::size_t>(
          UniformIntDraw(urbg, 0, static_cast<int>(bag.size()) - 1)));
      continue;
    }
    double u = Canonical64(urbg) * total;
    std::size_t chosen = bag.size() - 1;
    for (std::size_t i = 0; i < bag.size(); ++i) {
      u -= closest_sq[i];
      if (u <= 0.0) {
        chosen = i;
        break;
      }
    }
    append(chosen);
  }
}

std::size_t NearestCenter(PointView x, const std::vector<double>& centers,
                          std::size_t k, std::size_t d) {
  std::size_t best = 0;
  double best_d2 = SquaredDistance(x, PointView(centers.data(), d));
  for (std::size_t c = 1; c < k; ++c) {
    const double d2 = SquaredDistance(x, PointView(centers.data() + c * d, d));
    if (d2 < best_d2) {
      best_d2 = d2;
      best = c;
    }
  }
  return best;
}

Status CheckArgs(BagView bag, const KMeansOptions& options) {
  BAGCPD_RETURN_NOT_OK(ValidateBagView(bag));
  if (options.k == 0) return Status::Invalid("k must be >= 1");
  return Status::OK();
}

// Core Lloyd run behind both entry points (arguments already checked): the
// surviving clusters always stream into `sink`, an owning assembler for
// KMeansQuantize or a borrowed ring slot for KMeansQuantizeInto. The result
// carries the assignment only `with_assignment`.
KMeansResult QuantizeImpl(BagView bag, const KMeansOptions& options,
                          SignatureAssembler* sink, bool with_assignment) {
  const std::size_t n = bag.size();
  const std::size_t d = bag.dim();
  const std::size_t k = std::min(options.k, n);
  // The seeding reads one word per center, so a lazily twisted engine skips
  // most of a std::mt19937_64 set-up; the stream is the same.
  LazyMt19937_64 urbg(options.seed);

  // The working buffers, one set per thread and reused from run to run, so
  // a run allocates nothing once its thread has seen the bag's shape. The
  // Lloyd loop double-buffers between `centers` and `update`.
  thread_local std::vector<double> centers, update, weights;
  thread_local std::vector<std::size_t> assignment, counts;
  SeedPlusPlus(bag, k, urbg, &centers);
  assignment.assign(n, 0);

  KMeansResult out;
  for (out.iterations = 0; out.iterations < options.max_iterations;
       ++out.iterations) {
    // Assignment step.
    for (std::size_t i = 0; i < n; ++i) {
      assignment[i] = NearestCenter(bag[i], centers, k, d);
    }
    // Update step.
    std::vector<double>& new_centers = update;
    new_centers.assign(k * d, 0.0);
    counts.assign(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      counts[assignment[i]]++;
      const double* x = bag[i].data();
      double* acc = new_centers.data() + assignment[i] * d;
      for (std::size_t j = 0; j < d; ++j) acc[j] += x[j];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Reseed an empty cluster at the point farthest from its own center.
        std::size_t farthest = 0;
        double far_d2 = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d2 = SquaredDistance(
              bag[i], PointView(centers.data() + assignment[i] * d, d));
          if (d2 > far_d2) {
            far_d2 = d2;
            farthest = i;
          }
        }
        std::copy(bag[farthest].begin(), bag[farthest].end(),
                  new_centers.begin() + c * d);
        counts[c] = 1;  // Will be fixed by the next assignment pass.
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[c]);
      double* row = new_centers.data() + c * d;
      for (std::size_t j = 0; j < d; ++j) row[j] *= inv;
    }
    // Convergence check.
    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      movement += SquaredDistance(PointView(centers.data() + c * d, d),
                                  PointView(new_centers.data() + c * d, d));
    }
    std::swap(centers, new_centers);
    if (movement <= options.tolerance) {
      ++out.iterations;
      break;
    }
  }

  // Final assignment + signature.
  weights.assign(k, 0.0);
  out.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    assignment[i] = NearestCenter(bag[i], centers, k, d);
    weights[assignment[i]] += 1.0;
    out.inertia += SquaredDistance(
        bag[i], PointView(centers.data() + assignment[i] * d, d));
  }

  // Drop empty clusters (can remain after the final assignment), compacting
  // the surviving rows into the sink (no per-add weight shifting).
  for (std::size_t c = 0; c < k; ++c) {
    if (weights[c] > 0.0) {
      sink->Add(PointView(centers.data() + c * d, d), weights[c]);
    }
  }
  if (!with_assignment) return out;
  // Remap assignments to the compacted cluster indices.
  std::vector<std::size_t> remap(k, 0);
  for (std::size_t c = 0, next = 0; c < k; ++c) {
    if (weights[c] > 0.0) remap[c] = next++;
  }
  out.assignment.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.assignment[i] = remap[assignment[i]];
  return out;
}

}  // namespace

Result<KMeansResult> KMeansQuantize(BagView bag, const KMeansOptions& options) {
  BAGCPD_RETURN_NOT_OK(CheckArgs(bag, options));
  SignatureAssembler sink(std::min(options.k, bag.size()), bag.dim());
  KMeansResult out = QuantizeImpl(bag, options, &sink, true);
  out.signature = sink.Finish();
  return out;
}

Status KMeansQuantizeInto(BagView bag, const KMeansOptions& options,
                          SignatureAssembler* sink) {
  BAGCPD_RETURN_NOT_OK(CheckArgs(bag, options));
  QuantizeImpl(bag, options, sink, false);
  return Status::OK();
}

}  // namespace bagcpd

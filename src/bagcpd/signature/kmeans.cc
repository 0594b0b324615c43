#include "bagcpd/signature/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bagcpd/common/rng.h"

namespace bagcpd {

namespace {

// Flat row-major (k x d) center buffer used by all internal stages; rows are
// appended during seeding and rewritten in place during Lloyd updates.
class FlatCenters {
 public:
  FlatCenters(std::size_t k, std::size_t d, BufferArena* arena) : dim_(d) {
    if (arena != nullptr) data_ = arena->Acquire(k * d);
    data_.reserve(k * d);
  }

  std::size_t count() const { return data_.size() / dim_; }
  PointView row(std::size_t c) const {
    return PointView(data_.data() + c * dim_, dim_);
  }
  PointView back() const { return row(count() - 1); }
  void Append(PointView x) {
    data_.insert(data_.end(), x.begin(), x.end());
  }
  std::vector<double>&& TakeFlat() { return std::move(data_); }

 private:
  std::vector<double> data_;
  std::size_t dim_;
};

// k-means++ seeding (Arthur & Vassilvitskii 2007): iteratively picks centers
// with probability proportional to the squared distance to the closest
// already-chosen center.
FlatCenters SeedPlusPlus(BagView bag, std::size_t k, LazyMt19937_64& urbg,
                         BufferArena* arena) {
  FlatCenters centers(k, bag.dim(), arena);
  centers.Append(bag[static_cast<std::size_t>(
      UniformIntDraw(urbg, 0, static_cast<int>(bag.size()) - 1))]);

  PooledBuffer closest_buf = PooledBuffer::AcquireFrom(arena, bag.size());
  std::vector<double>& closest_sq = closest_buf.vec();
  closest_sq.assign(bag.size(), std::numeric_limits<double>::infinity());
  while (centers.count() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < bag.size(); ++i) {
      const double d2 = SquaredDistance(bag[i], centers.back());
      closest_sq[i] = std::min(closest_sq[i], d2);
      total += closest_sq[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with chosen centers; duplicate one.
      centers.Append(bag[static_cast<std::size_t>(
          UniformIntDraw(urbg, 0, static_cast<int>(bag.size()) - 1))]);
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
    centers.Append(bag[chosen]);
  }
  return centers;
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
// KMeansQuantize or a borrowed ring slot for KMeansQuantizeInto.
KMeansResult QuantizeImpl(BagView bag, const KMeansOptions& options,
                          BufferArena* arena, SignatureAssembler* sink) {
  const std::size_t n = bag.size();
  const std::size_t d = bag.dim();
  const std::size_t k = std::min(options.k, n);
  // The seeding reads one word per center, so a lazily twisted engine skips
  // most of a std::mt19937_64 set-up; the stream is the same.
  LazyMt19937_64 urbg(options.seed);

  // The Lloyd loop double-buffers between `centers` and `update_buf`, so the
  // iterations allocate nothing; both scratch buffers recycle through the
  // arena when one is attached.
  PooledBuffer centers_buf(SeedPlusPlus(bag, k, urbg, arena).TakeFlat(),
                           arena);
  std::vector<double>& centers = centers_buf.vec();
  PooledBuffer update_buf = PooledBuffer::AcquireFrom(arena, k * d);
  std::vector<std::size_t> assignment(n, 0);
  std::vector<std::size_t> counts(k, 0);

  KMeansResult out;
  for (out.iterations = 0; out.iterations < options.max_iterations;
       ++out.iterations) {
    // Assignment step.
    for (std::size_t i = 0; i < n; ++i) {
      assignment[i] = NearestCenter(bag[i], centers, k, d);
    }
    // Update step.
    std::vector<double>& new_centers = update_buf.vec();
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
  std::vector<double> weights(k, 0.0);
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
  // Remap assignments to the compacted cluster indices.
  std::vector<std::size_t> remap(k, 0);
  for (std::size_t c = 0, next = 0; c < k; ++c) {
    if (weights[c] > 0.0) remap[c] = next++;
  }
  for (std::size_t i = 0; i < n; ++i) assignment[i] = remap[assignment[i]];

  out.assignment = std::move(assignment);
  return out;
}

}  // namespace

Result<KMeansResult> KMeansQuantize(BagView bag, const KMeansOptions& options,
                                    BufferArena* arena) {
  BAGCPD_RETURN_NOT_OK(CheckArgs(bag, options));
  SignatureAssembler sink(std::min(options.k, bag.size()), bag.dim(), arena);
  KMeansResult out = QuantizeImpl(bag, options, arena, &sink);
  out.signature = sink.Finish();
  return out;
}

Status KMeansQuantizeInto(BagView bag, const KMeansOptions& options,
                          BufferArena* arena, SignatureAssembler* sink) {
  BAGCPD_RETURN_NOT_OK(CheckArgs(bag, options));
  QuantizeImpl(bag, options, arena, sink);
  return Status::OK();
}

}  // namespace bagcpd

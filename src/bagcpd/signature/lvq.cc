#include "bagcpd/signature/lvq.h"

#include <algorithm>
#include <limits>

#include "bagcpd/common/rng.h"

namespace bagcpd {

namespace {

Status CheckArgs(BagView bag, const LvqOptions& options) {
  BAGCPD_RETURN_NOT_OK(ValidateBagView(bag));
  if (options.k == 0) return Status::Invalid("k must be >= 1");
  if (options.epochs <= 0) return Status::Invalid("epochs must be >= 1");
  return Status::OK();
}

// Core competitive-learning run behind both entry points (arguments already
// checked): the surviving (prototype, weight) pairs always stream into
// `sink`, an owning assembler for LvqQuantize or a borrowed ring slot for
// LvqQuantizeInto.
void QuantizeImpl(BagView bag, const LvqOptions& options, BufferArena* arena,
                  SignatureAssembler* sink) {
  const std::size_t n = bag.size();
  const std::size_t d = bag.dim();
  const std::size_t k = std::min(options.k, n);
  LazyMt19937_64 urbg(options.seed);  // The std::mt19937_64 stream, lazily.

  // Initialize prototypes at k distinct random bag points (flat k x d buffer).
  std::vector<std::size_t> perm = PermutationDraw(urbg, n);
  PooledBuffer prototype_buf = PooledBuffer::AcquireFrom(arena, k * d);
  std::vector<double>& prototypes = prototype_buf.vec();
  prototypes.assign(k * d, 0.0);
  for (std::size_t m = 0; m < k; ++m) {
    const PointView x = bag[perm[m]];
    std::copy(x.begin(), x.end(), prototypes.begin() + m * d);
  }

  const long total_updates = static_cast<long>(options.epochs) * n;
  long update = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    std::vector<std::size_t> order = PermutationDraw(urbg, n);
    for (std::size_t idx : order) {
      // Find the winner.
      std::size_t winner = 0;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t m = 0; m < k; ++m) {
        const double d2 =
            SquaredDistance(bag[idx], PointView(prototypes.data() + m * d, d));
        if (d2 < best) {
          best = d2;
          winner = m;
        }
      }
      // Move the winner toward the sample.
      const double rate =
          options.initial_learning_rate *
          (1.0 - static_cast<double>(update) / static_cast<double>(total_updates));
      const double* x = bag[idx].data();
      double* proto = prototypes.data() + winner * d;
      for (std::size_t j = 0; j < d; ++j) {
        proto[j] += rate * (x[j] - proto[j]);
      }
      ++update;
    }
  }

  // Final hard assignment defines the weights.
  std::vector<double> weights(k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t winner = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t m = 0; m < k; ++m) {
      const double d2 =
          SquaredDistance(bag[i], PointView(prototypes.data() + m * d, d));
      if (d2 < best) {
        best = d2;
        winner = m;
      }
    }
    weights[winner] += 1.0;
  }

  for (std::size_t m = 0; m < k; ++m) {
    if (weights[m] > 0.0) {
      sink->Add(PointView(prototypes.data() + m * d, d), weights[m]);
    }
  }
}

}  // namespace

Result<Signature> LvqQuantize(BagView bag, const LvqOptions& options,
                              BufferArena* arena) {
  BAGCPD_RETURN_NOT_OK(CheckArgs(bag, options));
  SignatureAssembler sink(std::min(options.k, bag.size()), bag.dim(), arena);
  QuantizeImpl(bag, options, arena, &sink);
  return sink.Finish();
}

Status LvqQuantizeInto(BagView bag, const LvqOptions& options,
                       BufferArena* arena, SignatureAssembler* sink) {
  BAGCPD_RETURN_NOT_OK(CheckArgs(bag, options));
  QuantizeImpl(bag, options, arena, sink);
  return Status::OK();
}

}  // namespace bagcpd

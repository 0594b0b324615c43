#include "bagcpd/core/bootstrap.h"

#include <algorithm>
#include <cmath>

#include "bagcpd/common/check.h"
#include "bagcpd/common/enum_names.h"
#include "bagcpd/common/stats.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {

const char* BootstrapMethodName(BootstrapMethod method) {
  switch (method) {
    case BootstrapMethod::kBayesian:
      return "bayesian";
    case BootstrapMethod::kStandard:
      return "standard";
  }
  return "unknown";
}

const std::vector<BootstrapMethod>& AllBootstrapMethods() {
  static const std::vector<BootstrapMethod> kAll = {BootstrapMethod::kBayesian,
                                                    BootstrapMethod::kStandard};
  return kAll;
}

Result<BootstrapMethod> ParseBootstrapMethod(const std::string& name) {
  return ParseNamedEnum(name, AllBootstrapMethods(), BootstrapMethodName,
                        "bootstrap method");
}

namespace {

// Appendix B: alpha_i = n * pi_i, which reduces to Dir(1,...,1) for the
// uniform prior of Appendix A. Written into `*alpha`, resized to pi.size().
void BayesianAlphaInto(const std::vector<double>& pi,
                       std::vector<double>* alpha) {
  const double n = static_cast<double>(pi.size());
  alpha->resize(pi.size());
  for (std::size_t i = 0; i < pi.size(); ++i) {
    (*alpha)[i] = std::max(n * pi[i], 1e-9);
  }
}

// A thread's bootstrap buffers, reused from call to call so that a
// steady-state interval allocates nothing. A call uses the calling thread's
// concentrations and scores and, in each chunk of replicates, the weights
// and engines of the thread running the chunk. A thread runs one chunk at a
// time and no chunk runs user code, so no buffer is in use twice at once.
struct BootstrapScratch {
  std::vector<double> alpha_ref, alpha_test, scores;
  std::vector<double> gamma_ref, gamma_test;
  std::vector<int> counts;
  LazyMt19937_64 engines[LazyMt19937_64::kMaxBlock];
};

BootstrapScratch& ThreadScratch() {
  static thread_local BootstrapScratch scratch;
  return scratch;
}

// Draws one weight replicate of a window into `gamma` (pi.size() entries).
// `alpha` is BayesianAlphaInto's for the Bayesian bootstrap; `counts` is
// pi.size() ints of scratch for the standard one.
template <typename Urbg>
void DrawWeights(BootstrapMethod method, const std::vector<double>& pi,
                 const std::vector<double>& alpha, Urbg& urbg, int* counts,
                 double* gamma) {
  const std::size_t n = pi.size();
  switch (method) {
    case BootstrapMethod::kBayesian:
      DirichletInto(urbg, alpha.data(), n, gamma);
      return;
    case BootstrapMethod::kStandard:
      MultinomialInto(urbg, static_cast<int>(n), pi.data(), n, counts);
      for (std::size_t i = 0; i < n; ++i) {
        gamma[i] = static_cast<double>(counts[i]) / static_cast<double>(n);
      }
      return;
  }
  std::fill(gamma, gamma + n, 1.0 / static_cast<double>(n));
}

}  // namespace

std::vector<double> ResampleWeights(BootstrapMethod method,
                                    const std::vector<double>& pi, Rng* rng) {
  BAGCPD_CHECK(!pi.empty());
  std::vector<double> alpha;
  if (method == BootstrapMethod::kBayesian) BayesianAlphaInto(pi, &alpha);
  std::vector<int> counts(pi.size());
  std::vector<double> gamma(pi.size());
  DrawWeights(method, pi, alpha, rng->engine(), counts.data(), gamma.data());
  return gamma;
}

Result<BootstrapInterval> BootstrapScoreInterval(
    ScoreType score_type, const ScoreContext& ctx,
    const std::vector<double>& pi_ref, const std::vector<double>& pi_test,
    const BootstrapOptions& options, Rng* rng, ThreadPool* pool) {
  BAGCPD_RETURN_NOT_OK(ctx.Validate());
  if (options.replicates < 2) {
    return Status::Invalid("need at least 2 bootstrap replicates");
  }
  if (options.alpha <= 0.0 || options.alpha >= 1.0) {
    return Status::Invalid("alpha must be in (0, 1)");
  }
  if (pi_ref.size() != ctx.tau() || pi_test.size() != ctx.tau_prime()) {
    return Status::Invalid("base weight size mismatch");
  }

  // One engine word seeds the whole replicate set; replicate r then draws
  // from the stream of Rng(base_seed).Fork(r), run on a lazily twisted
  // engine since a replicate reads only a few dozen words. The caller's rng
  // advances identically whether or not a pool is attached, and replicate
  // r's draws never depend on which thread (or chunk) ran it: fixed seed =>
  // bitwise-identical intervals for any thread count.
  const std::uint64_t base_seed = rng->NextUInt64();
  BootstrapScratch& call = ThreadScratch();
  if (options.method == BootstrapMethod::kBayesian) {
    BayesianAlphaInto(pi_ref, &call.alpha_ref);
    BayesianAlphaInto(pi_test, &call.alpha_test);
  }
  const std::size_t replicates = static_cast<std::size_t>(options.replicates);
  std::vector<double>& replicate_scores = call.scores;
  replicate_scores.assign(replicates, 0.0);
  constexpr std::size_t kBlock = LazyMt19937_64::kMaxBlock;
  // A chunk stops at its first replicate whose retries all fail, so the
  // error returned is the lowest such replicate's, for any chunking.
  auto run_replicates = [&](std::size_t begin, std::size_t end) -> Status {
    BootstrapScratch& chunk = ThreadScratch();
    chunk.gamma_ref.resize(pi_ref.size());
    chunk.gamma_test.resize(pi_test.size());
    chunk.counts.resize(std::max(pi_ref.size(), pi_test.size()));
    // Replicates run in blocks whose engines are reseeded in place and
    // seeded in lockstep; replicate r's stream does not depend on its block.
    std::uint64_t seeds[kBlock] = {};
    for (std::size_t r = begin; r < end; ++r) {
      const std::size_t e = (r - begin) % kBlock;
      if (e == 0) {
        const std::size_t count = std::min(kBlock, end - r);
        for (std::size_t i = 0; i < count; ++i) {
          seeds[i] = Rng::ForkSeed(base_seed, r + i);
        }
        LazyMt19937_64::SeedBlock(chunk.engines, seeds, count);
      }
      LazyMt19937_64& urbg = chunk.engines[e];
      // The standard bootstrap can draw gamma_test[0] == 1 (every resample
      // hit element 0), which makes scoreLR undefined; redraw in that case.
      for (int attempt = 0;; ++attempt) {
        DrawWeights(options.method, pi_ref, call.alpha_ref, urbg,
                    chunk.counts.data(), chunk.gamma_ref.data());
        DrawWeights(options.method, pi_test, call.alpha_test, urbg,
                    chunk.counts.data(), chunk.gamma_test.data());
        Result<double> score =
            ComputeScore(score_type, ctx, chunk.gamma_ref, chunk.gamma_test);
        if (score.ok()) {
          replicate_scores[r] = score.ValueOrDie();
          break;
        }
        if (attempt == 63) return score.status();
      }
    }
    return Status::OK();
  };
  BAGCPD_RETURN_NOT_OK(ForEachChunk(pool, 0, replicates, run_replicates));

  BootstrapInterval out;
  out.replicate_mean = Mean(replicate_scores);
  out.replicate_stddev = StdDev(replicate_scores);
  BAGCPD_ASSIGN_OR_RETURN(Interval interval,
                          CentralInterval(&replicate_scores, options.alpha));
  out.lo = interval.lo;
  out.up = interval.up;
  return out;
}

}  // namespace bagcpd

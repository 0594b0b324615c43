#include "bagcpd/core/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <utility>

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
// uniform prior of Appendix A.
std::vector<double> BayesianAlpha(const std::vector<double>& pi) {
  const double n = static_cast<double>(pi.size());
  std::vector<double> alpha(pi.size());
  for (std::size_t i = 0; i < pi.size(); ++i) {
    alpha[i] = std::max(n * pi[i], 1e-9);
  }
  return alpha;
}

// Draws one weight replicate of a window into `gamma` (pi.size() entries).
// `alpha` is BayesianAlpha(pi) for the Bayesian bootstrap; `counts` is
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
  const std::vector<double> alpha =
      method == BootstrapMethod::kBayesian ? BayesianAlpha(pi)
                                           : std::vector<double>();
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
  const bool bayesian = options.method == BootstrapMethod::kBayesian;
  const std::vector<double> alpha_ref =
      bayesian ? BayesianAlpha(pi_ref) : std::vector<double>();
  const std::vector<double> alpha_test =
      bayesian ? BayesianAlpha(pi_test) : std::vector<double>();
  const std::size_t replicates = static_cast<std::size_t>(options.replicates);
  std::vector<double> replicate_scores(replicates, 0.0);
  constexpr std::size_t kBlock = LazyMt19937_64::kMaxBlock;
  // A chunk stops at its first replicate whose retries all fail, so the
  // error returned is the lowest such replicate's, for any chunking.
  auto run_replicates = [&](std::size_t begin, std::size_t end) -> Status {
    std::vector<double> gamma_ref(pi_ref.size());
    std::vector<double> gamma_test(pi_test.size());
    std::vector<int> counts(std::max(pi_ref.size(), pi_test.size()));
    // Replicates run in blocks whose engines are reseeded in place and
    // seeded in lockstep; replicate r's stream does not depend on its block.
    std::vector<LazyMt19937_64> engines(kBlock);
    std::uint64_t seeds[kBlock] = {};
    for (std::size_t r = begin; r < end; ++r) {
      const std::size_t e = (r - begin) % kBlock;
      if (e == 0) {
        const std::size_t count = std::min(kBlock, end - r);
        for (std::size_t i = 0; i < count; ++i) {
          seeds[i] = Rng::ForkSeed(base_seed, r + i);
        }
        LazyMt19937_64::SeedBlock(engines.data(), seeds, count);
      }
      LazyMt19937_64& urbg = engines[e];
      // The standard bootstrap can draw gamma_test[0] == 1 (every resample
      // hit element 0), which makes scoreLR undefined; redraw in that case.
      for (int attempt = 0;; ++attempt) {
        DrawWeights(options.method, pi_ref, alpha_ref, urbg, counts.data(),
                    gamma_ref.data());
        DrawWeights(options.method, pi_test, alpha_test, urbg, counts.data(),
                    gamma_test.data());
        Result<double> score =
            ComputeScore(score_type, ctx, gamma_ref, gamma_test);
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
  BAGCPD_ASSIGN_OR_RETURN(
      Interval interval,
      CentralInterval(std::move(replicate_scores), options.alpha));
  out.lo = interval.lo;
  out.up = interval.up;
  return out;
}

}  // namespace bagcpd

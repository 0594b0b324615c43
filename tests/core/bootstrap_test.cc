#include "bagcpd/core/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "bagcpd/common/stats.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {
namespace {

std::vector<double> UniformPi(std::size_t n) {
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

ScoreContext SimpleContext(std::size_t tau, std::size_t tau_prime) {
  ScoreContext ctx;
  ctx.log_ref_ref = Matrix(tau, tau, 0.3);
  ctx.log_test_test = Matrix(tau_prime, tau_prime, 0.4);
  ctx.log_ref_test = Matrix(tau, tau_prime, 1.0);
  for (std::size_t i = 0; i < tau; ++i) ctx.log_ref_ref(i, i) = 0.0;
  for (std::size_t i = 0; i < tau_prime; ++i) ctx.log_test_test(i, i) = 0.0;
  // Perturb so the score actually varies with the weights.
  ctx.log_ref_test(0, 0) = 2.0;
  ctx.log_ref_ref(0, 1) = 0.9;
  ctx.log_ref_ref(1, 0) = 0.9;
  return ctx;
}

// Appendix A: with uniform priors the Bayesian bootstrap weights are
// Dir(1, ..., 1): E[g_i] = 1/n, var[g_i] = (n - 1) / (n^2 (n + 1)),
// cor[g_i, g_j] = -1 / (n - 1).
TEST(BootstrapTest, BayesianWeightsMatchAppendixMoments) {
  const std::size_t n = 5;
  Rng rng(17);
  const int trials = 20000;
  std::vector<double> g0(trials), g1(trials);
  for (int t = 0; t < trials; ++t) {
    std::vector<double> g =
        ResampleWeights(BootstrapMethod::kBayesian, UniformPi(n), &rng);
    g0[t] = g[0];
    g1[t] = g[1];
  }
  const double nd = static_cast<double>(n);
  EXPECT_NEAR(Mean(g0), 1.0 / nd, 0.003);
  EXPECT_NEAR(Variance(g0), (nd - 1.0) / (nd * nd * (nd + 1.0)), 0.002);
  EXPECT_NEAR(Correlation(g0, g1), -1.0 / (nd - 1.0), 0.03);
}

// Appendix A: the standard bootstrap proportions f_i have E[f_i] = 1/n and
// var[f_i] = (n - 1)/n^3 = var[g_i] * (n + 1)/n.
TEST(BootstrapTest, StandardWeightsMatchAppendixMoments) {
  const std::size_t n = 5;
  Rng rng(18);
  const int trials = 20000;
  std::vector<double> f0(trials);
  for (int t = 0; t < trials; ++t) {
    std::vector<double> f =
        ResampleWeights(BootstrapMethod::kStandard, UniformPi(n), &rng);
    f0[t] = f[0];
  }
  const double nd = static_cast<double>(n);
  EXPECT_NEAR(Mean(f0), 1.0 / nd, 0.003);
  EXPECT_NEAR(Variance(f0), (nd - 1.0) / (nd * nd * nd), 0.002);
}

// Appendix B: with weighted priors pi, E[g_i] = pi_i and
// var[g_i] = pi_i (1 - pi_i) / (n + 1).
TEST(BootstrapTest, WeightedPriorMoments) {
  const std::vector<double> pi = {0.5, 0.3, 0.2};
  Rng rng(19);
  const int trials = 20000;
  std::vector<double> g0(trials);
  for (int t = 0; t < trials; ++t) {
    std::vector<double> g =
        ResampleWeights(BootstrapMethod::kBayesian, pi, &rng);
    g0[t] = g[0];
  }
  EXPECT_NEAR(Mean(g0), 0.5, 0.005);
  EXPECT_NEAR(Variance(g0), 0.5 * 0.5 / 4.0, 0.005);
}

TEST(BootstrapTest, WeightsAlwaysOnSimplex) {
  Rng rng(20);
  for (BootstrapMethod method :
       {BootstrapMethod::kBayesian, BootstrapMethod::kStandard}) {
    for (int t = 0; t < 200; ++t) {
      std::vector<double> g = ResampleWeights(method, UniformPi(7), &rng);
      double total = 0.0;
      for (double v : g) {
        EXPECT_GE(v, 0.0);
        total += v;
      }
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

// The Section 4.2 claim: with a small window the Bayesian bootstrap produces
// a smooth (continuous) replicate distribution while the standard bootstrap
// collapses onto few atoms.
TEST(BootstrapTest, BayesianSmootherThanStandardForSmallWindows) {
  Rng rng(21);
  const std::size_t n = 4;
  std::set<double> bayes_values;
  std::set<double> standard_values;
  for (int t = 0; t < 300; ++t) {
    std::vector<double> gb =
        ResampleWeights(BootstrapMethod::kBayesian, UniformPi(n), &rng);
    std::vector<double> gs =
        ResampleWeights(BootstrapMethod::kStandard, UniformPi(n), &rng);
    bayes_values.insert(std::round(gb[0] * 1e9) / 1e9);
    standard_values.insert(std::round(gs[0] * 1e9) / 1e9);
  }
  // Standard proportions live on {0, 1/4, 2/4, 3/4, 1}: at most 5 atoms.
  EXPECT_LE(standard_values.size(), 5u);
  EXPECT_GT(bayes_values.size(), 250u);
}

TEST(BootstrapTest, IntervalContainsCentralMass) {
  ScoreContext ctx = SimpleContext(5, 5);
  BootstrapOptions options;
  options.replicates = 400;
  options.alpha = 0.05;
  Rng rng(22);
  Result<BootstrapInterval> ci =
      BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx, UniformPi(5),
                             UniformPi(5), options, &rng);
  ASSERT_TRUE(ci.ok());
  EXPECT_LE(ci->lo, ci->up);
  EXPECT_GE(ci->replicate_stddev, 0.0);
  // The point score with uniform base weights should fall inside the CI.
  const double point =
      ComputeScore(ScoreType::kSymmetrizedKl, ctx, UniformPi(5), UniformPi(5))
          .ValueOrDie();
  EXPECT_GE(point, ci->lo - 3.0 * ci->replicate_stddev);
  EXPECT_LE(point, ci->up + 3.0 * ci->replicate_stddev);
}

TEST(BootstrapTest, TighterAlphaWidensInterval) {
  ScoreContext ctx = SimpleContext(5, 5);
  BootstrapOptions wide;
  wide.replicates = 600;
  wide.alpha = 0.01;
  BootstrapOptions narrow;
  narrow.replicates = 600;
  narrow.alpha = 0.5;
  Rng rng1(23), rng2(23);
  const BootstrapInterval ci_wide =
      BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx, UniformPi(5),
                             UniformPi(5), wide, &rng1)
          .ValueOrDie();
  const BootstrapInterval ci_narrow =
      BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx, UniformPi(5),
                             UniformPi(5), narrow, &rng2)
          .ValueOrDie();
  EXPECT_GT(ci_wide.up - ci_wide.lo, ci_narrow.up - ci_narrow.lo);
}

TEST(BootstrapTest, WorksForLrScore) {
  ScoreContext ctx = SimpleContext(5, 5);
  BootstrapOptions options;
  options.replicates = 100;
  Rng rng(24);
  Result<BootstrapInterval> ci = BootstrapScoreInterval(
      ScoreType::kLogLikelihoodRatio, ctx, UniformPi(5), UniformPi(5), options,
      &rng);
  ASSERT_TRUE(ci.ok());
  EXPECT_LE(ci->lo, ci->up);
}

TEST(BootstrapTest, StandardBootstrapHandlesDegenerateTestDraws) {
  // With tau' = 2 the standard bootstrap frequently draws gamma_test = (1, 0)
  // which is invalid for scoreLR; the implementation must retry, not fail.
  ScoreContext ctx = SimpleContext(3, 2);
  BootstrapOptions options;
  options.replicates = 200;
  options.method = BootstrapMethod::kStandard;
  Rng rng(25);
  Result<BootstrapInterval> ci = BootstrapScoreInterval(
      ScoreType::kLogLikelihoodRatio, ctx, UniformPi(3), UniformPi(2), options,
      &rng);
  ASSERT_TRUE(ci.ok());
}

TEST(BootstrapTest, RejectsBadOptions) {
  ScoreContext ctx = SimpleContext(3, 3);
  Rng rng(26);
  BootstrapOptions too_few;
  too_few.replicates = 1;
  EXPECT_FALSE(BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx,
                                      UniformPi(3), UniformPi(3), too_few, &rng)
                   .ok());
  BootstrapOptions bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_FALSE(BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx,
                                      UniformPi(3), UniformPi(3), bad_alpha,
                                      &rng)
                   .ok());
  BootstrapOptions ok_options;
  EXPECT_FALSE(BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx,
                                      UniformPi(2), UniformPi(3), ok_options,
                                      &rng)
                   .ok());
}

// Bit-exact pins of BootstrapScoreInterval, as %a hex literals. They were
// captured before replicate streams moved to LazyMt19937_64 and the loop to
// scratch buffers, and hold for the serial loop and every pool size.
struct GoldenCase {
  BootstrapMethod method;
  ScoreType score;
  BootstrapInterval expected;
};

void ExpectBitwiseEqual(const BootstrapInterval& got,
                        const BootstrapInterval& want) {
  EXPECT_EQ(got.lo, want.lo);
  EXPECT_EQ(got.up, want.up);
  EXPECT_EQ(got.replicate_mean, want.replicate_mean);
  EXPECT_EQ(got.replicate_stddev, want.replicate_stddev);
}

TEST(BootstrapTest, GoldenIntervalsAreBitExactForAnyPool) {
  const GoldenCase cases[] = {
      {BootstrapMethod::kBayesian, ScoreType::kSymmetrizedKl,
       {0x1.295271e455303p-1, 0x1.c8842d4662ab6p-1, 0x1.5e978d36bb965p-1,
        0x1.177c5303ee82bp-4}},
      {BootstrapMethod::kBayesian, ScoreType::kLogLikelihoodRatio,
       {0x1.3917362232509p-1, 0x1.3165dfb1d4cb7p+0, 0x1.9992dd494c56cp-1,
        0x1.42f97a01446bap-3}},
      {BootstrapMethod::kStandard, ScoreType::kSymmetrizedKl,
       {0x1.23a5e353f7cedp-1, 0x1.c7ae147ae147dp-1, 0x1.5de9e1b089a0cp-1,
        0x1.72d2283c40d8ap-4}},
      {BootstrapMethod::kStandard, ScoreType::kLogLikelihoodRatio,
       {0x1.3333333333332p-1, 0x1.347ae147ae14ep+0, 0x1.a4dd2f1a9fbdfp-1,
        0x1.91e425873ef9fp-3}},
  };
  const ScoreContext ctx = SimpleContext(5, 5);
  // A non-uniform test prior, so the Bayesian concentration is not all ones.
  const std::vector<double> pi_test = {0.3, 0.25, 0.2, 0.15, 0.1};
  for (const GoldenCase& c : cases) {
    for (int pool_size : {-1, 1, 2, 8}) {
      SCOPED_TRACE(std::string(BootstrapMethodName(c.method)) + "/" +
                   ScoreTypeName(c.score) + " pool " +
                   std::to_string(pool_size));
      std::unique_ptr<ThreadPool> pool;
      if (pool_size >= 0) {
        pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(pool_size));
      }
      BootstrapOptions options;
      options.replicates = 200;
      options.method = c.method;
      Rng rng(4242);
      Result<BootstrapInterval> ci = BootstrapScoreInterval(
          c.score, ctx, UniformPi(5), pi_test, options, &rng, pool.get());
      ASSERT_TRUE(ci.ok());
      ExpectBitwiseEqual(*ci, c.expected);
      EXPECT_EQ(rng.NextUInt64(), 15419982818756053049ull);
    }
  }
}

// Replicate counts that leave a partial block of lockstep-seeded engines,
// under pools whose chunk boundaries are not multiples of the block size.
// Pinned before replicate engines were seeded in blocks.
TEST(BootstrapTest, GoldenIntervalsWithPartialBlocksAreBitExactForAnyPool) {
  struct PartialBlockCase {
    int replicates;
    BootstrapInterval expected;
  };
  const PartialBlockCase cases[] = {
      {7,
       {0x1.43b1078f4ad76p-1, 0x1.9f3ba068734cep-1, 0x1.5bff1dce38b72p-1,
        0x1.1fca702319761p-4}},
      {203,
       {0x1.29864262304c8p-1, 0x1.c707f1430669cp-1, 0x1.5e47cf09bce35p-1,
        0x1.16316d41a02dap-4}},
  };
  const ScoreContext ctx = SimpleContext(5, 5);
  const std::vector<double> pi_test = {0.3, 0.25, 0.2, 0.15, 0.1};
  for (const PartialBlockCase& c : cases) {
    for (int pool_size : {-1, 3, 8}) {
      SCOPED_TRACE("T " + std::to_string(c.replicates) + " pool " +
                   std::to_string(pool_size));
      std::unique_ptr<ThreadPool> pool;
      if (pool_size >= 0) {
        pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(pool_size));
      }
      BootstrapOptions options;
      options.replicates = c.replicates;
      Rng rng(4242);
      Result<BootstrapInterval> ci =
          BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx, UniformPi(5),
                                 pi_test, options, &rng, pool.get());
      ASSERT_TRUE(ci.ok());
      ExpectBitwiseEqual(*ci, c.expected);
      EXPECT_EQ(rng.NextUInt64(), 15419982818756053049ull);
    }
  }
}

// tau' = 2 under the standard bootstrap redraws often (gamma_test = (1, 0)
// leaves scoreLR undefined); the redraws continue the replicate's stream.
TEST(BootstrapTest, GoldenIntervalWithStandardRedraws) {
  BootstrapOptions options;
  options.replicates = 200;
  options.method = BootstrapMethod::kStandard;
  Rng rng(25);
  Result<BootstrapInterval> ci = BootstrapScoreInterval(
      ScoreType::kLogLikelihoodRatio, SimpleContext(3, 2), UniformPi(3),
      UniformPi(2), options, &rng);
  ASSERT_TRUE(ci.ok());
  ExpectBitwiseEqual(*ci, {0x1.3333333333333p-1, 0x1.4444444444444p+0,
                           0x1.d70a3d70a3d76p-1, 0x1.067c017be409p-2});
}

// With tau' = 1 scoreLR fails on every draw, so all 64 attempts of every
// replicate fail: the call returns the score's status, and the caller's rng
// still advances by exactly one word.
TEST(BootstrapTest, ExhaustedRetriesReturnTheScoreStatus) {
  const ScoreContext ctx = SimpleContext(3, 1);
  const Status score_status =
      ComputeScore(ScoreType::kLogLikelihoodRatio, ctx, UniformPi(3),
                   UniformPi(1))
          .status();
  ASSERT_EQ(score_status.code(), StatusCode::kInvalidArgument);
  for (int pool_size : {-1, 2}) {
    SCOPED_TRACE("pool " + std::to_string(pool_size));
    std::unique_ptr<ThreadPool> pool;
    if (pool_size >= 0) {
      pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(pool_size));
    }
    for (BootstrapMethod method :
         {BootstrapMethod::kBayesian, BootstrapMethod::kStandard}) {
      BootstrapOptions options;
      options.replicates = 50;
      options.method = method;
      Rng rng(31);
      Rng reference(31);
      reference.NextUInt64();
      Result<BootstrapInterval> ci = BootstrapScoreInterval(
          ScoreType::kLogLikelihoodRatio, ctx, UniformPi(3), UniformPi(1),
          options, &rng, pool.get());
      ASSERT_FALSE(ci.ok());
      EXPECT_EQ(ci.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(ci.status().ToString(), score_status.ToString());
      EXPECT_EQ(rng.NextUInt64(), reference.NextUInt64());
    }
  }
}

TEST(BootstrapTest, MethodNames) {
  EXPECT_STREQ(BootstrapMethodName(BootstrapMethod::kBayesian), "bayesian");
  EXPECT_STREQ(BootstrapMethodName(BootstrapMethod::kStandard), "standard");
}

}  // namespace
}  // namespace bagcpd

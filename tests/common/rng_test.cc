#include "bagcpd/common/rng.h"

#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "bagcpd/common/stats.h"

namespace bagcpd {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkDecorrelates) {
  Rng base(7);
  Rng f1 = base.Fork(1);
  Rng f2 = base.Fork(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (f1.Uniform() == f2.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkSeedIsTheForkedGeneratorsSeed) {
  Rng base(99);
  for (std::uint64_t id : {0ull, 1ull, 7ull, ~0ull}) {
    EXPECT_EQ(base.Fork(id).seed(), Rng::ForkSeed(99, id));
  }
}

// The lazy engine must reproduce std::mt19937_64 word for word, here on
// 1,200 fork seeds. 1,500 draws cross the end of the lazy half (156) and the
// full re-twists at 312, 624, 936 and 1248.
TEST(RngTest, LazyMt19937MatchesStdEngineOnForkSeeds) {
  for (std::uint64_t base : {0ull, 1ull, 0x9E3779B97F4A7C15ull}) {
    for (std::uint64_t id = 0; id < 400; ++id) {
      const std::uint64_t seed = Rng::ForkSeed(base, id);
      std::mt19937_64 reference(seed);
      LazyMt19937_64 lazy(seed);
      for (int draw = 0; draw < 1500; ++draw) {
        const std::uint64_t want = reference();
        const std::uint64_t got = lazy();
        if (want != got) {
          FAIL() << "seed " << seed << " diverges at draw " << draw;
        }
      }
    }
  }
}

TEST(RngTest, LazyMt19937MatchesStdEngineOnEdgeSeeds) {
  EXPECT_EQ(LazyMt19937_64::min(), std::mt19937_64::min());
  EXPECT_EQ(LazyMt19937_64::max(), std::mt19937_64::max());
  for (std::uint64_t seed : {0ull, 1ull, 5489ull, ~0ull, 1ull << 63}) {
    std::mt19937_64 reference(seed);
    LazyMt19937_64 lazy(seed);
    for (int draw = 0; draw < 700; ++draw) {
      ASSERT_EQ(reference(), lazy()) << "seed " << seed << " draw " << draw;
    }
  }
}

// SeedBlock seeds up to 8 engines in lockstep; each must still yield its
// own std::mt19937_64 stream. 700 draws cross the end of the first round
// (156, 312) and one full twist (624), for every block size and for seeding
// through the default word, exactly the words draw 0 needs, and all words.
TEST(RngTest, BlockSeededLazyMt19937MatchesStdEngine) {
  std::vector<std::uint64_t> seeds = {0ull, 1ull, 5489ull, ~0ull, 1ull << 63};
  for (std::uint64_t id = 0; id < 35; ++id) {
    seeds.push_back(Rng::ForkSeed(0x9E3779B97F4A7C15ull, id));
  }
  std::vector<LazyMt19937_64> engines(LazyMt19937_64::kMaxBlock);
  for (std::size_t last : {std::size_t{156}, LazyMt19937_64::kBlockSeedThrough,
                           std::size_t{311}}) {
    for (std::size_t count = 1; count <= LazyMt19937_64::kMaxBlock; ++count) {
      // Blocks of `count` consecutive seeds, reusing the same engines.
      for (std::size_t first = 0; first + count <= seeds.size();
           first += count) {
        LazyMt19937_64::SeedBlock(engines.data(), &seeds[first], count, last);
        for (std::size_t e = 0; e < count; ++e) {
          std::mt19937_64 reference(seeds[first + e]);
          for (int draw = 0; draw < 700; ++draw) {
            if (reference() != engines[e]()) {
              FAIL() << "seed " << seeds[first + e] << " (block of " << count
                     << ", seeded through " << last << ") diverges at draw "
                     << draw;
            }
          }
        }
      }
    }
  }
}

TEST(RngTest, ReseededLazyMt19937MatchesFreshEngine) {
  LazyMt19937_64 reused;
  std::mt19937_64 default_seeded;
  for (int draw = 0; draw < 400; ++draw) {
    ASSERT_EQ(default_seeded(), reused()) << "draw " << draw;
  }
  // Reseed mid-stream, in the first round, and after whole twists.
  for (int consumed : {0, 3, 200, 700}) {
    for (std::uint64_t seed : {7ull, 5489ull, ~0ull}) {
      for (int draw = 0; draw < consumed; ++draw) reused();
      reused.Reseed(seed);
      LazyMt19937_64 fresh(seed);
      for (int draw = 0; draw < 700; ++draw) {
        ASSERT_EQ(fresh(), reused())
            << "seed " << seed << " after " << consumed << " draws, draw "
            << draw;
      }
    }
  }
}

// DirichletInto / MultinomialInto depend only on the bit stream: the same
// seed gives the same bits on either engine, and the Rng members are thin
// wrappers over them.
TEST(RngTest, EngineGenericDirichletIsBitwiseEqualAcrossEngines) {
  const std::vector<std::vector<double>> alphas = {
      {1.0, 1.0, 1.0, 1.0, 1.0}, {0.3, 2.5, 7.0}, {1e-9, 1.0}, {50.0}};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (const std::vector<double>& alpha : alphas) {
      std::mt19937_64 std_engine(seed);
      LazyMt19937_64 lazy(seed);
      Rng rng(seed);
      std::vector<double> a(alpha.size()), b(alpha.size());
      // Several draws per engine so later ones start mid-stream.
      for (int rep = 0; rep < 3; ++rep) {
        DirichletInto(std_engine, alpha.data(), alpha.size(), a.data());
        DirichletInto(lazy, alpha.data(), alpha.size(), b.data());
        const std::vector<double> c = rng.Dirichlet(alpha);
        for (std::size_t i = 0; i < alpha.size(); ++i) {
          ASSERT_EQ(a[i], b[i]);
          ASSERT_EQ(a[i], c[i]);
        }
      }
    }
  }
}

TEST(RngTest, EngineGenericMultinomialIsBitwiseEqualAcrossEngines) {
  const std::vector<std::vector<double>> probs = {
      {0.2, 0.2, 0.2, 0.2, 0.2}, {0.5, 0.3, 0.2}, {1.0, 0.0}, {1.0}};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (const std::vector<double>& p : probs) {
      const int trials = static_cast<int>(seed % 40);
      std::mt19937_64 std_engine(seed);
      LazyMt19937_64 lazy(seed);
      Rng rng(seed);
      std::vector<int> a(p.size(), -1), b(p.size(), -1);
      for (int rep = 0; rep < 3; ++rep) {
        MultinomialInto(std_engine, trials, p.data(), p.size(), a.data());
        MultinomialInto(lazy, trials, p.data(), p.size(), b.data());
        EXPECT_EQ(a, b);
        EXPECT_EQ(a, rng.Multinomial(trials, p));
        EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0), trials);
      }
    }
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(4);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = rng.UniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.Gaussian(2.0, 3.0);
  EXPECT_NEAR(Mean(xs), 2.0, 0.1);
  EXPECT_NEAR(StdDev(xs), 3.0, 0.1);
}

TEST(RngTest, PoissonMeanAndMinValue) {
  Rng rng(6);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.Poisson(50.0);
  EXPECT_NEAR(Mean(xs), 50.0, 0.5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(rng.Poisson(0.01, 3), 3);
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> g = rng.SymmetricDirichlet(5, 1.0);
    EXPECT_EQ(g.size(), 5u);
    const double total = std::accumulate(g.begin(), g.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12);
    for (double v : g) EXPECT_GE(v, 0.0);
  }
}

TEST(RngTest, DirichletRespectsConcentration) {
  // Heavily skewed alpha concentrates mass on the large component.
  Rng rng(8);
  double mass0 = 0.0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> g = rng.Dirichlet({50.0, 1.0, 1.0});
    mass0 += g[0];
  }
  EXPECT_NEAR(mass0 / trials, 50.0 / 52.0, 0.02);
}

TEST(RngTest, MultinomialTotals) {
  Rng rng(9);
  for (int t = 0; t < 50; ++t) {
    std::vector<int> counts = rng.Multinomial(100, {0.2, 0.3, 0.5});
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 100);
    for (int c : counts) EXPECT_GE(c, 0);
  }
}

TEST(RngTest, MultinomialProportions) {
  Rng rng(10);
  std::vector<long> totals(3, 0);
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<int> counts = rng.Multinomial(100, {0.2, 0.3, 0.5});
    for (int i = 0; i < 3; ++i) totals[i] += counts[i];
  }
  EXPECT_NEAR(totals[0] / (100.0 * trials), 0.2, 0.02);
  EXPECT_NEAR(totals[2] / (100.0 * trials), 0.5, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(11);
  std::vector<int> counts(3, 0);
  for (int t = 0; t < 6000; ++t) {
    counts[rng.Categorical({1.0, 2.0, 3.0})]++;
  }
  EXPECT_NEAR(counts[0] / 6000.0, 1.0 / 6.0, 0.03);
  EXPECT_NEAR(counts[2] / 6000.0, 0.5, 0.03);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(12);
  std::vector<std::size_t> p = rng.Permutation(20);
  std::set<std::size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 20u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 19u);
}

TEST(RngTest, MultivariateGaussianIsoShape) {
  Rng rng(13);
  Point x = rng.MultivariateGaussianIso({1.0, -1.0, 0.0}, 0.5);
  EXPECT_EQ(x.size(), 3u);
}

TEST(RngTest, MultivariateGaussianFullCovariance) {
  Rng rng(14);
  Matrix cov = Matrix::FromRows({{2.0, 0.8}, {0.8, 1.0}});
  std::vector<double> xs, ys;
  for (int i = 0; i < 20000; ++i) {
    Point p = rng.MultivariateGaussian({0.0, 0.0}, cov);
    xs.push_back(p[0]);
    ys.push_back(p[1]);
  }
  EXPECT_NEAR(Variance(xs), 2.0, 0.1);
  EXPECT_NEAR(Variance(ys), 1.0, 0.05);
  EXPECT_NEAR(Covariance(xs, ys), 0.8, 0.05);
}

}  // namespace
}  // namespace bagcpd

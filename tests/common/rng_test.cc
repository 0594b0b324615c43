#include "bagcpd/common/rng.h"

#include <cmath>
#include <cstdint>
#include <limits>
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

// The in-repo sampler (U64ToDouble, Canonical64, PolarNormal, GammaDraw)
// reproduces libstdc++'s std::generate_canonical, std::normal_distribution
// and std::gamma_distribution bit for bit, word for word. The comparisons
// with std:: run only against libstdc++; the %a pins further down were
// captured from it and check the sampler under any standard library.

// An engine that returns one fixed word, to reach Canonical64's edges.
struct FixedWordEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return word; }
  result_type word;
};

// Counts the words a sampler reads, so a test can compare engine positions.
template <typename Engine>
struct CountingEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return Engine::min(); }
  static constexpr result_type max() { return Engine::max(); }
  result_type operator()() {
    ++words;
    return engine();
  }
  Engine engine;
  std::uint64_t words = 0;
};

// Words where the conversion to double rounds, ties, or sits next to a
// power of two, up to 2^64 - 2^10, which rounds up to 2^64.
const std::uint64_t kEdgeWords[] = {0,
                                    1,
                                    (1ull << 32) - 1,
                                    1ull << 32,
                                    (1ull << 32) + 1,
                                    (1ull << 53) - 1,
                                    1ull << 53,
                                    (1ull << 53) + 1,
                                    (1ull << 63) - 1,
                                    1ull << 63,
                                    ~0ull - (1ull << 10),
                                    ~0ull - (1ull << 10) + 1,
                                    ~0ull};

TEST(RngTest, U64ToDoubleMatchesTheCast) {
  for (std::uint64_t w : kEdgeWords) {
    EXPECT_EQ(U64ToDouble(w), static_cast<double>(w)) << w;
  }
  // Random words at every magnitude, so both halves and every rounding
  // position are exercised.
  std::mt19937_64 engine(2024);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t w = engine() >> (i % 64);
    if (U64ToDouble(w) != static_cast<double>(w)) FAIL() << w;
  }
}

TEST(RngTest, Canonical64EdgeWords) {
  FixedWordEngine top{~0ull};
  EXPECT_EQ(Canonical64(top), std::nextafter(1.0, 0.0));
  FixedWordEngine rounds_up{~0ull - (1ull << 10) + 1};
  EXPECT_EQ(Canonical64(rounds_up), std::nextafter(1.0, 0.0));
  FixedWordEngine below{~0ull - (1ull << 10)};
  EXPECT_EQ(Canonical64(below), 1.0 - 0x1p-53);
  FixedWordEngine zero{0};
  EXPECT_EQ(Canonical64(zero), 0.0);
  FixedWordEngine half{1ull << 63};
  EXPECT_EQ(Canonical64(half), 0.5);
}

#ifdef __GLIBCXX__
TEST(RngTest, Canonical64MatchesStdGenerateCanonical) {
  constexpr std::size_t kBits = std::numeric_limits<double>::digits;
  for (std::uint64_t w : kEdgeWords) {
    FixedWordEngine a{w}, b{w};
    EXPECT_EQ(Canonical64(a), (std::generate_canonical<double, kBits>(b)))
        << w;
  }
  std::mt19937_64 reference(7);
  LazyMt19937_64 lazy(7);
  for (int i = 0; i < 100000; ++i) {
    const double want = std::generate_canonical<double, kBits>(reference);
    if (Canonical64(lazy) != want) FAIL() << "draw " << i;
  }
}

// Each draw uses a fresh std::gamma_distribution, as the library does, and
// must read exactly the words the standard one reads. 20,000 draws per
// shape reach the polar pair's rejections, the v <= 0 retry that consumes
// the saved normal, Marsaglia-Tsang's rejections, and for alpha < 1 the
// u^(1/alpha) boost.
TEST(RngTest, GammaDrawMatchesStdGammaDistribution) {
  std::uint64_t seed = 500;
  for (double alpha : {1e-9, 0.25, 0.5, 1.0, 1.5, 4.0, 30.0}) {
    for (double beta : {1.0, 2.5}) {
      CountingEngine<std::mt19937_64> reference{std::mt19937_64(seed)};
      CountingEngine<std::mt19937_64> std_engine{std::mt19937_64(seed)};
      CountingEngine<LazyMt19937_64> lazy{LazyMt19937_64(seed)};
      ++seed;
      for (int draw = 0; draw < 20000; ++draw) {
        std::gamma_distribution<double> gamma(alpha, beta);
        const double want = gamma(reference);
        const double got_std = GammaDraw(std_engine, alpha, beta);
        const double got_lazy = GammaDraw(lazy, alpha, beta);
        if (got_std != want || got_lazy != want ||
            std_engine.words != reference.words ||
            lazy.words != reference.words) {
          FAIL() << "alpha " << alpha << " beta " << beta << " diverges at draw "
                 << draw;
        }
      }
    }
  }
}

TEST(RngTest, GaussianAndUniformMatchStdDistributions) {
  Rng rng(31);
  std::mt19937_64 reference(31);
  for (int draw = 0; draw < 20000; ++draw) {
    std::normal_distribution<double> normal(0.3, 2.0);
    ASSERT_EQ(rng.Gaussian(0.3, 2.0), normal(reference)) << draw;
    std::normal_distribution<double> standard(0.0, 1.0);
    ASSERT_EQ(rng.Gaussian(), standard(reference)) << draw;
    std::uniform_real_distribution<double> uniform(-1.0, 3.0);
    ASSERT_EQ(rng.Uniform(-1.0, 3.0), uniform(reference)) << draw;
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    ASSERT_EQ(rng.Uniform(), unit(reference)) << draw;
  }
  EXPECT_EQ(rng.NextUInt64(), reference());
}
#endif  // __GLIBCXX__

// First three draws of GammaDraw(std::mt19937_64(seed), alpha, beta) and
// the engine's next word, captured from std::gamma_distribution.
struct GammaPin {
  double alpha, beta;
  std::uint64_t seed;
  double draws[3];
  std::uint64_t next_word;
};

TEST(RngTest, GammaDrawGoldenValues) {
  const GammaPin pins[] = {
      {1e-9, 1.0, 100, {0x0p+0, 0x0p+0, 0x0p+0}, 0x24c82839c2010051ull},
      {1e-9, 2.5, 101, {0x0p+0, 0x0p+0, 0x0p+0}, 0x5ba31343a9c45baeull},
      {0.25, 1.0, 102,
       {0x1.f40d885311092p-3, 0x1.9ca16aa857f56p-5, 0x1.e226e208a53acp-1},
       0x422df8e20de5c1bbull},
      {0.25, 2.5, 103,
       {0x1.38f61e78a3427p-7, 0x1.1fb14b5290289p-11, 0x1.fa86f4adf6396p-4},
       0xe30d51ead30d8f26ull},
      {0.5, 1.0, 104,
       {0x1.42dcef3b1d2e3p-6, 0x1.66fa06940e167p-2, 0x1.55bc3edfda161p+0},
       0x1d9045cfa4c87447ull},
      {0.5, 2.5, 105,
       {0x1.03bdaba98556dp+0, 0x1.2367ee5dbd183p-5, 0x1.d57590ba35134p-3},
       0xe1e34d01cf55e454ull},
      {1.0, 1.0, 106,
       {0x1.de8019c085eb6p-1, 0x1.8c940a291c043p+0, 0x1.4e6ffb52626ffp+0},
       0x3c85554dc95616a9ull},
      {1.0, 2.5, 107,
       {0x1.b0e9014f7129ep-1, 0x1.09cbcafb2c7f5p+2, 0x1.2118226addff9p+3},
       0x020ae2f531f8cb7dull},
      {1.5, 1.0, 108,
       {0x1.171c1ece2dd3p-1, 0x1.32435eafe619ap+2, 0x1.09167fcdd48e5p-1},
       0xe398155bde0920f7ull},
      {1.5, 2.5, 109,
       {0x1.877813a66144ep+2, 0x1.a56fed7063351p+0, 0x1.2cba6492d9733p-4},
       0xfb191b5d90fc586bull},
      {4.0, 1.0, 110,
       {0x1.f228e6f879fbfp+1, 0x1.a83914efafa17p+2, 0x1.1b2640ecb2a85p+1},
       0x22d84d5babc8c9aaull},
      {4.0, 2.5, 111,
       {0x1.8812dc46231e5p+3, 0x1.260642d866154p+3, 0x1.7c18f5c12e9edp+2},
       0x8dfec29954b201faull},
      {30.0, 1.0, 112,
       {0x1.1cad5872e46aep+5, 0x1.d4b0993d8b33ap+4, 0x1.2fb56bb71ac86p+5},
       0x5a4523fdf8eb1f86ull},
      {30.0, 2.5, 113,
       {0x1.b9e0942a252bap+6, 0x1.31bd821e8d8a5p+6, 0x1.7c9c03716c85ep+6},
       0xc76786e0841bfd40ull},
  };
  for (const GammaPin& pin : pins) {
    std::mt19937_64 engine(pin.seed);
    for (double want : pin.draws) {
      EXPECT_EQ(GammaDraw(engine, pin.alpha, pin.beta), want)
          << "alpha " << pin.alpha << " beta " << pin.beta;
    }
    EXPECT_EQ(engine(), pin.next_word) << "alpha " << pin.alpha;
  }
}

// Rng::Gaussian and Rng::Uniform, captured from fresh std::
// distributions.
TEST(RngTest, GaussianAndUniformGoldenValues) {
  Rng normal(77);
  for (double want : {0x1.c8c094e24fa48p-3, 0x1.38d80821f8642p-3,
                      -0x1.c099a84d102ccp+1, -0x1.8275226dbf7c3p+0}) {
    EXPECT_EQ(normal.Gaussian(0.3, 2.0), want);
  }
  EXPECT_EQ(normal.NextUInt64(), 0xc72d928e5bfc52e7ull);
  Rng uniform(78);
  for (double want : {0x1.dec028eafe8fap+0, -0x1.2bf8869ba3254p-1,
                      -0x1.fc161dec32ap-9, 0x1.372c63ed2f2d8p+0}) {
    EXPECT_EQ(uniform.Uniform(-1.0, 3.0), want);
  }
  EXPECT_EQ(uniform.NextUInt64(), 0x90e0fce7c2a90170ull);
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

// Deterministic random-number facility. Every stochastic component of the
// library draws from an explicitly seeded Rng so experiments are reproducible.

#ifndef BAGCPD_COMMON_RNG_H_
#define BAGCPD_COMMON_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bagcpd/common/check.h"
#include "bagcpd/common/matrix.h"
#include "bagcpd/common/point.h"
#include "bagcpd/common/status.h"

namespace bagcpd {

/// \brief A UniformRandomBitGenerator whose output is exactly the
/// std::mt19937_64 stream for the same seed, but which builds its state
/// lazily.
///
/// std::mt19937_64 seeds all 312 state words up front and its first draw
/// twists all of them, which dwarfs the cost of a consumer that only needs a
/// few dozen words: a bootstrap replicate, or a quantizer's per-bag stream
/// (k-means++ seeding reads one word per center). Here construction stores
/// the seed only. During the first round, output i < 156 needs just the
/// twisted word i, which reads seeded words i, i + 1 and i + 156. Seeding is
/// one serial multiply chain, so draw 0 seeds words 1..156 in one go; after
/// that each draw i < 156 seeds one more word (i + 156) and twists one word.
/// Draw 157 finishes the first round, and from then on the generator twists
/// whole rounds like the standard engine.
///
/// That chain is the bulk of a short stream's cost, and it cannot be
/// shortened for one engine. SeedBlock() instead interleaves the independent
/// chains of up to kMaxBlock engines, so they overlap in the pipeline. It
/// seeds through word kBlockSeedThrough = 196: the 156 words draw 0 needs
/// plus 40, which covers a bootstrap replicate's mean of 36 draws (176 to
/// 240 measured within noise of 196; seeding all 311 measured slower).
/// Later draws seed lazily as above, so a block-seeded engine yields the
/// same stream.
///
/// Not serializable: use it for short-lived streams that are rebuilt from
/// their seed (bootstrap replicates, the seeded quantizers), and
/// std::mt19937_64 (Rng) for state that must be saved.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;

  /// The most engines SeedBlock() seeds in lockstep.
  static constexpr std::size_t kMaxBlock = 8;
  /// The last state word SeedBlock() seeds by default.
  static constexpr std::size_t kBlockSeedThrough = 196;

  /// Seeded with std::mt19937_64::default_seed, like the standard engine.
  LazyMt19937_64() : LazyMt19937_64(std::mt19937_64::default_seed) {}
  explicit LazyMt19937_64(std::uint64_t seed) { Reseed(seed); }

  /// \brief Restarts the engine in place on the stream of `seed`, as if it
  /// were freshly constructed with it.
  void Reseed(std::uint64_t seed) {
    x_[0] = seed;
    seeded_ = 1;
    next_ = 0;
    in_first_round_ = true;
  }

  /// \brief Reseeds `engines[e]` with `seeds[e]` for e < count
  /// (count <= kMaxBlock) and seeds each through state word `last`
  /// (< 312), their chains interleaved. Each engine then yields exactly the
  /// stream it would after Reseed(seeds[e]).
  static void SeedBlock(LazyMt19937_64* engines, const std::uint64_t* seeds,
                        std::size_t count,
                        std::size_t last = kBlockSeedThrough);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (in_first_round_) {
      if (next_ < kShift) {
        const std::size_t i = next_;
        SeedThrough(i + kShift);
        x_[i] = x_[i + kShift] ^ TwistWord(x_[i], x_[i + 1]);
      } else {
        FinishFirstRound();
      }
    } else if (next_ == kWords) {
      Twist();
    }
    return Temper(x_[next_++]);
  }

 private:
  static constexpr std::size_t kWords = 312;  // n
  static constexpr std::size_t kShift = 156;  // m

  static result_type TwistWord(result_type hi_word, result_type lo_word) {
    const result_type y = (hi_word & kUpperMask) | (lo_word & kLowerMask);
    return (y >> 1) ^ ((y & 1) != 0 ? kMatrixA : 0);
  }

  static result_type Temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// State word k of the standard seeding, from word k - 1.
  static result_type SeedWord(result_type prev, std::size_t k) {
    return 6364136223846793005ULL * (prev ^ (prev >> 62)) + k;
  }

  /// Seeds state words up to and including `last`.
  void SeedThrough(std::size_t last) {
    for (; seeded_ <= last; ++seeded_) {
      x_[seeded_] = SeedWord(x_[seeded_ - 1], seeded_);
    }
  }

  /// Seeds engines[0..count) through `last`, count <= N, with count chains
  /// interleaved.
  template <std::size_t N>
  static void SeedLockstep(LazyMt19937_64* engines, std::size_t count,
                           std::size_t last);

  /// Twists words [156, 312); words [0, 156) must already be twisted.
  void TwistUpperHalf();
  /// Seeds the remaining words and completes the first round's twist.
  void FinishFirstRound();
  /// One full round, as std::mt19937_64 does every 312 draws.
  void Twist();

  static constexpr result_type kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kLowerMask = ~kUpperMask;

  result_type x_[kWords];   // Words from seeded_ on are unset until seeded.
  std::size_t seeded_ = 1;  // Words [0, seeded_) have been seeded.
  std::size_t next_ = 0;    // Index of the next word to temper and return.
  bool in_first_round_ = true;
};

/// \brief static_cast<double>(w), computed without a branch.
///
/// Baseline x86-64 converts only signed integers, so GCC lowers the unsigned
/// cast to a branch on the sign bit, which mispredicts on half of all random
/// words.
/// Here both 32-bit halves convert exactly as signed values and one addition
/// rounds their exact sum w, to nearest even like the cast does.
inline double U64ToDouble(std::uint64_t w) {
  const double hi = static_cast<double>(static_cast<std::int64_t>(w >> 32));
  const double lo =
      static_cast<double>(static_cast<std::int64_t>(w & 0xFFFFFFFFu));
  return hi * 0x1p32 + lo;
}

/// \brief A uniform double in [0, 1) from one engine word: bitwise
/// std::generate_canonical<double, 53> as libstdc++ computes it for a
/// full-range 64-bit engine (std::mt19937_64, LazyMt19937_64).
template <typename Urbg>
double Canonical64(Urbg& urbg) {
  static_assert(Urbg::min() == 0 && Urbg::max() == ~std::uint64_t{0},
                "Canonical64 needs a full-range 64-bit engine");
  // libstdc++ divides the word by 2^64, which the multiply does exactly. A
  // word that rounds up to 2^64 would give 1, so it maps to the largest
  // double below 1 instead.
  const double r = U64ToDouble(urbg()) * 0x1p-64;
  if (__builtin_expect(r >= 1.0, 0)) return std::nextafter(1.0, 0.0);
  return r;
}

/// \brief Uniform integer in [lo, hi] inclusive.
template <typename Urbg>
int UniformIntDraw(Urbg& urbg, int lo, int hi) {
  BAGCPD_DCHECK(lo <= hi);
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(urbg);
}

/// \brief Fisher-Yates shuffle of indices [0, n).
template <typename Urbg>
std::vector<std::size_t> PermutationDraw(Urbg& urbg, std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        UniformIntDraw(urbg, 0, static_cast<int>(i) - 1));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

/// \brief Standard normal draws, bitwise those of one libstdc++
/// std::normal_distribution<double>(0, 1) object: Marsaglia's polar method,
/// which makes two values per accepted pair and hands out the saved second
/// one on the next call. A fresh sampler is a fresh distribution.
class PolarNormal {
 public:
  template <typename Urbg>
  double operator()(Urbg& urbg) {
    if (saved_available_) {
      saved_available_ = false;
      return saved_;
    }
    double x, y, r2;
    do {
      x = 2.0 * Canonical64(urbg) - 1.0;
      y = 2.0 * Canonical64(urbg) - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    saved_ = x * mult;
    saved_available_ = true;
    return y * mult;
  }

 private:
  double saved_ = 0.0;
  bool saved_available_ = false;
};

/// \brief Gamma(alpha, beta) draw (shape, scale), bitwise that of a fresh
/// libstdc++ std::gamma_distribution<double>(alpha, beta): Marsaglia-Tsang
/// with the same expressions, on a PolarNormal that lives for this one draw
/// (a rejected candidate's saved normal feeds the next), and for alpha < 1
/// the boost from alpha + 1 by u^(1/alpha).
///
/// The standard distribution scales each normal as n * 1 + 0, which can only
/// turn -0 into +0; every use of n below squares it or adds it to 1, so that
/// step is left out.
template <typename Urbg>
double GammaDraw(Urbg& urbg, double alpha, double beta = 1.0) {
  BAGCPD_DCHECK(alpha > 0.0 && beta > 0.0);
  const double malpha = alpha < 1.0 ? alpha + 1.0 : alpha;
  const double a1 = malpha - 1.0 / 3.0;
  const double a2 = 1.0 / std::sqrt(9.0 * a1);
  PolarNormal normal;
  double u, v, n;
  do {
    do {
      n = normal(urbg);
      v = 1.0 + a2 * n;
    } while (v <= 0.0);
    v = v * v * v;
    u = Canonical64(urbg);
  } while (u > 1.0 - 0.0331 * n * n * n * n &&
           std::log(u) > 0.5 * n * n + a1 * (1.0 - v + std::log(v)));
  if (alpha == malpha) return a1 * v * beta;
  do {
    u = Canonical64(urbg);
  } while (u == 0.0);
  return std::pow(u, 1.0 / alpha) * a1 * v * beta;
}

/// \brief Dirichlet draw with concentration `alpha[0..n)` into `out[0..n)`;
/// the result sums to one. Each component is its own GammaDraw, so no saved
/// normal carries between components and the result is a pure function of
/// the bit stream: the same words give the same bits on any engine, and the
/// bits std::gamma_distribution gives.
template <typename Urbg>
void DirichletInto(Urbg& urbg, const double* alpha, std::size_t n,
                   double* out) {
  BAGCPD_CHECK_MSG(n > 0, "Dirichlet with empty alpha");
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = GammaDraw(urbg, alpha[i]);
    total += out[i];
  }
  // All-zero draws are possible for tiny alpha due to underflow; fall back to
  // the uniform simplex point rather than dividing by zero.
  if (total <= 0.0) {
    std::fill(out, out + n, 1.0 / static_cast<double>(n));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] /= total;
}

/// \brief Multinomial counts of `trials` over `probs[0..n)` into
/// `counts[0..n)`, by sequential binomial thinning (exact). Each
/// std::binomial_distribution is built fresh per draw, so, like
/// DirichletInto, the result is a pure function of the bit stream.
template <typename Urbg>
void MultinomialInto(Urbg& urbg, int trials, const double* probs,
                     std::size_t n, int* counts) {
  BAGCPD_CHECK(n > 0);
  std::fill(counts, counts + n, 0);
  double remaining_prob = 0.0;
  for (std::size_t i = 0; i < n; ++i) remaining_prob += probs[i];
  int remaining = trials;
  for (std::size_t i = 0; i + 1 < n && remaining > 0; ++i) {
    const double p = remaining_prob > 0.0
                         ? std::clamp(probs[i] / remaining_prob, 0.0, 1.0)
                         : 0.0;
    std::binomial_distribution<int> binomial(remaining, p);
    counts[i] = binomial(urbg);
    remaining -= counts[i];
    remaining_prob -= probs[i];
  }
  counts[n - 1] += remaining;
}

/// \brief Seedable pseudo-random generator with the distributions used across
/// the library (Gaussian, multivariate Gaussian, Poisson, Dirichlet, ...).
///
/// Wraps std::mt19937_64. Not thread-safe; clone one per thread with
/// `Fork()` which derives an independent stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// \brief Derives an independent generator (seed mixed with `stream_id`).
  ///
  /// Forking depends only on the construction seed, never on how much of the
  /// stream has been consumed, so `rng.Fork(k)` is stable over time. This is
  /// the primitive behind per-replicate and per-stream determinism in the
  /// concurrent runtime: give every unit of parallel work its own fork and
  /// results are bitwise-identical for any thread count.
  Rng Fork(std::uint64_t stream_id) const;

  /// \brief The seed of `Rng(seed).Fork(stream_id)`. Lets a caller run a
  /// fork's stream on another engine (a LazyMt19937_64) without building the
  /// Rng.
  static std::uint64_t ForkSeed(std::uint64_t seed, std::uint64_t stream_id);

  /// \brief Draws one raw 64-bit word from the engine (advances the state).
  ///
  /// Use to derive a fresh sub-seed from a sequential generator:
  /// `Rng base(rng.NextUInt64());` then `base.Fork(i)` per parallel unit.
  std::uint64_t NextUInt64();

  /// \brief SplitMix64 finalizer; the avalanche mix used by Fork(). Exposed so
  /// callers can derive decorrelated seeds from structured ids.
  static std::uint64_t MixSeed64(std::uint64_t x);

  /// \brief Deterministic, platform-stable FNV-1a hash of a string key.
  ///
  /// Unlike std::hash, the value is fixed by the standard's byte sequence, so
  /// stream-keyed seeds reproduce across runs, shard counts, and platforms.
  static std::uint64_t StableHash64(const std::string& key);

  /// \brief Uniform double in [0, 1).
  double Uniform();

  /// \brief Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// \brief Uniform integer in [lo, hi] inclusive.
  int UniformInt(int lo, int hi);

  /// \brief Standard normal draw.
  double Gaussian();

  /// \brief Normal draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// \brief Poisson draw with rate `lambda`; returns at least `min_value`
  /// (the paper's bag sizes must be >= 1 for estimation to be defined).
  int Poisson(double lambda, int min_value = 0);

  /// \brief Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// \brief Exponential draw with the given rate.
  double Exponential(double rate);

  /// \brief Gamma draw with the given shape and scale.
  double Gamma(double shape, double scale);

  /// \brief Dirichlet draw with concentration vector `alpha`; the result sums
  /// to one. Used by the Bayesian bootstrap (paper Eqs. 21-22, Appendix A/B).
  std::vector<double> Dirichlet(const std::vector<double>& alpha);

  /// \brief Symmetric Dirichlet Dir(alpha, ..., alpha) of dimension n.
  std::vector<double> SymmetricDirichlet(std::size_t n, double alpha = 1.0);

  /// \brief Multinomial counts: n trials over the probability vector `probs`.
  std::vector<int> Multinomial(int n, const std::vector<double>& probs);

  /// \brief Draws an index in [0, weights.size()) with probability
  /// proportional to weights[i].
  std::size_t Categorical(const std::vector<double>& weights);

  /// \brief Isotropic multivariate normal N(mean, sigma^2 I).
  Point MultivariateGaussianIso(const Point& mean, double sigma);

  /// \brief Diagonal-covariance multivariate normal.
  Point MultivariateGaussianDiag(const Point& mean, const Point& stddevs);

  /// \brief Full-covariance multivariate normal via the Cholesky factor of
  /// `covariance` (must be symmetric positive definite).
  Point MultivariateGaussian(const Point& mean, const Matrix& covariance);

  /// \brief Fisher-Yates shuffle of indices [0, n).
  std::vector<std::size_t> Permutation(std::size_t n);

  /// \brief The seed this generator was constructed with.
  std::uint64_t seed() const { return seed_; }

  /// \brief The complete generator state — construction seed plus the
  /// mt19937_64 stream position — as a portable text string (the standard's
  /// own `operator<<` engine encoding). A generator restored from it
  /// continues the draw sequence bitwise where this one stands; every
  /// distribution helper above starts fresh per call (no saved normal is
  /// kept), so the engine stream is the whole state. Used by the checkpoint
  /// subsystem (serialize/) to freeze a detector's RNG position.
  std::string SerializeState() const;

  /// \brief Restores a state captured by SerializeState(); rejects malformed
  /// text without touching the current state.
  Status DeserializeState(const std::string& state);

  /// \brief Access to the underlying engine (for std distributions and the
  /// engine-generic helpers above).
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace bagcpd

#endif  // BAGCPD_COMMON_RNG_H_

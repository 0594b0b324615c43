#include "bagcpd/common/rng.h"

#include <algorithm>
#include <cmath>
#include <locale>
#include <sstream>

#include "bagcpd/common/check.h"

namespace bagcpd {

std::uint64_t Rng::MixSeed64(std::uint64_t x) {
  // SplitMix64 finalizer; decorrelates fork streams from the parent seed.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t Rng::StableHash64(const std::string& key) {
  // FNV-1a, 64-bit.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : key) {
    h ^= static_cast<std::uint64_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

template <std::size_t N>
void LazyMt19937_64::SeedLockstep(LazyMt19937_64* engines, std::size_t count,
                                  std::size_t last) {
  if constexpr (N > 1) {
    if (count < N) {
      SeedLockstep<N - 1>(engines, count, last);
      return;
    }
  }
  // A compile-time block size keeps every chain in a register.
  result_type prev[N] = {};
  for (std::size_t e = 0; e < N; ++e) prev[e] = engines[e].x_[0];
  for (std::size_t k = 1; k <= last; ++k) {
#pragma GCC unroll 8
    for (std::size_t e = 0; e < N; ++e) {
      prev[e] = SeedWord(prev[e], k);
      engines[e].x_[k] = prev[e];
    }
  }
  for (std::size_t e = 0; e < N; ++e) engines[e].seeded_ = last + 1;
}

void LazyMt19937_64::SeedBlock(LazyMt19937_64* engines,
                               const std::uint64_t* seeds, std::size_t count,
                               std::size_t last) {
  BAGCPD_CHECK(count <= kMaxBlock && last < kWords);
  if (count == 0) return;
  for (std::size_t e = 0; e < count; ++e) engines[e].Reseed(seeds[e]);
  SeedLockstep<kMaxBlock>(engines, count, last);
}

void LazyMt19937_64::TwistUpperHalf() {
  for (std::size_t k = kShift; k + 1 < kWords; ++k) {
    x_[k] = x_[k - kShift] ^ TwistWord(x_[k], x_[k + 1]);
  }
  x_[kWords - 1] = x_[kShift - 1] ^ TwistWord(x_[kWords - 1], x_[0]);
}

void LazyMt19937_64::FinishFirstRound() {
  SeedThrough(kWords - 1);
  TwistUpperHalf();
  in_first_round_ = false;
}

void LazyMt19937_64::Twist() {
  for (std::size_t k = 0; k < kShift; ++k) {
    x_[k] = x_[k + kShift] ^ TwistWord(x_[k], x_[k + 1]);
  }
  TwistUpperHalf();
  next_ = 0;
}

std::uint64_t Rng::ForkSeed(std::uint64_t seed, std::uint64_t stream_id) {
  return MixSeed64(seed ^ MixSeed64(stream_id + 1));
}

Rng Rng::Fork(std::uint64_t stream_id) const {
  return Rng(ForkSeed(seed_, stream_id));
}

std::uint64_t Rng::NextUInt64() { return engine_(); }

double Rng::Uniform() { return Canonical64(engine_); }

double Rng::Uniform(double lo, double hi) {
  BAGCPD_DCHECK(lo <= hi);
  // As std::uniform_real_distribution(lo, hi) computes it.
  return Canonical64(engine_) * (hi - lo) + lo;
}

int Rng::UniformInt(int lo, int hi) { return UniformIntDraw(engine_, lo, hi); }

double Rng::Gaussian() { return Gaussian(0.0, 1.0); }

double Rng::Gaussian(double mean, double stddev) {
  BAGCPD_DCHECK(stddev >= 0.0);
  // A fresh std::normal_distribution(mean, stddev): the pair's saved second
  // value is dropped with the sampler.
  return PolarNormal()(engine_) * stddev + mean;
}

int Rng::Poisson(double lambda, int min_value) {
  BAGCPD_DCHECK(lambda > 0.0);
  std::poisson_distribution<int> dist(lambda);
  return std::max(min_value, dist(engine_));
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
  return dist(engine_);
}

double Rng::Exponential(double rate) {
  BAGCPD_DCHECK(rate > 0.0);
  std::exponential_distribution<double> dist(rate);
  return dist(engine_);
}

double Rng::Gamma(double shape, double scale) {
  return GammaDraw(engine_, shape, scale);
}

std::vector<double> Rng::Dirichlet(const std::vector<double>& alpha) {
  std::vector<double> draws(alpha.size());
  DirichletInto(engine_, alpha.data(), alpha.size(), draws.data());
  return draws;
}

std::vector<double> Rng::SymmetricDirichlet(std::size_t n, double alpha) {
  return Dirichlet(std::vector<double>(n, alpha));
}

std::vector<int> Rng::Multinomial(int n, const std::vector<double>& probs) {
  std::vector<int> counts(probs.size());
  MultinomialInto(engine_, n, probs.data(), probs.size(), counts.data());
  return counts;
}

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  BAGCPD_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    BAGCPD_DCHECK(w >= 0.0);
    total += w;
  }
  BAGCPD_CHECK_MSG(total > 0.0, "Categorical with all-zero weights");
  double u = Uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

Point Rng::MultivariateGaussianIso(const Point& mean, double sigma) {
  Point x(mean.size());
  for (std::size_t j = 0; j < mean.size(); ++j) {
    x[j] = Gaussian(mean[j], sigma);
  }
  return x;
}

Point Rng::MultivariateGaussianDiag(const Point& mean, const Point& stddevs) {
  BAGCPD_DCHECK(mean.size() == stddevs.size());
  Point x(mean.size());
  for (std::size_t j = 0; j < mean.size(); ++j) {
    x[j] = Gaussian(mean[j], stddevs[j]);
  }
  return x;
}

Point Rng::MultivariateGaussian(const Point& mean, const Matrix& covariance) {
  BAGCPD_CHECK(covariance.rows() == covariance.cols());
  BAGCPD_CHECK(covariance.rows() == mean.size());
  Result<Matrix> chol = covariance.Cholesky();
  BAGCPD_CHECK_MSG(chol.ok(), "covariance is not positive definite: %s",
                   chol.status().ToString().c_str());
  const Matrix& l = chol.ValueOrDie();
  Point z(mean.size());
  for (double& v : z) v = Gaussian();
  Point x(mean);
  for (std::size_t i = 0; i < mean.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      x[i] += l(i, j) * z[j];
    }
  }
  return x;
}

std::string Rng::SerializeState() const {
  // The classic locale pins the text form ("group by 3 digits" locales would
  // corrupt the round-trip); the engine encoding itself is specified by the
  // standard, so the string is portable across platforms and libstdc++/libc++.
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << seed_ << ' ' << engine_;
  return os.str();
}

Status Rng::DeserializeState(const std::string& state) {
  std::istringstream is(state);
  is.imbue(std::locale::classic());
  std::uint64_t seed = 0;
  std::mt19937_64 engine;
  if (!(is >> seed >> engine)) {
    return Status::Invalid("corrupt Rng state string");
  }
  seed_ = seed;
  engine_ = engine;
  return Status::OK();
}

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> idx;
  PermutationInto(engine_, n, &idx);
  return idx;
}

}  // namespace bagcpd

#include "bagcpd/common/stats.h"

#include <algorithm>
#include <cmath>

#include "bagcpd/common/check.h"

namespace bagcpd {

double Mean(const std::vector<double>& xs) {
  BAGCPD_CHECK_MSG(!xs.empty(), "Mean of empty vector");
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Covariance(const std::vector<double>& xs,
                  const std::vector<double>& ys) {
  BAGCPD_CHECK(xs.size() == ys.size());
  if (xs.size() < 2) return 0.0;
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double acc = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc += (xs[i] - mx) * (ys[i] - my);
  }
  return acc / static_cast<double>(xs.size() - 1);
}

double Correlation(const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  const double sx = StdDev(xs);
  const double sy = StdDev(ys);
  if (sx == 0.0 || sy == 0.0) return 0.0;
  return Covariance(xs, ys) / (sx * sy);
}

namespace {

// Linear-interpolation quantile of a non-empty, ascending-sorted sample.
double SortedQuantile(const std::vector<double>& sorted, double p) {
  if (sorted.size() == 1) return sorted.front();
  const double h = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

Result<double> Quantile(std::vector<double> xs, double p) {
  if (xs.empty()) return Status::Invalid("Quantile of empty vector");
  if (p < 0.0 || p > 1.0) {
    return Status::Invalid("quantile probability must be in [0, 1]");
  }
  std::sort(xs.begin(), xs.end());
  return SortedQuantile(xs, p);
}

Result<Interval> CentralInterval(std::vector<double>* xs, double alpha) {
  if (alpha <= 0.0 || alpha >= 1.0) {
    return Status::Invalid("alpha must be in (0, 1)");
  }
  if (xs->empty()) return Status::Invalid("Quantile of empty vector");
  std::sort(xs->begin(), xs->end());
  return Interval{SortedQuantile(*xs, alpha / 2.0),
                  SortedQuantile(*xs, 1.0 - alpha / 2.0)};
}

double Mad(std::vector<double> xs) {
  BAGCPD_CHECK(!xs.empty());
  Result<double> med = Quantile(xs, 0.5);
  const double m = med.ValueOrDie();
  for (double& x : xs) x = std::abs(x - m);
  return 1.4826 * Quantile(std::move(xs), 0.5).ValueOrDie();
}

Interval MinMax(const std::vector<double>& xs) {
  BAGCPD_CHECK(!xs.empty());
  auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
  return Interval{*mn, *mx};
}

double LogSumExp(const std::vector<double>& xs) {
  BAGCPD_CHECK(!xs.empty());
  const double m = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(m)) return m;
  double acc = 0.0;
  for (double x : xs) acc += std::exp(x - m);
  return m + std::log(acc);
}

}  // namespace bagcpd

// Descriptive statistics shared by the bootstrap machinery, evaluation
// metrics, and tests.

#ifndef BAGCPD_COMMON_STATS_H_
#define BAGCPD_COMMON_STATS_H_

#include <cstddef>
#include <vector>

#include "bagcpd/common/result.h"

namespace bagcpd {

/// \brief Pi (C++17 has no std::numbers::pi).
inline constexpr double kPi = 3.14159265358979323846;

/// \brief Arithmetic mean of a non-empty vector.
double Mean(const std::vector<double>& xs);

/// \brief Unbiased sample variance (n-1 denominator); 0 for n < 2.
double Variance(const std::vector<double>& xs);

/// \brief Square root of Variance().
double StdDev(const std::vector<double>& xs);

/// \brief Sample covariance of two equal-length vectors (n-1 denominator).
double Covariance(const std::vector<double>& xs, const std::vector<double>& ys);

/// \brief Pearson correlation; 0 when either side is constant.
double Correlation(const std::vector<double>& xs, const std::vector<double>& ys);

/// \brief Linear-interpolation quantile (type-7, the R default) of `xs` at
/// probability `p` in [0, 1]. The input need not be sorted.
/// Fails with Invalid on an empty input or p outside [0, 1].
Result<double> Quantile(std::vector<double> xs, double p);

/// \brief Both quantile endpoints of a central (1 - alpha) interval, i.e. the
/// alpha/2 and 1 - alpha/2 quantiles. Used for bootstrap confidence intervals;
/// sorts `*xs` in place, so it allocates nothing.
struct Interval {
  double lo;
  double up;
};
Result<Interval> CentralInterval(std::vector<double>* xs, double alpha);

/// \brief Median absolute deviation, scaled by 1.4826 for Gaussian consistency.
double Mad(std::vector<double> xs);

/// \brief Min and max of a non-empty vector.
Interval MinMax(const std::vector<double>& xs);

/// \brief log(sum(exp(xs))) computed stably.
double LogSumExp(const std::vector<double>& xs);

}  // namespace bagcpd

#endif  // BAGCPD_COMMON_STATS_H_

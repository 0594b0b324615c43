#include "bagcpd/common/stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace bagcpd {
namespace {

TEST(StatsTest, MeanVarianceStdDev) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, VarianceOfSingletonIsZero) {
  EXPECT_DOUBLE_EQ(Variance({3.0}), 0.0);
}

TEST(StatsTest, CovarianceAndCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(Correlation(xs, ys), 1.0, 1e-12);
  std::vector<double> zs = {10, 8, 6, 4, 2};
  EXPECT_NEAR(Correlation(xs, zs), -1.0, 1e-12);
  std::vector<double> cs = {5, 5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(Correlation(xs, cs), 0.0);
}

TEST(StatsTest, QuantileMatchesRType7) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0).ValueOrDie(), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0).ValueOrDie(), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5).ValueOrDie(), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25).ValueOrDie(), 1.75);
}

TEST(StatsTest, QuantileUnsortedInput) {
  std::vector<double> xs = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5).ValueOrDie(), 5.0);
}

TEST(StatsTest, QuantileErrors) {
  EXPECT_FALSE(Quantile({}, 0.5).ok());
  EXPECT_FALSE(Quantile({1.0}, -0.1).ok());
  EXPECT_FALSE(Quantile({1.0}, 1.1).ok());
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.9).ValueOrDie(), 7.0);
}

TEST(StatsTest, CentralInterval) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  Result<Interval> ci = CentralInterval(&xs, 0.05);
  ASSERT_TRUE(ci.ok());
  EXPECT_NEAR(ci->lo, 3.475, 1e-9);
  EXPECT_NEAR(ci->up, 97.525, 1e-9);
  EXPECT_LT(ci->lo, ci->up);
  EXPECT_FALSE(CentralInterval(&xs, 0.0).ok());
  EXPECT_FALSE(CentralInterval(&xs, 1.0).ok());
}

TEST(StatsTest, MadOfSymmetricData) {
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7};
  EXPECT_NEAR(Mad(xs), 1.4826 * 2.0, 1e-9);
}

TEST(StatsTest, MinMax) {
  Interval mm = MinMax({3.0, -1.0, 7.0});
  EXPECT_DOUBLE_EQ(mm.lo, -1.0);
  EXPECT_DOUBLE_EQ(mm.up, 7.0);
}

TEST(StatsTest, LogSumExpStable) {
  // Direct exp would overflow.
  std::vector<double> xs = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(xs), 1000.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(LogSumExp({0.0, 0.0, 0.0}), std::log(3.0), 1e-12);
}

}  // namespace
}  // namespace bagcpd

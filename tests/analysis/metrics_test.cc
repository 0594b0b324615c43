#include "bagcpd/analysis/metrics.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace bagcpd {
namespace {

TEST(MetricsTest, PerfectDetection) {
  DetectionReport r = EvaluateAlarms({10, 20}, {10, 20}, 2);
  EXPECT_EQ(r.true_positives, 2u);
  EXPECT_EQ(r.false_positives, 0u);
  EXPECT_EQ(r.missed, 0u);
  EXPECT_DOUBLE_EQ(r.precision, 1.0);
  EXPECT_DOUBLE_EQ(r.recall, 1.0);
  EXPECT_DOUBLE_EQ(r.f1, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_delay, 0.0);
}

TEST(MetricsTest, DelayedDetectionWithinTolerance) {
  DetectionReport r = EvaluateAlarms({12, 23}, {10, 20}, 3);
  EXPECT_EQ(r.true_positives, 2u);
  EXPECT_DOUBLE_EQ(r.mean_delay, 2.5);
}

TEST(MetricsTest, EarlyAlarmDoesNotMatch) {
  // Alarms may only trail changes in the online setting.
  DetectionReport r = EvaluateAlarms({8}, {10}, 5);
  EXPECT_EQ(r.true_positives, 0u);
  EXPECT_EQ(r.false_positives, 1u);
  EXPECT_EQ(r.missed, 1u);
}

TEST(MetricsTest, LateAlarmOutsideToleranceIsFalsePositive) {
  DetectionReport r = EvaluateAlarms({17}, {10}, 5);
  EXPECT_EQ(r.true_positives, 0u);
  EXPECT_EQ(r.false_positives, 1u);
}

TEST(MetricsTest, EachTruthMatchedOnce) {
  // Two alarms near one change: one TP, one FP.
  DetectionReport r = EvaluateAlarms({10, 11}, {10}, 3);
  EXPECT_EQ(r.true_positives, 1u);
  EXPECT_EQ(r.false_positives, 1u);
  EXPECT_DOUBLE_EQ(r.precision, 0.5);
  EXPECT_DOUBLE_EQ(r.recall, 1.0);
}

TEST(MetricsTest, EmptyInputs) {
  DetectionReport none = EvaluateAlarms({}, {10}, 3);
  EXPECT_EQ(none.missed, 1u);
  EXPECT_DOUBLE_EQ(none.precision, 0.0);
  DetectionReport no_truth = EvaluateAlarms({5}, {}, 3);
  EXPECT_EQ(no_truth.false_positives, 1u);
  EXPECT_DOUBLE_EQ(no_truth.recall, 0.0);
}

TEST(MetricsTest, F1HarmonicMean) {
  DetectionReport r = EvaluateAlarms({10, 30}, {10, 20}, 2);
  EXPECT_DOUBLE_EQ(r.precision, 0.5);
  EXPECT_DOUBLE_EQ(r.recall, 0.5);
  EXPECT_DOUBLE_EQ(r.f1, 0.5);
}

TEST(RocAucTest, PerfectSeparation) {
  const double auc =
      RocAuc({0.1, 0.2, 0.9, 0.8}, {0, 0, 1, 1}).ValueOrDie();
  EXPECT_DOUBLE_EQ(auc, 1.0);
}

TEST(RocAucTest, ReversedSeparation) {
  const double auc =
      RocAuc({0.9, 0.8, 0.1, 0.2}, {0, 0, 1, 1}).ValueOrDie();
  EXPECT_DOUBLE_EQ(auc, 0.0);
}

TEST(RocAucTest, RandomScoresNearHalf) {
  const double auc =
      RocAuc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}).ValueOrDie();
  EXPECT_DOUBLE_EQ(auc, 0.5);  // All ties -> midrank -> 0.5.
}

TEST(RocAucTest, KnownPartialValue) {
  // Scores: pos {3, 1}, neg {2, 0}: pairs won 3>2, 3>0, 1>0 = 3 of 4.
  const double auc = RocAuc({3.0, 1.0, 2.0, 0.0}, {1, 1, 0, 0}).ValueOrDie();
  EXPECT_DOUBLE_EQ(auc, 0.75);
}

TEST(RocAucTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(RocAuc({1.0, 2.0}, {1, 1}).ok());
  EXPECT_FALSE(RocAuc({1.0, 2.0}, {0, 0}).ok());
  EXPECT_FALSE(RocAuc({1.0}, {0, 1}).ok());
}

TEST(RocAucTest, RejectsNaNScoresWherever) {
  // A NaN used to break the sort's ordering: OK(0.25), OK(1), OK(0.5) or
  // OK(0.25) here, depending only on where it sat.
  for (std::size_t at = 0; at < 4; ++at) {
    std::vector<double> scores = {3.0, 1.0, 2.0, 0.0};
    scores[at] = std::nan("");
    const Result<double> auc = RocAuc(scores, {1, 1, 0, 0});
    ASSERT_FALSE(auc.ok()) << at << ": " << auc.ValueOrDie();
    EXPECT_EQ(auc.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(RocAucTest, InfiniteScoresRankAtTheEnds) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(RocAuc({inf, -inf, 0.3, 0.2}, {1, 0, 1, 0}).ValueOrDie(), 1.0);
  EXPECT_EQ(RocAuc({-inf, inf, 0.3, 0.2}, {1, 0, 1, 0}).ValueOrDie(), 0.25);
}

}  // namespace
}  // namespace bagcpd

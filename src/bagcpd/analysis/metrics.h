// Evaluation metrics for change-point detection: tolerance-matched
// precision/recall/F1, detection delay, and score-based ROC AUC. These back
// the quantitative columns of EXPERIMENTS.md.

#ifndef BAGCPD_ANALYSIS_METRICS_H_
#define BAGCPD_ANALYSIS_METRICS_H_

#include <cstdint>
#include <vector>

#include "bagcpd/common/result.h"

namespace bagcpd {

/// \brief Alarm-versus-truth evaluation with a matching tolerance.
struct DetectionReport {
  /// An alarm within `tolerance` steps at-or-after a true change point counts
  /// as detecting it; each true point is matched at most once.
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t missed = 0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  /// Mean delay (alarm time - change time) over matched pairs.
  double mean_delay = 0.0;
};

/// \brief Matches alarms to true change points within a window of
/// [cp, cp + tolerance] steps (alarms can only trail changes in this online
/// setting).
DetectionReport EvaluateAlarms(const std::vector<std::uint64_t>& alarms,
                               const std::vector<std::size_t>& change_points,
                               std::size_t tolerance);

/// \brief ROC AUC of `scores` against binary `labels` (1 = near a true change
/// point). Ties are handled by the rank formulation; +-inf scores rank at
/// the ends. Fails with Invalid when either class is empty or a score is
/// NaN.
Result<double> RocAuc(const std::vector<double>& scores,
                      const std::vector<int>& labels);

}  // namespace bagcpd

#endif  // BAGCPD_ANALYSIS_METRICS_H_

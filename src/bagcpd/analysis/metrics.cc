#include "bagcpd/analysis/metrics.h"

#include <algorithm>
#include <cmath>

namespace bagcpd {

DetectionReport EvaluateAlarms(const std::vector<std::uint64_t>& alarms,
                               const std::vector<std::size_t>& change_points,
                               std::size_t tolerance) {
  DetectionReport report;
  std::vector<bool> alarm_used(alarms.size(), false);
  double delay_acc = 0.0;

  for (std::size_t cp : change_points) {
    bool matched = false;
    for (std::size_t a = 0; a < alarms.size(); ++a) {
      if (alarm_used[a]) continue;
      const std::uint64_t alarm = alarms[a];
      if (alarm >= cp && alarm <= cp + tolerance) {
        alarm_used[a] = true;
        matched = true;
        delay_acc += static_cast<double>(alarm - cp);
        break;
      }
    }
    if (matched) {
      ++report.true_positives;
    } else {
      ++report.missed;
    }
  }
  for (bool used : alarm_used) {
    if (!used) ++report.false_positives;
  }

  const std::size_t alarm_total = alarms.size();
  const std::size_t truth_total = change_points.size();
  report.precision =
      alarm_total == 0
          ? 0.0
          : static_cast<double>(report.true_positives) / alarm_total;
  report.recall = truth_total == 0
                      ? 0.0
                      : static_cast<double>(report.true_positives) / truth_total;
  report.f1 = (report.precision + report.recall) == 0.0
                  ? 0.0
                  : 2.0 * report.precision * report.recall /
                        (report.precision + report.recall);
  report.mean_delay = report.true_positives == 0
                          ? 0.0
                          : delay_acc / report.true_positives;
  return report;
}

Result<double> RocAuc(const std::vector<double>& scores,
                      const std::vector<int>& labels) {
  if (scores.size() != labels.size()) {
    return Status::Invalid("scores/labels size mismatch");
  }
  std::size_t positives = 0;
  std::size_t negatives = 0;
  for (int label : labels) {
    if (label != 0) {
      ++positives;
    } else {
      ++negatives;
    }
  }
  if (positives == 0 || negatives == 0) {
    return Status::Invalid("RocAuc needs both classes present");
  }
  // NaN has no rank: sorting with it breaks the comparator's strict weak
  // ordering.
  for (double score : scores) {
    if (std::isnan(score)) return Status::Invalid("RocAuc score is NaN");
  }

  // Rank-sum (Mann-Whitney) formulation with midranks for ties.
  std::vector<std::size_t> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });
  std::vector<double> rank(scores.size());
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && scores[order[j + 1]] == scores[order[i]]) {
      ++j;
    }
    const double mid = 0.5 * (static_cast<double>(i) + static_cast<double>(j)) + 1.0;
    for (std::size_t k = i; k <= j; ++k) rank[order[k]] = mid;
    i = j + 1;
  }
  double rank_sum_pos = 0.0;
  for (std::size_t idx = 0; idx < scores.size(); ++idx) {
    if (labels[idx] != 0) rank_sum_pos += rank[idx];
  }
  const double auc =
      (rank_sum_pos - static_cast<double>(positives) *
                          (static_cast<double>(positives) + 1.0) / 2.0) /
      (static_cast<double>(positives) * static_cast<double>(negatives));
  return auc;
}

}  // namespace bagcpd

// The paper's experiments as data (Section 5): each Run* function runs one
// figure's configuration on the in-repo generators and returns every number
// its bench/ program prints, plus the series and matrices its charts draw.
// The programs only print these structs; tests/analysis/experiments_test
// pins them. RunAndEvaluate is the one detector-evaluation loop under every
// fig/ablation program. Not in bagcpd.h: applications do not need the
// paper's experiment configurations.

#ifndef BAGCPD_ANALYSIS_EXPERIMENTS_H_
#define BAGCPD_ANALYSIS_EXPERIMENTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bagcpd/analysis/metrics.h"
#include "bagcpd/common/matrix.h"
#include "bagcpd/common/point.h"
#include "bagcpd/common/result.h"
#include "bagcpd/core/bootstrap.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/graph/features.h"

namespace bagcpd {

class ThreadPool;

/// \brief One detector run: its steps, AlarmTimes(steps), and those alarms
/// evaluated against the stream's change points.
struct DetectorRun {
  std::vector<StepResult> steps;
  std::vector<std::uint64_t> alarms;
  DetectionReport report;
};

/// \brief Create -> Run -> AlarmTimes -> EvaluateAlarms(alarms,
/// change_points, tolerance), with the metric conventions of Niu, Hao &
/// Zhang (arXiv 1512.04093): tolerance-matched recall and precision, and
/// detection delay. Fails with the detector's status.
Result<DetectorRun> RunAndEvaluate(
    const DetectorOptions& options, const BagSequence& bags,
    const std::vector<std::size_t>& change_points, std::size_t tolerance);

/// \brief Detector output as chart series, index-aligned with the stream:
/// the warm-up prefix repeats the first computed step, and a NaN CI
/// endpoint (CIs off) shows as the score.
struct ResultSeries {
  std::vector<double> score;
  std::vector<double> lo;
  std::vector<double> up;
  std::vector<std::uint64_t> alarms;
};

ResultSeries SliceResults(const std::vector<StepResult>& steps,
                          std::size_t stream_length);

/// \brief Fig. 6: CI behaviour on the five synthetic datasets of Section 5.1,
/// with the three panels of each: pairwise EMDs of the bags' signatures,
/// their 2-d MDS embedding, and the score with its CI band (run evaluated
/// with tolerance 1).
struct Fig06Dataset {
  int index = 0;
  std::string description;
  bool expects_alarm = false;
  std::vector<std::size_t> change_points;
  Matrix emd;
  Matrix mds;
  ResultSeries series;
  DetectorRun run;
  double mean_ci_width = 0.0;
};

struct Fig06Result {
  std::vector<Fig06Dataset> datasets;
};

/// \brief The EMD matrices are solved over `pool` (nullptr: on the calling
/// thread); the result is bitwise the same for any pool.
Result<Fig06Result> RunFig06(ThreadPool* pool);

/// \brief Table 1 / Fig. 7: activity transitions of three subjects on the
/// PAMAP-like simulator (runs evaluated with Fig07Result::tolerance).
struct Fig07Subject {
  int subject = 0;
  std::size_t bags = 0;
  double mean_bag_size = 0.0;
  std::vector<std::size_t> change_points;
  ResultSeries series;
  DetectorRun run;
  double mean_ci_width = 0.0;
};

struct Fig07Result {
  std::size_t tolerance = 0;  // In 10 s bags.
  std::vector<Fig07Subject> subjects;
};

Result<Fig07Result> RunFig07();

/// \brief Fig. 11: the ENRON-like email network, one detector per graph
/// feature (runs evaluated against the event weeks with tolerance 3).
struct Fig11Feature {
  GraphFeature feature = GraphFeature::kSourceDegree;
  DetectorRun run;
};

struct Fig11Event {
  std::size_t week = 0;
  std::string label;
  bool detected_by_graphscope = false;
  /// Alarms of any feature in weeks [first_week, last_week] count as hits.
  std::size_t first_week = 0;
  std::size_t last_week = 0;
  std::size_t hits = 0;
};

/// \brief Mean EMD of weeks [first_week, last_week] from the calm weeks.
struct Fig11Drift {
  std::size_t first_week = 0;
  std::size_t last_week = 0;
  double mean_emd = 0.0;
};

struct Fig11Result {
  std::vector<Fig11Feature> features;
  ResultSeries chart;  // Destination strength, with the event weeks marked.
  std::vector<std::size_t> event_weeks;
  std::vector<Fig11Event> events;
  std::size_t detected = 0;  // Events with hits.
  std::size_t graphscope_detected = 0;
  /// Destination strength's drift from the opening calm weeks, by quarter.
  std::size_t calm_weeks = 0;
  std::vector<Fig11Drift> drift;
};

/// \brief The drift table is solved over `pool` (nullptr: on the calling
/// thread); the result is bitwise the same for any pool.
Result<Fig11Result> RunFig11(ThreadPool* pool);

/// \brief Section 4.2: Bayesian vs standard bootstrap. Granularity counts
/// the distinct replicate scores (to 1e-12) of a fixed small window
/// (tau = 4, tau' = 3); behaviour sums runs over seeds on a Section 5.1
/// dataset (1: stationary, 4: one mean jump per seed).
struct BootstrapGranularity {
  BootstrapMethod method = BootstrapMethod::kBayesian;
  std::size_t distinct_scores = 0;
  double ci_width = 0.0;
};

struct BootstrapBehaviour {
  int dataset = 0;
  BootstrapMethod method = BootstrapMethod::kBayesian;
  std::size_t hits = 0;
  std::size_t expected_hits = 0;
  std::size_t false_alarms = 0;
  double mean_ci_width = 0.0;  // Mean over the seeds of each run's.
};

struct BootstrapAblationResult {
  int draws = 0;  // Replicate draws behind each granularity row.
  std::vector<BootstrapGranularity> granularity;
  std::vector<BootstrapBehaviour> behaviour;
};

Result<BootstrapAblationResult> RunBootstrapAblation();

}  // namespace bagcpd

#endif  // BAGCPD_ANALYSIS_EXPERIMENTS_H_

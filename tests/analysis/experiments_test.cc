// The paper's experiments as a contract. Each experiment of
// analysis/experiments.h runs once per binary, then two kinds of check apply:
//
//  * Shapes: the paper's claims (Section 5, Section 4.2). A deliberate change
//    of results must still pass these.
//  * Pins: every number the bench/ printers show, plus CI widths and series
//    sums, exactly. Counts are compared as integers and doubles bitwise
//    against hex-float literals. The literals were captured from the
//    fig06_confidence, fig07_pamap, fig11_enron and ablation_bootstrap
//    programs before they became printers over these functions. Moving a pin
//    on purpose means updating the literal and giving the before and after
//    values and the reason in CHANGES.md.

#include "bagcpd/analysis/experiments.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {
namespace {

using Alarms = std::vector<std::uint64_t>;

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

double Sum(const Matrix& m) {
  double sum = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) sum += m(i, j);
  }
  return sum;
}

template <typename T>
const T& Unwrap(const Result<T>& result) {
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ValueOrDie();
}

// ---------------------------------------------------------------------------
// RunAndEvaluate and SliceResults
// ---------------------------------------------------------------------------

TEST(RunAndEvaluate, FailsWithTheDetectorStatus) {
  DetectorOptions options;
  options.tau = 0;
  const Result<DetectorRun> run = RunAndEvaluate(options, {}, {}, 3);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status(), BagStreamDetector::Create(options).status());
}

TEST(SliceResults, PadsTheWarmUpPrefix) {
  std::vector<StepResult> steps(2);
  steps[0].time = 2;
  steps[0].score = 1.5;
  steps[0].ci_lo = 1.0;
  steps[0].ci_up = 2.0;
  steps[1].time = 3;
  steps[1].score = 4.0;  // CIs off: the band collapses onto the score.
  steps[1].alarm = true;
  const ResultSeries series = SliceResults(steps, 5);
  EXPECT_EQ(series.score, (std::vector<double>{1.5, 1.5, 1.5, 4.0, 0.0}));
  EXPECT_EQ(series.lo, (std::vector<double>{1.0, 1.0, 1.0, 4.0, 0.0}));
  EXPECT_EQ(series.up, (std::vector<double>{2.0, 2.0, 2.0, 4.0, 0.0}));
  EXPECT_EQ(series.alarms, (Alarms{3}));
}

// ---------------------------------------------------------------------------
// Fig. 6: CI behaviour on the five Section 5.1 datasets.
// ---------------------------------------------------------------------------

const Fig06Result& Fig06Run() {
  static ThreadPool pool(3);
  static const Result<Fig06Result> result = RunFig06(&pool);
  return Unwrap(result);
}

TEST(Fig06, Shape) {
  const Fig06Result& fig = Fig06Run();
  ASSERT_EQ(fig.datasets.size(), 5u);
  // Alarms fire only on dataset 4, the first within one step of the jump
  // (0-based t = 10, the paper's t = 11).
  for (const Fig06Dataset& ds : fig.datasets) {
    SCOPED_TRACE(ds.index);
    EXPECT_EQ(ds.expects_alarm, ds.index == 4);
    EXPECT_EQ(!ds.run.alarms.empty(), ds.index == 4);
  }
  const Fig06Dataset& jump = fig.datasets[3];
  ASSERT_EQ(jump.change_points, (std::vector<std::size_t>{10}));
  ASSERT_FALSE(jump.run.alarms.empty());
  EXPECT_LE(jump.run.alarms.front(), 11u);
  EXPECT_GE(jump.run.alarms.front(), 9u);
  // The stationary dataset 1 has the narrowest mean CI.
  for (std::size_t i = 1; i < fig.datasets.size(); ++i) {
    EXPECT_LT(fig.datasets[0].mean_ci_width, fig.datasets[i].mean_ci_width);
  }
}

TEST(Fig06, Pins) {
  struct Pin {
    Alarms alarms;
    double mean_ci_width;
    double emd_sum;
    double score_sum;
  };
  const Pin kPins[5] = {
      {{}, 0x1.95c35138b8dc6p-3, 0x1.f18c2ac825decp+11, -0x1.0d5e6231ed6cp-3},
      {{}, 0x1.42287ede8b2f4p-1, 0x1.5046293f4b4ccp+11, 0x1.441de21f368dcp+0},
      {{}, 0x1.61d5288281338p-1, 0x1.b1789de18e407p+9, 0x1.b3215610a9957p+2},
      {{10}, 0x1.20d1f97b6659fp+0, 0x1.43710b9ed121p+10, 0x1.8a83d6783ba19p+2},
      {{}, 0x1.635186ce339fp-1, 0x1.2ee3b22239925p+10, 0x1.c9f67d3d4e81ap+2},
  };
  const Fig06Result& fig = Fig06Run();
  ASSERT_EQ(fig.datasets.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const Fig06Dataset& ds = fig.datasets[i];
    SCOPED_TRACE(ds.index);
    EXPECT_EQ(ds.run.steps.size(), 11u);
    EXPECT_EQ(ds.run.alarms, kPins[i].alarms);
    EXPECT_EQ(ds.series.alarms, kPins[i].alarms);
    EXPECT_EQ(ds.mean_ci_width, kPins[i].mean_ci_width);
    EXPECT_EQ(Sum(ds.emd), kPins[i].emd_sum);
    EXPECT_EQ(Sum(ds.series.score), kPins[i].score_sum);
    EXPECT_EQ(ds.emd.rows(), 20u);
    EXPECT_EQ(ds.mds.rows(), 20u);
    EXPECT_EQ(ds.mds.cols(), 2u);
  }
}

TEST(Fig06, PanelsDoNotDependOnThePool) {
  const Result<Fig06Result> serial = RunFig06(nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status();
  const Fig06Result& pooled = Fig06Run();
  for (std::size_t i = 0; i < pooled.datasets.size(); ++i) {
    const Matrix& a = serial.ValueOrDie().datasets[i].emd;
    const Matrix& b = pooled.datasets[i].emd;
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t c = 0; c < a.cols(); ++c) EXPECT_EQ(a(r, c), b(r, c));
    }
  }
}

// ---------------------------------------------------------------------------
// Table 1 / Fig. 7: PAMAP-like activity transitions.
// ---------------------------------------------------------------------------

const Fig07Result& Fig07Run() {
  static const Result<Fig07Result> result = RunFig07();
  return Unwrap(result);
}

TEST(Fig07, Shape) {
  // Most transitions detected with few false alarms and little delay.
  const Fig07Result& fig = Fig07Run();
  ASSERT_EQ(fig.subjects.size(), 3u);
  for (const Fig07Subject& s : fig.subjects) {
    SCOPED_TRACE(s.subject);
    EXPECT_GE(s.run.report.recall, 0.6);
    EXPECT_GE(s.run.report.precision, 0.6);
    EXPECT_LE(s.run.report.mean_delay, 1.0);
  }
}

TEST(Fig07, Pins) {
  struct Pin {
    std::size_t bags;
    double mean_bag_size;
    Alarms alarms;
    std::size_t true_positives;
    std::size_t false_positives;
    double recall;
    double precision;
    double mean_delay;
    double mean_ci_width;
  };
  const Pin kPins[3] = {
      {249, 0x1.d748fef8cd9f6p+8,
       {53, 70, 89, 106, 130, 165, 181, 202, 217, 234}, 10, 0,
       0x1.89d89d89d89d9p-1, 0x1p+0, 0x0p+0, 0x1.fa55095df0441p-1},
      {232, 0x1.dc058469ee584p+8,
       {30, 70, 87, 112, 126, 145, 161, 177, 178, 197, 198}, 9, 2,
       0x1.6276276276276p-1, 0x1.a2e8ba2e8ba2fp-1, 0x0p+0,
       0x1.02a12a67cef64p+0},
      {274, 0x1.dfc612afa64e8p+8,
       {17, 58, 98, 116, 130, 154, 174, 197, 198, 237, 253, 254}, 8, 4,
       0x1.3b13b13b13b14p-1, 0x1.5555555555555p-1, 0x1p-3,
       0x1.f59c80e2006ep-1},
  };
  const Fig07Result& fig = Fig07Run();
  EXPECT_EQ(fig.tolerance, 4u);
  ASSERT_EQ(fig.subjects.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const Fig07Subject& s = fig.subjects[i];
    SCOPED_TRACE(s.subject);
    EXPECT_EQ(s.bags, kPins[i].bags);
    EXPECT_EQ(s.series.score.size(), kPins[i].bags);
    EXPECT_EQ(s.mean_bag_size, kPins[i].mean_bag_size);
    EXPECT_EQ(s.change_points.size(), 13u);
    EXPECT_EQ(s.run.alarms, kPins[i].alarms);
    EXPECT_EQ(s.run.report.true_positives, kPins[i].true_positives);
    EXPECT_EQ(s.run.report.false_positives, kPins[i].false_positives);
    EXPECT_EQ(s.run.report.recall, kPins[i].recall);
    EXPECT_EQ(s.run.report.precision, kPins[i].precision);
    EXPECT_EQ(s.run.report.mean_delay, kPins[i].mean_delay);
    EXPECT_EQ(s.mean_ci_width, kPins[i].mean_ci_width);
  }
}

// ---------------------------------------------------------------------------
// Fig. 11: the ENRON-like email network.
// ---------------------------------------------------------------------------

const Fig11Result& Fig11Run() {
  static ThreadPool pool(2);
  static const Result<Fig11Result> result = RunFig11(&pool);
  return Unwrap(result);
}

TEST(Fig11, Shape) {
  // Most scripted events detected.
  const Fig11Result& fig = Fig11Run();
  EXPECT_EQ(fig.events.size(), 8u);
  EXPECT_GE(fig.detected, 6u);
}

TEST(Fig11, Pins) {
  const Alarms kFeatureAlarms[7] = {
      {12},         {81, 82, 97},         {13, 82},
      {12, 82},     {30, 58, 74},         {13, 30, 58, 74, 92},
      {30, 58, 74, 86, 92},
  };
  struct EventPin {
    std::size_t week;
    std::size_t hits;
    bool graphscope;
  };
  const EventPin kEvents[8] = {{12, 4, true}, {30, 3, true}, {45, 0, false},
                               {58, 3, true}, {66, 0, true}, {74, 3, true},
                               {82, 4, true}, {92, 2, false}};
  const double kDrift[4] = {0x1.b136bfc46cc45p+2, 0x1.4394b6bd98ce3p+3,
                            0x1.d4632250ffe7dp+3, 0x1.49f8458a3db46p+4};

  const Fig11Result& fig = Fig11Run();
  ASSERT_EQ(fig.features.size(), 7u);
  for (std::size_t f = 0; f < 7; ++f) {
    SCOPED_TRACE(f + 1);
    EXPECT_EQ(static_cast<int>(fig.features[f].feature),
              static_cast<int>(f + 1));
    EXPECT_EQ(fig.features[f].run.alarms, kFeatureAlarms[f]);
  }
  EXPECT_EQ(fig.chart.alarms, kFeatureAlarms[5]);
  EXPECT_EQ(Sum(fig.chart.score), 0x1.835210e77f62cp+4);

  ASSERT_EQ(fig.events.size(), 8u);
  for (std::size_t e = 0; e < 8; ++e) {
    const Fig11Event& event = fig.events[e];
    SCOPED_TRACE(event.week);
    EXPECT_EQ(event.week, kEvents[e].week);
    EXPECT_EQ(fig.event_weeks[e], kEvents[e].week);
    EXPECT_EQ(event.first_week, kEvents[e].week - 1);
    EXPECT_EQ(event.last_week, kEvents[e].week + 3);
    EXPECT_EQ(event.hits, kEvents[e].hits);
    EXPECT_EQ(event.detected_by_graphscope, kEvents[e].graphscope);
  }
  EXPECT_EQ(fig.detected, 6u);  // Missed: weeks 45 and 66.
  EXPECT_EQ(fig.graphscope_detected, 6u);

  EXPECT_EQ(fig.calm_weeks, 20u);
  ASSERT_EQ(fig.drift.size(), 4u);
  for (std::size_t q = 0; q < 4; ++q) {
    SCOPED_TRACE(q);
    EXPECT_EQ(fig.drift[q].first_week, 25 * q);
    EXPECT_EQ(fig.drift[q].last_week, 25 * q + 24);
    EXPECT_EQ(fig.drift[q].mean_emd, kDrift[q]);
  }
}

// ---------------------------------------------------------------------------
// Section 4.2: Bayesian vs standard bootstrap.
// ---------------------------------------------------------------------------

const BootstrapAblationResult& BootstrapAblationRun() {
  static const Result<BootstrapAblationResult> result =
      RunBootstrapAblation();
  return Unwrap(result);
}

const BootstrapBehaviour& Behaviour(const BootstrapAblationResult& ablation,
                                    int dataset, BootstrapMethod method) {
  for (const BootstrapBehaviour& row : ablation.behaviour) {
    if (row.dataset == dataset && row.method == method) return row;
  }
  ADD_FAILURE() << "no row for ds" << dataset;
  return ablation.behaviour.front();
}

TEST(BootstrapAblation, Shape) {
  const BootstrapAblationResult& ablation = BootstrapAblationRun();
  ASSERT_EQ(ablation.granularity.size(), 2u);
  ASSERT_EQ(ablation.behaviour.size(), 4u);
  // The Bayesian bootstrap's replicate scores form a continuum where the
  // standard bootstrap's collapse onto few atoms.
  EXPECT_EQ(ablation.granularity[0].method, BootstrapMethod::kBayesian);
  EXPECT_EQ(ablation.granularity[1].method, BootstrapMethod::kStandard);
  EXPECT_GT(ablation.granularity[0].distinct_scores,
            ablation.granularity[1].distinct_scores);
  // Detection quality is comparable: every jump hit, at most one false
  // alarm on the jump dataset and none on the stationary one.
  for (BootstrapMethod method :
       {BootstrapMethod::kBayesian, BootstrapMethod::kStandard}) {
    const BootstrapBehaviour& jump = Behaviour(ablation, 4, method);
    EXPECT_EQ(jump.expected_hits, 10u);
    EXPECT_EQ(jump.hits, 10u);
    EXPECT_LE(jump.false_alarms, 1u);
    EXPECT_EQ(Behaviour(ablation, 1, method).false_alarms, 0u);
  }
}

TEST(BootstrapAblation, Pins) {
  const BootstrapAblationResult& ablation = BootstrapAblationRun();
  EXPECT_EQ(ablation.draws, 400);
  ASSERT_EQ(ablation.granularity.size(), 2u);
  EXPECT_EQ(ablation.granularity[0].distinct_scores, 400u);
  EXPECT_EQ(ablation.granularity[0].ci_width, 0x1.f9e772d3f5d4cp-3);
  EXPECT_EQ(ablation.granularity[1].distinct_scores, 33u);
  EXPECT_EQ(ablation.granularity[1].ci_width, 0x1.d999999999998p-2);

  struct Pin {
    int dataset;
    BootstrapMethod method;
    std::size_t hits;
    std::size_t expected_hits;
    std::size_t false_alarms;
    double mean_ci_width;
  };
  const Pin kPins[4] = {
      {1, BootstrapMethod::kBayesian, 0, 0, 0, 0x1.72ebee6926eb7p-3},
      {1, BootstrapMethod::kStandard, 0, 0, 0, 0x1.d37408fdad366p-3},
      {4, BootstrapMethod::kBayesian, 10, 10, 1, 0x1.22f6b97ec6c18p+0},
      {4, BootstrapMethod::kStandard, 10, 10, 0, 0x1.4501111845956p+0},
  };
  ASSERT_EQ(ablation.behaviour.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const BootstrapBehaviour& row = ablation.behaviour[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(row.dataset, kPins[i].dataset);
    EXPECT_EQ(row.method, kPins[i].method);
    EXPECT_EQ(row.hits, kPins[i].hits);
    EXPECT_EQ(row.expected_hits, kPins[i].expected_hits);
    EXPECT_EQ(row.false_alarms, kPins[i].false_alarms);
    EXPECT_EQ(row.mean_ci_width, kPins[i].mean_ci_width);
  }
}

}  // namespace
}  // namespace bagcpd

// Reproduces paper Fig. 1: the motivating example. A stream of ~300
// one-dimensional observations per step changes shape (1 -> 2 -> 3 Gaussian
// components) at t = 50 and t = 100 while the mean stays at zero.
//
//   (a) our detector consumes the bags directly and flags both changes;
//   (b) the sample-mean sequence carries no signal;
//   (c) ChangeFinder [8] and the kernel change detector [9], fed the
//       sample-mean sequence as in the paper, see nothing.
//
// Expected shape (paper): ours detects t = 50, 100; baselines' scores are
// unrelated to the change points.

#include <cstdio>
#include <iostream>

#include "bagcpd/analysis/ascii_plot.h"
#include "bagcpd/analysis/experiments.h"
#include "bagcpd/common/stats.h"
#include "bagcpd/baselines/changefinder.h"
#include "bagcpd/baselines/kcd.h"
#include "bagcpd/baselines/mean_reduction.h"
#include "bagcpd/data/fig1.h"
#include "bagcpd/io/table.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

// Peak contrast: mean over change points of (max score within +-2 steps of
// the change) / (95th percentile of the background scores). A method whose
// score peaks align with the changes scores >> 1; a method whose peaks are
// unrelated to the changes (the paper's point about the baselines) sits
// near or below 1.
double PeakContrast(const std::vector<double>& scores,
                    const std::vector<std::size_t>& change_points) {
  std::vector<double> background;
  for (std::size_t t = 0; t < scores.size(); ++t) {
    bool near = false;
    for (std::size_t cp : change_points) {
      if (t + 5 >= cp && t <= cp + 5) near = true;
    }
    if (!near) background.push_back(scores[t]);
  }
  const double floor = Quantile(background, 0.95).ValueOr(1.0);
  double contrast = 0.0;
  for (std::size_t cp : change_points) {
    double peak = -1e30;
    for (std::size_t t = (cp >= 2 ? cp - 2 : 0);
         t <= cp + 2 && t < scores.size(); ++t) {
      peak = std::max(peak, scores[t]);
    }
    contrast += peak / (std::abs(floor) > 1e-9 ? floor : 1.0);
  }
  return contrast / static_cast<double>(change_points.size());
}

int Main() {
  bench::PrintHeader(
      "Figure 1 — motivating example (1 -> 2 -> 3 Gaussian mixture)",
      "150 steps, ~300 instances each; changes planted at t = 50, 100.\n"
      "Ours runs on the bags; baselines run on the sample-mean sequence.");

  Fig1Options data_options;
  data_options.seed = 20260610;
  data_options.phase_length = 50;
  data_options.bag_size_rate = 300.0;
  LabeledBagSequence stream =
      bench::Unwrap(MakeFig1Stream(data_options), "fig1 data");

  // --- (a) our detector on the bags (defaults: KL, tau = tau' = 5). ---
  DetectorOptions options;
  options.bootstrap.replicates = 300;
  options.seed = 1;
  const DetectorRun ours = bench::Unwrap(
      RunAndEvaluate(options, stream.bags, stream.change_points, 5),
      "detector");
  const ResultSeries series = SliceResults(ours.steps, stream.bags.size());

  std::printf("(a) bag-of-data detector (scoreKL, tau = tau' = 5):\n");
  std::printf("%s\n",
              RenderLineChart(series.score, series.lo, series.up,
                              series.alarms, stream.change_points)
                  .c_str());

  // --- (b) the sample-mean sequence. ---
  std::vector<Point> means =
      bench::Unwrap(ReduceBags(stream.bags), "mean reduction");
  std::vector<double> mean_series;
  for (const Point& m : means) mean_series.push_back(m[0]);
  std::printf("(b) sample-mean sequence (the changes are invisible):\n");
  std::printf("%s\n", RenderLineChart(mean_series, {}, {}, {},
                                      stream.change_points)
                          .c_str());

  // --- (c) baselines on the sample means. ---
  ChangeFinderOptions cf_options;
  cf_options.sdar.order = 2;
  cf_options.sdar.discount = 0.05;
  cf_options.smoothing_window = 5;
  ChangeFinder cf(1, cf_options);
  std::vector<double> cf_scores = bench::Unwrap(cf.Run(means), "ChangeFinder");

  KcdOptions kcd_options;
  kcd_options.window = 25;
  std::vector<double> kcd_scores =
      bench::Unwrap(RunKcd(means, kcd_options), "KCD");

  std::printf("(c) ChangeFinder [8] on the means:\n%s\n",
              RenderLineChart(cf_scores, {}, {}, {}, stream.change_points)
                  .c_str());
  std::printf("    KCD [9] on the means:\n%s\n",
              RenderLineChart(kcd_scores, {}, {}, {}, stream.change_points)
                  .c_str());

  // --- Quantitative comparison. ---
  TablePrinter table({"method", "input", "peak contrast @cp", "alarms",
                      "hits"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f",
                PeakContrast(series.score, stream.change_points));
  table.AddRow({"bagcpd (KL)", "bags", buf,
                std::to_string(series.alarms.size()),
                std::to_string(ours.report.true_positives) + "/2"});
  std::snprintf(buf, sizeof(buf), "%.2f",
                PeakContrast(cf_scores, stream.change_points));
  table.AddRow({"ChangeFinder [8]", "means", buf, "-", "-"});
  std::snprintf(buf, sizeof(buf), "%.2f",
                PeakContrast(kcd_scores, stream.change_points));
  table.AddRow({"KCD [9]", "means", buf, "-", "-"});
  table.Print(std::cout);

  std::printf(
      "\nshape check: ours should hit both changes with peak contrast >> 1;\n"
      "the baselines on means should sit near 1 (their peaks are unrelated\n"
      "to the change points), as in the paper.\n");
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main() { return bagcpd::Main(); }

// Reproduces paper Fig. 11: the ENRON case study, on the event-driven email
// network simulator (the corpus itself is not available offline; DESIGN.md
// section 3 documents the substitution). Weekly bipartite graphs, 5-week
// reference / 3-week test windows, the same seven features, scoreKL.
//
// Expected shape (paper): the change-point scores coincide with most of the
// scripted events; our detector catches events comparable to (and some beyond)
// the GraphScope-detected column.

#include <cstdio>
#include <iostream>

#include "bagcpd/analysis/ascii_plot.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/emd/emd.h"
#include "bagcpd/graph/enron_simulator.h"
#include "bagcpd/graph/features.h"
#include "bagcpd/io/table.h"
#include "bagcpd/runtime/thread_pool.h"
#include "bagcpd/signature/builder.h"
#include "bagcpd/signature/signature_set.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

int Main() {
  bench::PrintHeader(
      "Figure 11 — ENRON-like email network case study (Sec. 5.4)",
      "100 weekly graphs, tau = 5 weeks, tau' = 3 weeks, 7 features.\n"
      "Event-driven simulator replaces the (offline-unavailable) corpus.");

  EnronSimulatorOptions sim;
  sim.seed = 2002;
  sim.weeks = 100;
  sim.node_rate = 50.0;
  sim.edge_density = 0.25;
  EnronStream stream =
      bench::Unwrap(SimulateEnronStream(sim), "enron simulator");

  // Run the detector per feature; remember alarms and one score series for
  // the chart (destination strength tracks the crisis cascade best).
  std::vector<std::vector<std::uint64_t>> alarms_per_feature;
  bench::ResultSeries chart_series;
  std::vector<std::size_t> event_weeks;
  for (const EnronEvent& e : stream.events) event_weeks.push_back(e.week);

  for (GraphFeature feature : AllGraphFeatures()) {
    BagSequence bags;
    for (const BipartiteGraph& g : stream.weekly_graphs) {
      bags.push_back(bench::Unwrap(ExtractGraphFeature(g, feature), "feature"));
    }
    DetectorOptions options;
    options.tau = 5;
    options.tau_prime = 3;
    options.bootstrap.replicates = 200;
    options.signature.method = SignatureMethod::kKMeans;
    options.signature.k = 8;
    options.seed = 110 + static_cast<std::uint64_t>(feature);
    auto detector =
        bench::Unwrap(BagStreamDetector::Create(options), "detector");
    std::vector<StepResult> results =
        bench::Unwrap(detector->Run(bags), "detector");
    alarms_per_feature.push_back(AlarmTimes(results));
    if (feature == GraphFeature::kDestinationStrength) {
      chart_series = bench::Slice(results, bags.size());
    }
    std::printf("feature %d (%-26s): %zu alarms\n", static_cast<int>(feature),
                GraphFeatureName(feature), alarms_per_feature.back().size());
  }

  std::printf("\nweekly scoreKL for feature 6 (destination strength), ':' = "
              "scripted events:\n%s\n",
              RenderLineChart(chart_series.score, chart_series.lo,
                              chart_series.up, chart_series.alarms,
                              event_weeks)
                  .c_str());

  // The Fig. 11 event table: ours vs the GraphScope column.
  TablePrinter table({"week", "ours", "GraphScope[22]", "event"});
  std::size_t ours_detected = 0;
  std::size_t graphscope_detected = 0;
  for (const EnronEvent& event : stream.events) {
    bool detected = false;
    for (const auto& alarms : alarms_per_feature) {
      for (std::uint64_t a : alarms) {
        if (a + 1 >= event.week && a <= event.week + 3) detected = true;
      }
    }
    if (detected) ++ours_detected;
    if (event.detected_by_graphscope) ++graphscope_detected;
    table.AddRow({std::to_string(event.week), detected ? "X" : "",
                  event.detected_by_graphscope ? "X" : "", event.label});
  }
  table.Print(std::cout);

  // Batch drift profile over the parallel CrossDistanceMatrix: distance of
  // every week's destination-strength signature from the calm opening weeks,
  // averaged per quarter of the stream. The pooled fill is bitwise-identical
  // to the serial one (deterministic row chunking).
  {
    const std::size_t calm_weeks = 20;
    SignatureBuilderOptions sig_options;
    sig_options.method = SignatureMethod::kKMeans;
    sig_options.k = 8;
    sig_options.seed =
        110 + static_cast<std::uint64_t>(GraphFeature::kDestinationStrength);
    SignatureBuilder builder(sig_options);
    SignatureSet calm;
    SignatureSet all;
    for (std::size_t t = 0; t < stream.weekly_graphs.size(); ++t) {
      const Bag bag = bench::Unwrap(
          ExtractGraphFeature(stream.weekly_graphs[t],
                              GraphFeature::kDestinationStrength),
          "feature");
      const FlatBag flat = bench::Unwrap(FlatBag::FromBag(bag), "flatten");
      Signature sig =
          bench::Unwrap(builder.Build(flat.view(), t), "signature");
      if (t < calm_weeks) {
        bench::UnwrapStatus(calm.Append(sig), "append calm");
      }
      bench::UnwrapStatus(all.Append(sig), "append all");
    }
    ThreadPool pool(4);
    const Matrix drift = bench::Unwrap(
        CrossDistanceMatrix(calm, all, GroundDistance::kEuclidean, &pool),
        "drift table");
    std::printf("\ndrift from the calm opening %zu weeks (mean EMD per "
                "quarter, feature 6):\n",
                calm_weeks);
    const std::size_t weeks = all.size();
    for (std::size_t quarter = 0; quarter < 4; ++quarter) {
      const std::size_t begin = quarter * weeks / 4;
      const std::size_t end = (quarter + 1) * weeks / 4;
      double sum = 0.0;
      for (std::size_t i = 0; i < drift.rows(); ++i) {
        for (std::size_t j = begin; j < end; ++j) sum += drift(i, j);
      }
      std::printf("  weeks %3zu-%3zu: %.3f\n", begin, end - 1,
                  sum / static_cast<double>(drift.rows() * (end - begin)));
    }
  }

  std::printf(
      "\nours: %zu/%zu events; GraphScope-style reference column: %zu/%zu.\n"
      "shape check (paper): we detect most events including some the\n"
      "GraphScope column misses.\n",
      ours_detected, stream.events.size(), graphscope_detected,
      stream.events.size());
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main() { return bagcpd::Main(); }

// Reproduces paper Fig. 10: change detection on synthetic bipartite-graph
// streams (datasets 1-4 of Section 5.3) using the seven node/edge features.
// Scale note: the paper uses n_s, n_d ~ Poisson(200) over 200/240 steps; this
// harness runs Poisson(60), density 0.5 and blocks of 10 (100/120 steps) so
// the whole figure regenerates in seconds. The SHAPE is preserved: strength
// features (5, 6) detect all changes including subtle early ones, degree
// features (1, 2) and edge weights (7) track most, and the second-degree
// features (3, 4) carry no signal because the generator has no
// source/destination correspondence.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bagcpd/analysis/ascii_plot.h"
#include "bagcpd/analysis/metrics.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/emd/emd.h"
#include "bagcpd/graph/features.h"
#include "bagcpd/graph/generators.h"
#include "bagcpd/io/table.h"
#include "bagcpd/runtime/thread_pool.h"
#include "bagcpd/signature/builder.h"
#include "bagcpd/signature/signature_set.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

int Main() {
  bench::PrintHeader(
      "Figure 10 — bipartite-graph streams, 7 features x 4 datasets (Sec. 5.3)",
      "reduced scale (nodes ~ Poisson(100), blocks of 10); shape-preserving.");

  BipartiteStreamOptions graph_options;
  graph_options.seed = 10;
  graph_options.node_rate = 100.0;
  graph_options.edge_density = 0.5;
  graph_options.length_scale = 0.5;  // Blocks of 10.
  std::vector<BipartiteStream> streams =
      bench::Unwrap(MakeAllBipartiteDatasets(graph_options), "datasets");

  for (const BipartiteStream& stream : streams) {
    std::printf("---- %s (%zu steps, changes at:", stream.name.c_str(),
                stream.graphs.size());
    for (std::size_t cp : stream.change_points) std::printf(" %zu", cp);
    std::printf(") ----\n");

    TablePrinter table({"feature", "alarms", "hits", "recall", "AUC@cp"});
    std::vector<std::uint64_t> union_alarms;
    for (GraphFeature feature : AllGraphFeatures()) {
      BagSequence bags;
      for (const BipartiteGraph& g : stream.graphs) {
        bags.push_back(
            bench::Unwrap(ExtractGraphFeature(g, feature), "feature"));
      }
      DetectorOptions options;
      options.tau = 5;
      options.tau_prime = 3;
      options.bootstrap.replicates = 200;
      options.signature.method = SignatureMethod::kKMeans;
      options.signature.k = 6;
      options.seed = 100 + static_cast<std::uint64_t>(feature);
      auto detector =
          bench::Unwrap(BagStreamDetector::Create(options), "detector");
      std::vector<StepResult> results =
          bench::Unwrap(detector->Run(bags), "detector");
      bench::ResultSeries series = bench::Slice(results, bags.size());

      union_alarms.insert(union_alarms.end(), series.alarms.begin(),
                          series.alarms.end());
      const DetectionReport report = EvaluateAlarms(
          series.alarms, stream.change_points, /*tolerance=*/5);
      char recall_buf[32], auc_buf[32];
      std::snprintf(recall_buf, sizeof(recall_buf), "%.2f", report.recall);
      const double auc = bench::NearChangeAuc(results, stream.change_points);
      std::snprintf(auc_buf, sizeof(auc_buf), "%.2f", auc);
      table.AddRow({std::string(GraphFeatureName(feature)),
                    std::to_string(series.alarms.size()),
                    std::to_string(report.true_positives) + "/" +
                        std::to_string(stream.change_points.size()),
                    recall_buf, auc_buf});

      // Chart the strength features — the paper's headline finding.
      if (feature == GraphFeature::kSourceStrength) {
        std::printf("feature 5 (source strength) score series:\n%s\n",
                    RenderLineChart(series.score, series.lo, series.up,
                                    series.alarms, stream.change_points)
                        .c_str());
      }
    }
    // The paper's Fig. 10 criterion: a change counts as detected if at least
    // one of the seven features alarms near it.
    std::sort(union_alarms.begin(), union_alarms.end());
    const DetectionReport union_report =
        EvaluateAlarms(union_alarms, stream.change_points, /*tolerance=*/5);
    char union_recall[32];
    std::snprintf(union_recall, sizeof(union_recall), "%.2f",
                  union_report.recall);
    table.AddRow({"UNION of features", std::to_string(union_alarms.size()),
                  std::to_string(union_report.true_positives) + "/" +
                      std::to_string(stream.change_points.size()),
                  union_recall, "-"});
    table.Print(std::cout);
    std::printf("\n");
  }

  // Batch cross-distance analysis over the parallel CrossDistanceMatrix: for
  // each dataset, quantize the source-strength feature of every step into a
  // shared SignatureSet and compare pre-change vs post-change blocks. The
  // pooled fill is bitwise-identical to the serial one (deterministic row
  // chunking), so this block is pure throughput.
  std::printf("batch check — EMD separation of the first change "
              "(feature 5, pooled CrossDistanceMatrix):\n");
  ThreadPool pool(4);
  for (const BipartiteStream& stream : streams) {
    if (stream.change_points.empty()) continue;
    const std::size_t cp = stream.change_points.front();
    SignatureBuilderOptions sig_options;
    sig_options.method = SignatureMethod::kKMeans;
    sig_options.k = 6;
    sig_options.seed = 100 + static_cast<std::uint64_t>(
                                 GraphFeature::kSourceStrength);
    SignatureBuilder builder(sig_options);
    SignatureSet before;
    SignatureSet after;
    for (std::size_t t = 0; t < stream.graphs.size(); ++t) {
      const Bag bag = bench::Unwrap(
          ExtractGraphFeature(stream.graphs[t],
                              GraphFeature::kSourceStrength),
          "feature");
      const FlatBag flat = bench::Unwrap(FlatBag::FromBag(bag), "flatten");
      Signature sig =
          bench::Unwrap(builder.Build(flat.view(), t), "signature");
      bench::UnwrapStatus((t < cp ? before : after).Append(sig), "append");
    }
    const Matrix within = bench::Unwrap(
        CrossDistanceMatrix(before, before, GroundDistance::kEuclidean,
                            &pool),
        "within table");
    const Matrix across = bench::Unwrap(
        CrossDistanceMatrix(before, after, GroundDistance::kEuclidean, &pool),
        "cross table");
    double within_sum = 0.0;
    std::size_t within_count = 0;
    for (std::size_t i = 0; i < within.rows(); ++i) {
      for (std::size_t j = 0; j < within.cols(); ++j) {
        if (i == j) continue;
        within_sum += within(i, j);
        ++within_count;
      }
    }
    double across_sum = 0.0;
    for (std::size_t i = 0; i < across.rows(); ++i) {
      for (std::size_t j = 0; j < across.cols(); ++j) {
        across_sum += across(i, j);
      }
    }
    const double within_mean =
        within_sum / static_cast<double>(std::max<std::size_t>(1,
                                                               within_count));
    const double across_mean =
        across_sum / static_cast<double>(across.rows() * across.cols());
    std::printf(
        "  %-12s mean EMD within pre-change %.3f, across change %.3f "
        "(separation %.2fx)\n",
        stream.name.c_str(), within_mean, across_mean,
        across_mean / within_mean);
  }

  std::printf(
      "\nshape check (paper Fig. 10): features 5 and 6 detect the changes in\n"
      "every dataset (even small early ones); features 3 and 4 do not work\n"
      "here since the data has no source/destination correspondence.\n");
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main() { return bagcpd::Main(); }

// Ablation: signature construction methods (Section 3.1). k-means is the
// paper's default; k-medoids and LVQ are the named alternatives; histograms
// are the "very simple way"; the single-centroid reduction is the strawman
// the paper argues against. Run all five on the Fig. 1 mixture-shape stream,
// where centroids provably carry no signal.

#include <chrono>
#include <cstdio>
#include <iostream>

#include "bagcpd/analysis/experiments.h"
#include "bagcpd/data/fig1.h"
#include "bagcpd/io/table.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

int Main() {
  bench::PrintHeader(
      "Ablation — signature methods (Sec. 3.1) on the Fig. 1 stream",
      "kmeans / kmedoids / lvq / histogram vs the centroid strawman.");

  Fig1Options data_options;
  data_options.seed = 900;
  data_options.phase_length = 25;
  data_options.bag_size_rate = 150.0;
  LabeledBagSequence stream =
      bench::Unwrap(MakeFig1Stream(data_options), "fig1 stream");

  TablePrinter table(
      {"method", "AUC@cp", "hits", "alarms", "runtime (ms)"});
  for (SignatureMethod method :
       {SignatureMethod::kKMeans, SignatureMethod::kKMedoids,
        SignatureMethod::kLvq, SignatureMethod::kHistogram,
        SignatureMethod::kCentroid}) {
    DetectorOptions options;
    options.bootstrap.replicates = 150;
    options.signature.method = method;
    options.seed = 91;
    const auto start = std::chrono::steady_clock::now();
    const DetectorRun run = bench::Unwrap(
        RunAndEvaluate(options, stream.bags, stream.change_points, 4),
        "detector");
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    const double auc = bench::NearChangeAuc(run.steps, stream.change_points);
    char auc_buf[32];
    std::snprintf(auc_buf, sizeof(auc_buf), "%.2f", auc);
    table.AddRow({SignatureMethodName(method), auc_buf,
                  std::to_string(run.report.true_positives) + "/2",
                  std::to_string(run.alarms.size()),
                  std::to_string(elapsed)});
  }
  table.Print(std::cout);
  std::printf(
      "\nreading: every genuine quantizer sees the shape changes (AUC near\n"
      "1); the centroid reduction cannot (AUC near 0.5) — the paper's core\n"
      "motivation. Histograms are fastest on 1-d data; kmedoids costs most.\n");
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main() { return bagcpd::Main(); }

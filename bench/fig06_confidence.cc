// Reproduces paper Fig. 6: behaviour of the bootstrap confidence intervals on
// the five synthetic datasets of Section 5.1. For each dataset it prints the
// three panels: the pairwise EMD matrix (left), the 2-d MDS embedding of the
// bags (center), and the change-point score with its 95% CI band and alarms
// (right), followed by the expected-vs-observed alarm summary.
//
// Expected shape (paper): no alarms on datasets 1-3 (stationary / noisy /
// drifting), an alarm near t = 11 on dataset 4 (mean jump), and no alarm on
// dataset 5 (the drift speed-up is too subtle) — with visibly wider CIs on
// datasets 2, 3 and 5.

#include <cstdio>
#include <iostream>

#include "bagcpd/analysis/ascii_plot.h"
#include "bagcpd/analysis/mds.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/ci_datasets.h"
#include "bagcpd/emd/emd.h"
#include "bagcpd/io/table.h"
#include "bagcpd/runtime/thread_pool.h"
#include "bagcpd/signature/signature_set.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

int Main() {
  bench::PrintHeader(
      "Figure 6 — confidence-interval behaviour on datasets 1-5 (Sec. 5.1)",
      "20 bags of 2-d Gaussians, n_t ~ Poisson(50), tau = tau' = 5, 95% CI.");

  CiDatasetOptions data_options;
  data_options.seed = 6;
  std::vector<LabeledBagSequence> datasets =
      bench::Unwrap(MakeAllCiDatasets(data_options), "ci datasets");

  // The batch EMD matrices below solve all C(20, 2) transportation problems
  // over this pool; the parallel overload is bitwise-identical to the serial
  // one, so the panels do not depend on the host's core count.
  ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));

  TablePrinter summary({"dataset", "description", "expected", "alarms",
                        "mean CI width"});

  const char* descriptions[5] = {
      "large variance, stationary", "80/20 background noise",
      "gradual circular drift", "mean jump at t=11", "drift speed-up at t=11"};

  for (int index = 1; index <= 5; ++index) {
    const LabeledBagSequence& ds = datasets[static_cast<std::size_t>(index - 1)];
    std::printf("---- dataset %d: %s ----\n", index,
                descriptions[index - 1]);

    // Signatures for the panel plots (same builder the detector uses).
    SignatureBuilderOptions sig_options;
    sig_options.method = SignatureMethod::kKMeans;
    sig_options.k = 8;
    sig_options.seed = 60;
    SignatureBuilder builder(sig_options);
    // One shared-buffer SignatureSet for the whole sequence: the batch EMD
    // matrix walks every signature back to back through the cache.
    SignatureSet signatures;
    for (std::size_t t = 0; t < ds.bags.size(); ++t) {
      const FlatBag bag =
          bench::Unwrap(FlatBag::FromBag(ds.bags[t]), "flatten");
      const Signature sig =
          bench::Unwrap(builder.Build(bag.view(), t), "signature");
      bench::UnwrapStatus(signatures.Append(sig), "append signature");
    }
    Matrix emd = bench::Unwrap(
        PairwiseEmdMatrix(signatures, GroundDistance::kEuclidean, &pool),
        "emd matrix");
    std::printf("left panel: pairwise EMD between bags (dark = far)\n%s\n",
                RenderHeatMap(emd).c_str());
    MdsEmbedding mds = bench::Unwrap(ClassicalMds(emd, 2), "mds");
    std::printf("center panel: bags embedded in 2-d by classical MDS\n%s\n",
                RenderScatter2d(mds.coordinates).c_str());

    DetectorOptions options;
    options.tau = 5;
    options.tau_prime = 5;
    options.bootstrap.replicates = 400;
    options.bootstrap.alpha = 0.05;
    options.signature = sig_options;
    options.seed = 61;
    auto detector_owner =
        bench::Unwrap(BagStreamDetector::Create(options), "create");
    BagStreamDetector& detector = *detector_owner;
    std::vector<StepResult> results =
        bench::Unwrap(detector.Run(ds.bags), "detector");
    bench::ResultSeries series = bench::Slice(results, ds.bags.size());
    std::printf("right panel: change-point score with 95%% CI and alarms\n%s\n",
                RenderLineChart(series.score, series.lo, series.up,
                                series.alarms, ds.change_points)
                    .c_str());

    double width = 0.0;
    for (const StepResult& r : results) width += r.ci_up - r.ci_lo;
    width /= static_cast<double>(results.size());
    char width_buf[32];
    std::snprintf(width_buf, sizeof(width_buf), "%.3f", width);
    summary.AddRow({std::to_string(index), descriptions[index - 1],
                    CiDatasetHasDetectableChange(index) ? "alarm @ t=10"
                                                        : "no alarm",
                    series.alarms.empty()
                        ? "none"
                        : "t=" + std::to_string(series.alarms.front()),
                    width_buf});
  }

  std::printf("summary (paper: alarms only on dataset 4; wider CIs on 2/3/5):\n");
  summary.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main() { return bagcpd::Main(); }

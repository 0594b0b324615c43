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
#include "bagcpd/analysis/experiments.h"
#include "bagcpd/io/table.h"
#include "bagcpd/runtime/thread_pool.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

int Main() {
  bench::PrintHeader(
      "Figure 6 — confidence-interval behaviour on datasets 1-5 (Sec. 5.1)",
      "20 bags of 2-d Gaussians, n_t ~ Poisson(50), tau = tau' = 5, 95% CI.");

  // The EMD panels solve over this pool, bitwise the same for any pool size,
  // so they do not depend on the host's core count.
  ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  const Fig06Result fig = bench::Unwrap(RunFig06(&pool), "fig06");

  TablePrinter summary({"dataset", "description", "expected", "alarms",
                        "mean CI width"});
  for (const Fig06Dataset& ds : fig.datasets) {
    std::printf("---- dataset %d: %s ----\n", ds.index, ds.description.c_str());
    std::printf("left panel: pairwise EMD between bags (dark = far)\n%s\n",
                RenderHeatMap(ds.emd).c_str());
    std::printf("center panel: bags embedded in 2-d by classical MDS\n%s\n",
                RenderScatter2d(ds.mds).c_str());
    std::printf("right panel: change-point score with 95%% CI and alarms\n%s\n",
                RenderLineChart(ds.series.score, ds.series.lo, ds.series.up,
                                ds.series.alarms, ds.change_points)
                    .c_str());
    char width_buf[32];
    std::snprintf(width_buf, sizeof(width_buf), "%.3f", ds.mean_ci_width);
    summary.AddRow({std::to_string(ds.index), ds.description,
                    ds.expects_alarm ? "alarm @ t=10" : "no alarm",
                    ds.run.alarms.empty()
                        ? "none"
                        : "t=" + std::to_string(ds.run.alarms.front()),
                    width_buf});
  }

  std::printf("summary (paper: alarms only on dataset 4; wider CIs on 2/3/5):\n");
  summary.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main() { return bagcpd::Main(); }

// Ablation: Bayesian vs standard bootstrap for the per-step confidence
// intervals (Section 4.2). The paper's argument for the Bayesian bootstrap is
// smoothness with small windows: the standard bootstrap's replicate scores
// collapse onto few atoms when tau' is small, making quantile CIs coarse.

#include <cstdio>
#include <iostream>

#include "bagcpd/analysis/experiments.h"
#include "bagcpd/io/table.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

int Main() {
  bench::PrintHeader(
      "Ablation — Bayesian vs standard bootstrap CIs (Sec. 4.2)",
      "replicate-distribution granularity and end-to-end alarm behaviour.");

  const BootstrapAblationResult ablation =
      bench::Unwrap(RunBootstrapAblation(), "bootstrap ablation");

  // 1) Replicate granularity at a fixed inspection point with small windows.
  TablePrinter granularity(
      {"method",
       "distinct replicate scores / " + std::to_string(ablation.draws),
       "CI width"});
  for (const BootstrapGranularity& row : ablation.granularity) {
    char width_buf[32];
    std::snprintf(width_buf, sizeof(width_buf), "%.4f", row.ci_width);
    granularity.AddRow({BootstrapMethodName(row.method),
                        std::to_string(row.distinct_scores), width_buf});
  }
  granularity.Print(std::cout);

  // 2) End-to-end alarm behaviour across seeds.
  std::printf("\nend-to-end on Section 5.1 datasets (tau = tau' = 5):\n");
  TablePrinter behaviour({"dataset", "method", "hit rate", "false alarms"});
  for (const BootstrapBehaviour& row : ablation.behaviour) {
    behaviour.AddRow({"ds" + std::to_string(row.dataset),
                      BootstrapMethodName(row.method),
                      std::to_string(row.hits) + "/" +
                          std::to_string(row.expected_hits),
                      std::to_string(row.false_alarms)});
  }
  behaviour.Print(std::cout);
  std::printf(
      "\nreading (Sec. 4.2): the Bayesian bootstrap yields a continuum of\n"
      "replicate scores even with 7 window elements, where the standard\n"
      "bootstrap collapses to few atoms; detection quality is comparable,\n"
      "smoothness is the differentiator.\n");
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main() { return bagcpd::Main(); }

// Reproduces paper Table 1 and Fig. 7: activity-transition detection on the
// PAMAP-like simulator (the offline stand-in for the PAMAP2 dataset; see
// DESIGN.md section 3). Three subjects perform the 14-entry protocol; sensor
// streams are cut into 10 s bags and the detector flags activity changes.
//
// Expected shape (paper): change points detected "with plausible accuracy" —
// most transitions raise alarms near the boundary, scores rise at every
// transition, and no alarms fire where the score merely oscillates.

#include <cstdio>
#include <iostream>

#include "bagcpd/analysis/ascii_plot.h"
#include "bagcpd/analysis/experiments.h"
#include "bagcpd/data/pamap_simulator.h"
#include "bagcpd/io/table.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

int Main() {
  bench::PrintHeader(
      "Table 1 / Figure 7 — PAMAP-like activity monitoring (Sec. 5.2)",
      "3 simulated subjects, 10 s bags, tau = tau' = 5. Simulator replaces\n"
      "the (offline-unavailable) PAMAP2 recordings; see DESIGN.md.");

  // Table 1: activities and their IDs.
  TablePrinter activities({"Activity", "ID", "Activity", "ID"});
  const auto& table = PamapActivityTable();
  for (std::size_t i = 0; i < 6; ++i) {
    activities.AddRow({table[i].name, std::to_string(table[i].id),
                       table[i + 6].name, std::to_string(table[i + 6].id)});
  }
  std::printf("Table 1 — activities and their IDs:\n");
  activities.Print(std::cout);
  std::printf("\nprotocol order per subject: ");
  for (int id : PamapProtocolOrder()) std::printf("%d ", id);
  std::printf("\n\n");

  const Fig07Result fig = bench::Unwrap(RunFig07(), "fig07");
  TablePrinter summary({"subject", "bags", "avg bag size", "transitions",
                        "alarms", "recall", "precision", "mean delay"});
  for (const Fig07Subject& s : fig.subjects) {
    std::printf("subject %d — score with alarms (':' = true transition):\n%s\n",
                s.subject,
                RenderLineChart(s.series.score, s.series.lo, s.series.up,
                                s.series.alarms, s.change_points)
                    .c_str());
    char recall_buf[32], precision_buf[32], delay_buf[32], avg_buf[32];
    std::snprintf(recall_buf, sizeof(recall_buf), "%.2f", s.run.report.recall);
    std::snprintf(precision_buf, sizeof(precision_buf), "%.2f",
                  s.run.report.precision);
    std::snprintf(delay_buf, sizeof(delay_buf), "%.1f",
                  s.run.report.mean_delay);
    std::snprintf(avg_buf, sizeof(avg_buf), "%.0f", s.mean_bag_size);
    summary.AddRow({std::to_string(s.subject),
                    std::to_string(s.bags), avg_buf,
                    std::to_string(s.change_points.size()),
                    std::to_string(s.run.alarms.size()), recall_buf,
                    precision_buf, delay_buf});
  }

  std::printf("per-subject detection summary (tolerance %zu bags = %zu s):\n",
              fig.tolerance, fig.tolerance * 10);
  summary.Print(std::cout);
  std::printf(
      "\nshape check (paper): most transitions detected, scores rise at all\n"
      "of them, and rapid score oscillation does not trigger alarms.\n");
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main() { return bagcpd::Main(); }

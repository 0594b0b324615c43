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
#include "bagcpd/analysis/experiments.h"
#include "bagcpd/io/table.h"
#include "bagcpd/runtime/thread_pool.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

int Main() {
  bench::PrintHeader(
      "Figure 11 — ENRON-like email network case study (Sec. 5.4)",
      "100 weekly graphs, tau = 5 weeks, tau' = 3 weeks, 7 features.\n"
      "Event-driven simulator replaces the (offline-unavailable) corpus.");

  // The drift table solves over this pool, bitwise the same for any size.
  ThreadPool pool(4);
  const Fig11Result fig = bench::Unwrap(RunFig11(&pool), "fig11");

  for (const Fig11Feature& f : fig.features) {
    std::printf("feature %d (%-26s): %zu alarms\n", static_cast<int>(f.feature),
                GraphFeatureName(f.feature), f.run.alarms.size());
  }

  std::printf("\nweekly scoreKL for feature 6 (destination strength), ':' = "
              "scripted events:\n%s\n",
              RenderLineChart(fig.chart.score, fig.chart.lo, fig.chart.up,
                              fig.chart.alarms, fig.event_weeks)
                  .c_str());

  // The Fig. 11 event table: ours vs the GraphScope column.
  TablePrinter table({"week", "ours", "GraphScope[22]", "event"});
  for (const Fig11Event& event : fig.events) {
    table.AddRow({std::to_string(event.week), event.hits > 0 ? "X" : "",
                  event.detected_by_graphscope ? "X" : "", event.label});
  }
  table.Print(std::cout);

  std::printf("\ndrift from the calm opening %zu weeks (mean EMD per "
              "quarter, feature 6):\n",
              fig.calm_weeks);
  for (const Fig11Drift& quarter : fig.drift) {
    std::printf("  weeks %3zu-%3zu: %.3f\n", quarter.first_week,
                quarter.last_week, quarter.mean_emd);
  }

  std::printf(
      "\nours: %zu/%zu events; GraphScope-style reference column: %zu/%zu.\n"
      "shape check (paper): we detect most events including some the\n"
      "GraphScope column misses.\n",
      fig.detected, fig.events.size(), fig.graphscope_detected,
      fig.events.size());
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main() { return bagcpd::Main(); }

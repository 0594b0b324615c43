// Ablation: uniform window weights (the paper's experimental setting) versus
// the Eq. 15 hyperbolic discounting toward the inspection point. Discounting
// emphasizes the bags adjacent to t, which sharpens reaction to abrupt jumps
// but increases variance (effective sample size shrinks).

#include <cstdio>
#include <iostream>

#include "bagcpd/analysis/experiments.h"
#include "bagcpd/data/ci_datasets.h"
#include "bagcpd/io/table.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

int Main() {
  bench::PrintHeader(
      "Ablation — uniform vs discounted window weights (Eq. 15)",
      "Section 5.1 datasets 3 (drift), 4 (jump) and 1 (stationary), 10 seeds.");

  TablePrinter table({"dataset", "weights", "alarm rate", "hit rate",
                      "false alarms/run", "mean |score|"});

  for (int index : {1, 3, 4}) {
    for (WeightScheme scheme :
         {WeightScheme::kUniform, WeightScheme::kDiscounted}) {
      int runs_with_alarm = 0;
      int hits = 0;
      double false_alarms = 0.0;
      double mean_abs_score = 0.0;
      std::size_t score_count = 0;
      const int kSeeds = 10;
      for (int seed = 0; seed < kSeeds; ++seed) {
        CiDatasetOptions data_options;
        data_options.seed = 300 + static_cast<std::uint64_t>(seed);
        LabeledBagSequence ds =
            bench::Unwrap(MakeCiDataset(index, data_options), "dataset");
        DetectorOptions options;
        options.weight_scheme = scheme;
        options.seed = static_cast<std::uint64_t>(seed);
        const DetectorRun run = bench::Unwrap(
            RunAndEvaluate(options, ds.bags, ds.change_points, 3),
            "detector");
        if (!run.alarms.empty()) ++runs_with_alarm;
        hits += static_cast<int>(run.report.true_positives);
        false_alarms += static_cast<double>(run.report.false_positives);
        for (const StepResult& r : run.steps) {
          mean_abs_score += std::abs(r.score);
          ++score_count;
        }
      }
      char rate_buf[32], hit_buf[32], fa_buf[32], score_buf[32];
      std::snprintf(rate_buf, sizeof(rate_buf), "%d/%d", runs_with_alarm,
                    kSeeds);
      std::snprintf(hit_buf, sizeof(hit_buf), "%d/%d", hits,
                    index == 4 ? kSeeds : 0);
      std::snprintf(fa_buf, sizeof(fa_buf), "%.1f", false_alarms / kSeeds);
      std::snprintf(score_buf, sizeof(score_buf), "%.3f",
                    mean_abs_score / static_cast<double>(score_count));
      table.AddRow({"ds" + std::to_string(index), WeightSchemeName(scheme),
                    rate_buf, hit_buf, fa_buf, score_buf});
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nreading: both schemes must stay quiet on ds1/ds3 and fire on ds4;\n"
      "discounting trades a sharper jump response for noisier scores.\n");
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main() { return bagcpd::Main(); }

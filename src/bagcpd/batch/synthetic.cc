#include "bagcpd/batch/synthetic.h"

#include <cstdio>

#include "bagcpd/common/rng.h"

namespace bagcpd {

Status ValidateBatchSeriesSpec(const BatchSeriesSpec& spec) {
  if (spec.num_groups < 1) {
    return Status::Invalid("num_groups must be >= 1");
  }
  if (spec.steps_per_group < 1) {
    return Status::Invalid("steps_per_group must be >= 1");
  }
  if (spec.points_per_step < 1) {
    return Status::Invalid("points_per_step must be >= 1");
  }
  if (spec.dim < 1) {
    return Status::Invalid("dim must be >= 1");
  }
  if (spec.change_fraction < 0.0 || spec.change_fraction > 1.0) {
    return Status::Invalid("change_fraction must be in [0, 1]");
  }
  return Status::OK();
}

Result<BatchSeriesRows> GenerateBatchSeriesRows(const BatchSeriesSpec& spec) {
  BAGCPD_RETURN_NOT_OK(ValidateBatchSeriesSpec(spec));
  BatchSeriesRows rows;
  rows.dim = spec.dim;
  rows.keys.reserve(spec.num_groups);
  const std::size_t total_rows =
      spec.num_groups * spec.steps_per_group * spec.points_per_step;
  rows.group.reserve(total_rows);
  rows.timestamp.reserve(total_rows);
  rows.values.reserve(total_rows * spec.dim);

  char name[32];
  for (std::size_t g = 0; g < spec.num_groups; ++g) {
    std::snprintf(name, sizeof(name), "series-%06zu", g);
    rows.keys.emplace_back(name);
  }
  // Which series change: every round(1/fraction)-th one, so the set is a
  // pure function of (num_groups, change_fraction), never of the RNG.
  const std::size_t change_every =
      spec.change_fraction > 0.0
          ? static_cast<std::size_t>(1.0 / spec.change_fraction + 0.5)
          : 0;
  const std::size_t change_step = spec.steps_per_group / 2;

  // One RNG fork per series, keyed by the group index: series g draws the
  // same values whatever the corpus size or emission order around it.
  const Rng root(spec.seed);
  std::vector<Rng> per_group;
  per_group.reserve(spec.num_groups);
  for (std::size_t g = 0; g < spec.num_groups; ++g) {
    per_group.push_back(root.Fork(g));
  }

  // Time-major emission: all series at step t before any series at t + 1 —
  // the "unsorted" interleaved order a log-structured source would produce,
  // which BatchTableBuilder must sort back into per-key runs.
  for (std::size_t t = 0; t < spec.steps_per_group; ++t) {
    for (std::size_t g = 0; g < spec.num_groups; ++g) {
      const bool changes = change_every > 0 && g % change_every == 0;
      const double mean =
          (changes && t >= change_step) ? spec.drift : 0.0;
      Rng& rng = per_group[g];
      for (std::size_t p = 0; p < spec.points_per_step; ++p) {
        rows.group.push_back(static_cast<std::uint32_t>(g));
        rows.timestamp.push_back(static_cast<std::int64_t>(t));
        for (std::size_t d = 0; d < spec.dim; ++d) {
          rows.values.push_back(rng.Gaussian(mean, 1.0));
        }
      }
    }
  }
  return rows;
}

Status AddBatchSeriesRows(const BatchSeriesRows& rows,
                          BatchTableBuilder* builder) {
  return builder->AddRows(rows.keys, rows.group.data(), rows.timestamp.data(),
                          rows.values.data(), rows.row_count(), rows.dim);
}

BatchTable BuildBatchTable(const BatchSeriesRows& rows, BufferArena* arena) {
  BatchTableBuilder builder(arena);
  // Cannot fail on a generated corpus: its keys are non-empty, its group ids
  // index them and dim >= 1.
  AddBatchSeriesRows(rows, &builder).ok();
  return builder.Build();
}

Result<BatchTable> GenerateBatchSeries(const BatchSeriesSpec& spec,
                                       BufferArena* arena) {
  BAGCPD_ASSIGN_OR_RETURN(BatchSeriesRows rows, GenerateBatchSeriesRows(spec));
  return BuildBatchTable(rows, arena);
}

}  // namespace bagcpd

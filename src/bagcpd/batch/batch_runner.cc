#include "bagcpd/batch/batch_runner.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "bagcpd/common/check.h"
#include "bagcpd/common/point.h"
#include "bagcpd/core/profiles.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The profile a group is scored under: a non-empty profile column in the
// table data wins; otherwise the caller's per-key route; otherwise the
// default. A table profile that is unknown, or that contradicts a per-key
// route, is a per-group failure (quarantine), never a whole-batch error —
// the table data is not under the caller's control the way options are.
Result<std::string> ResolveGroupProfile(const BatchRunnerOptions& options,
                                        const std::string& key,
                                        const std::string& table_profile) {
  auto routed = options.profile_by_key.find(key);
  if (!table_profile.empty()) {
    BAGCPD_ASSIGN_OR_RETURN(std::string canonical,
                            CanonicalProfile(options.profiles, table_profile));
    if (routed != options.profile_by_key.end()) {
      BAGCPD_ASSIGN_OR_RETURN(
          std::string routed_canonical,
          CanonicalProfile(options.profiles, routed->second));
      if (routed_canonical != canonical) {
        return Status::Invalid("group '" + key + "' carries profile '" +
                               canonical +
                               "' but profile_by_key routes it to '" +
                               routed_canonical + "'");
      }
    }
    return canonical;
  }
  if (routed != options.profile_by_key.end()) {
    return CanonicalProfile(options.profiles, routed->second);
  }
  return std::string(kDefaultProfileName);
}

}  // namespace

Status ValidateBatchRunnerOptions(const BatchRunnerOptions& options) {
  BAGCPD_RETURN_NOT_OK(ValidateProfile(kDefaultProfileName, options.detector));
  // Named profiles meet the rules StreamEngine::RegisterProfile applies.
  ProfileMap registered;
  for (const auto& [name, profile] : options.profiles) {
    BAGCPD_RETURN_NOT_OK(AddProfile(name, profile, &registered));
  }
  // Dangling routes are caller bugs, surfaced before any work is done.
  for (const auto& [key, profile] : options.profile_by_key) {
    Result<std::string> canonical = CanonicalProfile(options.profiles, profile);
    if (!canonical.ok()) {
      return Status::Invalid("profile_by_key['" + key + "']: " +
                             canonical.status().message());
    }
  }
  return Status::OK();
}

Result<BatchResultTable> RunBatchColumnar(const BatchTable& table,
                                          const BatchRunnerOptions& options) {
  BAGCPD_RETURN_NOT_OK(ValidateBatchRunnerOptions(options));

  const std::size_t num_groups = table.group_count();
  BatchResultTable out;

  // Per-group resolution pass: a group is eligible iff it was well-formed at
  // build time AND its profile resolves. `resolution[g]` carries the
  // canonical profile or the quarantine reason.
  std::vector<Result<std::string>> resolution;
  resolution.reserve(num_groups);
  // Row offset of each eligible group in the output columns; quarantined
  // groups occupy no rows. `result_group[g]` is the provisional index into
  // the result-group directory (run-time failures compact it afterwards).
  std::vector<std::size_t> row_offset(num_groups, 0);
  std::vector<std::uint32_t> result_group(num_groups, 0);
  std::size_t total_rows = 0;
  std::uint32_t next_result_group = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    if (!table.group_status(g).ok()) {
      resolution.emplace_back(table.group_status(g));
      continue;
    }
    resolution.push_back(
        ResolveGroupProfile(options, table.group_key(g),
                            table.group_profile(g)));
    if (!resolution.back().ok()) continue;
    row_offset[g] = total_rows;
    result_group[g] = next_result_group++;
    total_rows += table.group_step_count(g);
  }

  // Columns are written in place from the shard workers: every eligible
  // group owns a disjoint row range, so concurrent writes never touch the
  // same element. Score columns start as "no verdict" (NaN, has_score = 0)
  // and only rows the detector scored are overwritten.
  out.group.resize(total_rows);
  out.step.resize(total_rows);
  out.timestamp.resize(total_rows);
  out.score.assign(total_rows, kNaN);
  out.ci_lo.assign(total_rows, kNaN);
  out.ci_up.assign(total_rows, kNaN);
  out.xi.assign(total_rows, kNaN);
  out.is_change.assign(total_rows, 0);
  out.has_score.assign(total_rows, 0);

  // Outcome of each eligible group's detector run (push failures quarantine
  // the group after the fact). Slots are only ever written by the one shard
  // owning the group.
  std::vector<Status> outcome(num_groups, Status::OK());
  // Steps skipped for non-finite values, per group; merged into out.skipped
  // in table order by the epilogue so the report is shard-independent.
  std::vector<std::vector<BatchResultTable::Skipped>> skipped_steps(num_groups);

  const std::size_t num_shards = std::max<std::size_t>(1, options.num_shards);

  // Contiguous deterministic chunking: shard s owns groups
  // [s * base + min(s, rem), ...) — a pure function of (num_groups,
  // num_shards), mirroring ThreadPool::ParallelForChunked's split
  // discipline.
  const std::size_t base = num_groups / num_shards;
  const std::size_t rem = num_groups % num_shards;
  const auto shard_body = [&](std::size_t s) {
    const std::size_t begin = s * base + std::min(s, rem);
    const std::size_t end = begin + base + (s < rem ? 1 : 0);
    for (std::size_t g = begin; g < end; ++g) {
      if (!resolution[g].ok()) continue;
      // Cannot fail: the profile was validated up front and only the seed
      // differs.
      Result<std::unique_ptr<BagStreamDetector>> created = NewProfileDetector(
          options.detector, options.profiles, options.seed, table.group_key(g),
          resolution[g].ValueOrDie());
      BAGCPD_CHECK_MSG(created.ok(), "validated profile failed Create: %s",
                       created.status().ToString().c_str());
      std::unique_ptr<BagStreamDetector> detector = created.MoveValueUnsafe();

      const std::size_t steps = table.group_step_count(g);
      const std::size_t offset = row_offset[g];
      for (std::size_t step = 0; step < steps; ++step) {
        out.group[offset + step] = result_group[g];
        out.step[offset + step] = static_cast<std::uint32_t>(step);
        out.timestamp[offset + step] = table.step_timestamp(g, step);
      }
      // Detector time t is an index over the bags actually pushed; with
      // skipped steps that differs from the table step, so the mapping is
      // kept explicitly.
      std::vector<std::size_t> pushed_step;
      pushed_step.reserve(steps);
      for (std::size_t step = 0; step < steps; ++step) {
        const BagView bag = table.step_bag(g, step);
        Status finite = CheckBagViewFinite(bag);
        if (!finite.ok()) {
          skipped_steps[g].push_back(BatchResultTable::Skipped{
              table.group_key(g), static_cast<std::uint32_t>(step),
              std::move(finite)});
          continue;
        }
        pushed_step.push_back(step);
        Result<std::optional<StepResult>> pushed = detector->Push(bag);
        if (!pushed.ok()) {
          outcome[g] = pushed.status();
          break;
        }
        if (!pushed.ValueOrDie().has_value()) continue;
        const StepResult& r = *pushed.ValueOrDie();
        const std::size_t row =
            offset + pushed_step[static_cast<std::size_t>(r.time)];
        out.score[row] = r.score;
        out.ci_lo[row] = r.ci_lo;
        out.ci_up[row] = r.ci_up;
        out.xi[row] = r.xi;
        out.is_change[row] = r.alarm ? 1 : 0;
        out.has_score[row] = 1;
      }
    }
  };
  // Failures land in `outcome`, so the chunk body itself never fails.
  ForEachChunk(options.pool, 0, num_shards,
               [&](std::size_t first, std::size_t last) {
                 for (std::size_t s = first; s < last; ++s) shard_body(s);
                 return Status::OK();
               });

  // Serial epilogue: build the result-group directory and the quarantine
  // report, compacting out the rows of groups that failed mid-run. The
  // epilogue order is table order, so the final table is independent of how
  // the shards interleaved.
  bool any_runtime_failure = false;
  for (std::size_t g = 0; g < num_groups; ++g) {
    if (resolution[g].ok() && !outcome[g].ok()) any_runtime_failure = true;
  }
  std::size_t write_row = 0;
  std::uint32_t final_group = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    if (!resolution[g].ok()) {
      out.quarantined.push_back(BatchResultTable::Quarantined{
          table.group_key(g), resolution[g].status(),
          table.group_step_count(g)});
      continue;
    }
    if (!outcome[g].ok()) {
      out.quarantined.push_back(BatchResultTable::Quarantined{
          table.group_key(g), outcome[g], table.group_step_count(g)});
      continue;
    }
    out.keys.push_back(table.group_key(g));
    out.profiles.push_back(resolution[g].ValueOrDie());
    for (BatchResultTable::Skipped& s : skipped_steps[g]) {
      out.skipped.push_back(std::move(s));
    }
    if (any_runtime_failure) {
      const std::size_t steps = table.group_step_count(g);
      const std::size_t offset = row_offset[g];
      for (std::size_t step = 0; step < steps; ++step) {
        out.group[write_row] = final_group;
        out.step[write_row] = out.step[offset + step];
        out.timestamp[write_row] = out.timestamp[offset + step];
        out.score[write_row] = out.score[offset + step];
        out.ci_lo[write_row] = out.ci_lo[offset + step];
        out.ci_up[write_row] = out.ci_up[offset + step];
        out.xi[write_row] = out.xi[offset + step];
        out.is_change[write_row] = out.is_change[offset + step];
        out.has_score[write_row] = out.has_score[offset + step];
        ++write_row;
      }
    }
    ++final_group;
  }
  if (any_runtime_failure) {
    out.group.resize(write_row);
    out.step.resize(write_row);
    out.timestamp.resize(write_row);
    out.score.resize(write_row);
    out.ci_lo.resize(write_row);
    out.ci_up.resize(write_row);
    out.xi.resize(write_row);
    out.is_change.resize(write_row);
    out.has_score.resize(write_row);
  }
  return out;
}

}  // namespace bagcpd

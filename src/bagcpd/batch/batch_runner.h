// RunBatchColumnar: the library's one offline sweep, the batch counterpart of
// feeding every key through StreamEngine::Submit. One call sweeps every
// group (key) of a BatchTable through its own BagStreamDetector and returns
// one flat BatchResultTable — the `ts_detect_changepoints_by` shape of the
// anofox-forecast extension, with the same row-accounting discipline: one
// output row per input step of every healthy group, every group the run
// could NOT score listed in `quarantined` with the exact reason, and every
// step whose bag held a non-finite value listed in `skipped` (the step's row
// stays, unscored; the group keeps going). Nothing is silently dropped.
//
// Determinism: each group's detector comes from NewProfileDetector
// (core/profiles.h), the constructor StreamEngine uses, so it is seeded by
// the identical (engine seed, key, profile) derivation, and it processes its
// own steps in time order on one thread. Group-to-shard chunking is a pure
// function of (group count, num_shards), and no state is shared between
// groups, so the result table is bitwise-identical for every (num_shards,
// thread pool size) combination, including the serial one-detector-per-group
// reference loop.

#ifndef BAGCPD_BATCH_BATCH_RUNNER_H_
#define BAGCPD_BATCH_BATCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bagcpd/batch/batch_table.h"
#include "bagcpd/common/result.h"
#include "bagcpd/core/detector.h"

namespace bagcpd {

class ThreadPool;

/// \brief Configuration of one columnar batch run (the offline analogue of
/// StreamEngineOptions; see also api::BatchSpec for the text form).
struct BatchRunnerOptions {
  /// Detector configuration for groups that resolve to the default profile.
  /// `detector.seed` must be 0 — per-group seeds derive from `seed` below
  /// plus the group key (and profile), exactly like StreamEngine.
  DetectorOptions detector;
  /// Named detector profiles (beyond the implicit "default"); a group whose
  /// table rows carry a profile column, or whose key appears in
  /// `profile_by_key`, routes here. Seeds must be 0, same as `detector`.
  std::map<std::string, DetectorOptions> profiles;
  /// Per-key profile routing, consulted for groups whose rows carry no
  /// profile of their own (a non-empty table profile wins; a CONFLICTING
  /// non-empty table profile quarantines the group). Entries for keys not in
  /// the table are ignored.
  std::map<std::string, std::string> profile_by_key;
  /// Engine-equivalent seed: group `key` under profile `p` is seeded exactly
  /// as a StreamEngine with this seed would seed stream `key` under `p`.
  std::uint64_t seed = 0;
  /// Number of contiguous group chunks the run is split into. Purely an
  /// execution knob (results are identical for any value >= 1); 0 behaves
  /// like 1.
  std::size_t num_shards = 1;
  /// Optional compute pool the shards run on (nullptr or size 0 = serial).
  /// Non-owning; must outlive the call.
  ThreadPool* pool = nullptr;
};

/// \brief Checks that `options` form a coherent batch-run configuration;
/// exactly the condition RunBatchColumnar accepts.
Status ValidateBatchRunnerOptions(const BatchRunnerOptions& options);

/// \brief Flat columnar result of RunBatchColumnar. Row r belongs to group
/// `keys[group[r]]`, step `step[r]` (0-based within the group, time order).
/// Rows appear grouped in table order, steps ascending within a group.
///
/// Every step of every non-quarantined group produces exactly one row.
/// Steps the detector had no verdict for (warm-up, and the tail when CIs are
/// off) carry has_score = 0 with NaN score/interval columns — present, not
/// dropped, mirroring the anofox "output rows == input rows" contract.
struct BatchResultTable {
  /// Result-group directory, in table group order (quarantined groups
  /// excluded — they live in `quarantined` instead).
  std::vector<std::string> keys;
  /// Canonical profile each result group was scored under (parallel to
  /// `keys`).
  std::vector<std::string> profiles;

  // Per-row columns (all the same length).
  std::vector<std::uint32_t> group;
  std::vector<std::uint32_t> step;
  std::vector<std::int64_t> timestamp;
  std::vector<double> score;
  std::vector<double> ci_lo;
  std::vector<double> ci_up;
  std::vector<double> xi;
  std::vector<std::uint8_t> is_change;
  /// 1 iff the detector scored this step (the score/interval columns are
  /// meaningful); 0 for warm-up/tail rows.
  std::vector<std::uint8_t> has_score;

  /// One entry per group the run could not score: malformed at build time
  /// (ragged dimensions, conflicting profile rows), an unknown or
  /// conflicting profile route, or a detector failure mid-group.
  struct Quarantined {
    std::string key;
    Status status;
    /// Input steps the group held — the rows the caller must account for.
    std::size_t steps = 0;
  };
  std::vector<Quarantined> quarantined;

  /// One entry per input step whose bag held a non-finite value. The step is
  /// never pushed into the detector — its row stays in the table with
  /// has_score = 0 and NaN score columns — and the group keeps scoring its
  /// later steps. Entries appear in table group order, steps ascending.
  struct Skipped {
    std::string key;
    /// 0-based step within the group (matches the `step` column).
    std::uint32_t step = 0;
    Status status;
  };
  std::vector<Skipped> skipped;

  std::size_t row_count() const { return step.size(); }
  std::size_t group_count() const { return keys.size(); }
};

/// \brief Runs one detector per table group and collects every result into a
/// flat BatchResultTable (see the file header for the determinism and
/// row-accounting guarantees).
Result<BatchResultTable> RunBatchColumnar(const BatchTable& table,
                                          const BatchRunnerOptions& options);

}  // namespace bagcpd

#endif  // BAGCPD_BATCH_BATCH_RUNNER_H_

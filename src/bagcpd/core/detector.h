// BagStreamDetector: the end-to-end online change-point detector over a
// stream of bags — the library's primary public API. Each pushed bag is
// quantized into a signature; once tau + tau' signatures are buffered the
// detector scores the inspection point t = (latest - tau' + 1), bootstraps its
// confidence interval, applies the adaptive alarm test of Eq. 20, and slides
// the window. The log-EMDs of the window's pairs live in one rolling table, so
// each new bag costs only (tau + tau' - 1) transportation solves.

#ifndef BAGCPD_CORE_DETECTOR_H_
#define BAGCPD_CORE_DETECTOR_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/point.h"
#include "bagcpd/common/result.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/bootstrap.h"
#include "bagcpd/core/scores.h"
#include "bagcpd/emd/approx/emd_solver.h"
#include "bagcpd/emd/ground_distance.h"
#include "bagcpd/emd/transport_solver.h"
#include "bagcpd/signature/builder.h"
#include "bagcpd/signature/signature_set.h"

namespace bagcpd {

class ThreadPool;

/// \brief How the base (prior) weights gamma of the windows are chosen.
enum class WeightScheme {
  /// gamma_i = 1/tau (resp. 1/tau'); the paper's setting for all experiments.
  kUniform,
  /// Hyperbolic discounting toward the inspection point (paper Eq. 15).
  kDiscounted,
};

/// \brief Short lowercase name ("uniform" / "discounted").
const char* WeightSchemeName(WeightScheme scheme);

/// \brief Every weight scheme, in declaration order (api/ registry table).
const std::vector<WeightScheme>& AllWeightSchemes();

/// \brief Inverse of WeightSchemeName; rejects unknown names.
Result<WeightScheme> ParseWeightScheme(const std::string& name);

/// \brief Full configuration of the detector.
struct DetectorOptions {
  /// Reference window length tau (>= 2).
  std::size_t tau = 5;
  /// Test window length tau' (>= 2).
  std::size_t tau_prime = 5;
  ScoreType score_type = ScoreType::kSymmetrizedKl;
  WeightScheme weight_scheme = WeightScheme::kUniform;
  /// Bootstrap CI settings; set bootstrap.replicates = 0 to skip CIs (the
  /// detector then reports scores only and never raises alarms), or >= 2.
  BootstrapOptions bootstrap;
  /// How bags are quantized into signatures.
  SignatureBuilderOptions signature;
  GroundDistance ground = GroundDistance::kEuclidean;
  /// Which solver evaluates EMD(P, Q) on the scoring path: the exact
  /// transportation solve (default, bit-identical to earlier releases) or an
  /// approximate solver trading bounded score error for per-pair speed
  /// (spec key `emd=exact|sinkhorn:eps|sliced:n`).
  EmdSolverOptions emd;
  InfoEstimatorOptions info;
  std::uint64_t seed = 0;
};

/// \brief Upper bound on tau + tau'. The detector allocates its rolling log-EMD
/// table as (tau + tau')^2 doubles up front, so this caps the table at
/// 128 MiB; a larger window (say from an untrusted checkpoint's embedded
/// spec) is rejected instead of failing the allocation.
inline constexpr std::size_t kMaxDetectorWindow = 4096;

/// \brief Checks that `options` form a coherent detector configuration; this
/// is exactly the condition BagStreamDetector::Create succeeds under. A config
/// it accepts does not fail every push for a reason knowable up front.
Status ValidateDetectorOptions(const DetectorOptions& options);

/// \brief Per-inspection-point output.
struct StepResult {
  /// Inspection time t (0-based index into the pushed stream). The result for
  /// t becomes available once bag t + tau' - 1 has been pushed.
  std::uint64_t time = 0;
  /// Change-point score (Eq. 16 or 17).
  double score = 0.0;
  /// Bootstrap CI endpoints theta_lo^(t), theta_up^(t); NaN when CIs are off.
  double ci_lo = std::numeric_limits<double>::quiet_NaN();
  double ci_up = std::numeric_limits<double>::quiet_NaN();
  /// Test statistic xi_t = theta_lo^(t) - theta_up^(t - tau') (Eq. 20); NaN
  /// until the interval tau' steps back exists.
  double xi = std::numeric_limits<double>::quiet_NaN();
  /// Eq. 18: xi_t > 0.
  bool alarm = false;
};

/// \brief Online detector over a stream of bags.
class BagStreamDetector {
 public:
  /// \brief Validating factory: fails with the exact ValidateDetectorOptions
  /// status on incoherent options, otherwise returns a ready-to-use detector.
  /// See also api/spec.h for DetectorSpec::Create().
  static Result<std::unique_ptr<BagStreamDetector>> Create(
      const DetectorOptions& options);

  // Create() and CreateFromState() hand out a unique_ptr, so no caller needs
  // to move a detector. Moves stay deleted so that a moved-from detector
  // (emptied ring and table next to a sized score context) is never a state
  // Push() has to handle.
  BagStreamDetector(BagStreamDetector&&) = delete;
  BagStreamDetector& operator=(BagStreamDetector&&) = delete;

  /// \brief Feeds the bag observed at the next time index (zero-copy flat
  /// path; a FlatBag converts implicitly).
  ///
  /// Returns the StepResult for inspection time (pushed_count - tau') if the
  /// window is full after this push, std::nullopt while still warming up.
  /// A bag rejected before it enters the window (non-finite values, an
  /// injected `detector.push` fault) leaves the detector as it was. A step
  /// that fails after the bag entered the window (an EMD solve, the score or
  /// the bootstrap) leaves it half-advanced, so every later Push returns that
  /// failure until Reset() or a successful ImportState().
  Result<std::optional<StepResult>> Push(BagView bag);

  /// \brief Nested-bag convenience: validates and flattens once at this
  /// boundary, then runs the view path. Bitwise-identical results.
  Result<std::optional<StepResult>> Push(const Bag& bag);

  /// \brief Convenience: Reset(), push every bag, and collect all results.
  Result<std::vector<StepResult>> Run(const BagSequence& bags);

  /// \brief Flat-sequence counterpart of Run(); bitwise-identical results.
  Result<std::vector<StepResult>> Run(const FlatBagSequence& bags);

  /// \brief Clears all buffered state (signatures, log-EMD table, CI history)
  /// and any failed step, and restarts the bootstrap stream from the seed:
  /// afterwards the detector behaves exactly like a fresh one.
  void Reset();

  /// \brief Number of bags pushed since the last Reset().
  std::uint64_t pushed_count() const { return next_index_; }

  /// \brief Window pairs handed to the EMD solver since the last Reset()
  /// (diagnostics / benchmarks): C(tau + tau', 2) for the first full window,
  /// then (tau + tau' - 1) per step, with or without a pool.
  std::uint64_t emd_solve_count() const { return emd_solve_count_; }

  const DetectorOptions& options() const { return options_; }

  /// \brief Attaches a compute pool (non-owning; may be nullptr to detach).
  ///
  /// A step solves its new window EMDs with one chunk body: without a pool
  /// it runs once over every pair on the detector's own solver; with one,
  /// ParallelForChunked runs it on each chunk of the pairs, on the thread's
  /// ThreadLocalEmdSolver(), and the bootstrap replicate loop is chunked
  /// over the pool too. Results are bitwise-identical for any pool size: the
  /// EMD of a pair does not depend on which thread solves it, and bootstrap
  /// replicates draw from per-replicate forked RNG streams.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// \brief Attaches a buffer arena (non-owning; may be nullptr to detach).
  ///
  /// With an arena, the per-push signature build recycles its packed buffer
  /// and scratch through the pool instead of malloc. The arena must outlive
  /// the detector (StreamEngine owns one per shard and guarantees this).
  /// Results are bitwise-identical with or without an arena.
  void set_buffer_arena(BufferArena* arena) { arena_ = arena; }
  BufferArena* buffer_arena() const { return arena_; }

  /// \brief The detector-owned EMD solver (exact workspace + approx
  /// scratch). Exposed for diagnostics — allocation/solve counters — and for
  /// the per-stream byte-ceiling policy: set a ceiling here and Reset()
  /// releases oversized scratch (EmdSolver::ShrinkToCeiling).
  EmdSolver& emd_solver() { return solver_; }

  // -- Checkpointing (implemented in serialize/detector_serialize.cc) -----

  /// \brief Snapshots the complete detector state into a versioned,
  /// checksummed binary blob (serialize/checkpoint.h layout): the canonical
  /// options spec, the signature window, the rolling log-EMD table, the
  /// step/warm-up counters, the alarm history, and the RNG stream position.
  /// A detector restored from the blob produces bitwise-identical scores to
  /// this one on the same remaining stream. Call between pushes (the
  /// detector is always between pushes from the caller's perspective;
  /// StreamEngine quiesces the owning shard before exporting). A detector
  /// whose last step failed refuses with that failure: its window is
  /// half-advanced and must not travel in a blob.
  Status ExportState(std::string* blob) const;

  /// \brief Restores a snapshot taken by ExportState into this detector,
  /// replacing all buffered state. The blob's options spec must have this
  /// detector's result keys (api::KeyClass; Invalid otherwise — restoring
  /// into a differently-configured detector would silently change scores,
  /// while a performance key such as `emd-heap-at` may differ); a spec that
  /// does not parse is Invalid too. A truncated or corrupt blob fails with
  /// IoError, an unsupported format version with NotImplemented, all without
  /// modifying the detector.
  /// Decode staging recycles through the attached buffer arena when set.
  Status ImportState(std::string_view blob);

  /// \brief Builds a detector configured from the blob's embedded options
  /// spec and restores the snapshot into it (the one-call restore used when
  /// no pre-configured detector exists, e.g. tools and cold restores).
  static Result<std::unique_ptr<BagStreamDetector>> CreateFromState(
      std::string_view blob);

  /// \brief Approximate resident bytes of the restorable state (window ring,
  /// rolling table, history) — the spill-budget accounting the engine's
  /// byte-budget LRU runs on. Tracks the checkpoint blob size closely but
  /// costs no serialization.
  std::size_t EstimatedStateBytes() const;

 private:
  explicit BagStreamDetector(const DetectorOptions& options);

  // Everything of a push after its signature entered the window: the new
  // EMDs, the score and its CI, and the slide.
  Result<std::optional<StepResult>> Step();
  Result<StepResult> ScoreInspectionPoint();
  // Solves this step's window pairs and folds log(max(d, floor)) into
  // log_table_: the newest column once the table is primed, every column of
  // the first full window otherwise. Column q holds the pairs (p, q), p < q.
  Status UpdateRollingTable();
  void FoldColumn(std::size_t q, const double* emd);
  // `emd.solve` fault point: advances the per-stream solved-pair ordinal by
  // `solved` and returns the injected error if any ordinal in the advanced
  // range fires. A step advances it once, by its whole pair count, before
  // any solve, so the per-push ordinal range — and therefore the fault
  // outcome — is identical for every pool size. One relaxed load when
  // disarmed.
  Status AdvanceEmdFaultCounter(std::size_t solved);

  DetectorOptions options_;
  SignatureBuilder builder_;
  Rng rng_;
  ThreadPool* pool_ = nullptr;
  BufferArena* arena_ = nullptr;
  // Reusable EMD solver (exact workspace or approximate, per options_.emd)
  // for the unpooled path; pooled chunks solve on their threads'
  // ThreadLocalEmdSolver() instead (identical values).
  EmdSolver solver_;
  // Sliding window of the most recent tau + tau' signatures packed into one
  // shared ring buffer; view(0) is the oldest and has global index
  // next_index_ - window_.size(). Sliding is allocation-free in steady state.
  SignatureRing window_;
  std::uint64_t next_index_ = 0;
  // Rolling log-EMD table over the full window, W = tau + tau' slots square:
  // the detector's one store of EMD values. Window position p (0 = oldest)
  // lives in physical slot (table_base_ + p) % W; sliding just advances
  // table_base_, and each step writes one new row/column (the pairs of the
  // newest signature). ScoreInspectionPoint copies the three ScoreContext
  // blocks out of this table into ctx_, whose matrices are allocated once and
  // reused every step.
  std::vector<double> log_table_;
  std::size_t table_base_ = 0;
  bool table_primed_ = false;
  // Scratch of UpdateRollingTable, pooled or not: the views of window
  // positions 0..w-2 (every column's lefts are a prefix) and the step's EMDs
  // in column order. batch_emd_ grows to C(w, 2) on the first full window;
  // a primed step needs w - 1 of it, so steady-state steps allocate nothing.
  std::vector<SignatureView> batch_lefts_;
  std::vector<double> batch_emd_;
  // Window pairs handed to the solver since Reset(): the ordinal behind the
  // `emd.solve` fault point and emd_solve_count(). Deliberately NOT
  // serialized (a restored detector restarts its drill ordinals — recovery
  // metadata never affects scores).
  std::uint64_t emd_solve_count_ = 0;
  // The failure of a step that left the window half-advanced; returned by
  // every later Push and by ExportState until Reset() or ImportState().
  Status step_failure_;
  ScoreContext ctx_;
  // theta_up history for the xi test, keyed relative to inspection time:
  // upper_history_[k] is theta_up of inspection time (current_t - 1 - k).
  std::deque<double> upper_history_;
  std::vector<double> pi_ref_;
  std::vector<double> pi_test_;
};

/// \brief Extracts the times where `results` raised alarms.
std::vector<std::uint64_t> AlarmTimes(const std::vector<StepResult>& results);

}  // namespace bagcpd

#endif  // BAGCPD_CORE_DETECTOR_H_

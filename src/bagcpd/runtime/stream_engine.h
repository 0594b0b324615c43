// StreamEngine: multiplexes many independent keyed bag streams over a set of
// shard worker threads. Every stream key is hash-routed to exactly one shard,
// so the bags of one stream are always processed in submission order by a
// single thread against that stream's own BagStreamDetector — no locking on
// the hot path, bounded per-shard queues for backpressure, and per-stream
// results that are bitwise-independent of the shard count (each detector is
// seeded from the engine seed, a platform-stable hash of its key, and — for
// non-default profiles — the profile name, never from shard placement; the
// profile rules live in core/profiles.h).
//
// Heterogeneous streams: the engine carries a set of *named detector
// profiles* (RegisterProfile). Each stream key binds to one profile on first
// sight — Submit(key, bag, "profile") — so one engine can run, say,
// KL-scored activity streams next to Pearson/LR-scored network streams
// without spinning up a second runtime.
//
// Ingestion is zero-copy past the boundary: nested bags are flattened into a
// FlatBag exactly once at Submit/TrySubmit and then *moved* — never copied —
// through the shard queue to the detector, which consumes a BagView.
//
// Observability is one typed stream: every step result, stream error, and
// idle eviction is an EngineEvent delivered either to a caller-installed
// sink (set_event_sink) or into a drainable queue (DrainEvents).
//
// Stream lifecycle: each shard keeps one table from key to stream, and a
// stream is in one of four phases — live (a resident detector), spilled
// (its state in a spill file), down (torn down by a contained fault, to
// restart on its next bag) or quarantined (failed for good; its bags are
// dropped). A key the engine has forgotten has no entry. Every bag meets
// the same decisions in the same order, whatever the phase:
//   1. quarantined: drop the bag;
//   2. past the horizon: forget the key (kEviction) and treat the bag as
//      the first of a new stream with a clean fault history;
//   3. bound to another profile: quarantine;
//   4. ragged: quarantine; in a backoff window or tagged bad at ingest:
//      drop;
//   5. spilled: rehydrate; down or new: create a detector;
//   6. push.
// The horizon is one rule: a key is past it when strictly more than H
// engine-wide submissions came between its last bag and this one, where H
// is spill_gc_submissions with spilling and max_idle_submissions without
// (H = 0: no horizon). Each decision is a function of the key's own bags
// and the global submission sequence, so results are the same for every
// shard count. A periodic per-shard sweep applies the same horizon to keys
// that never return (and, with spilling, moves idle live keys to disk); it
// changes memory and counters, never results.
//
// This is the serving layer the ROADMAP's "millions of streams" target grows
// on: Submit() for online pushes, TrySubmit() for non-blocking ingest, and
// the idle horizon and spilling so mostly-idle keys do not pin detector
// memory. Offline sweeps over a recorded corpus run through RunBatchColumnar
// (batch/batch_runner.h), which seeds every key exactly as this engine does.

#ifndef BAGCPD_RUNTIME_STREAM_ENGINE_H_
#define BAGCPD_RUNTIME_STREAM_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/point.h"
#include "bagcpd/common/result.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/core/profiles.h"

namespace bagcpd {

/// \brief Configuration of a StreamEngine.
struct StreamEngineOptions {
  /// Number of shard worker threads; 0 picks std::thread::hardware_concurrency
  /// (at least 1).
  std::size_t num_shards = 0;
  /// Bound on each shard's pending-bag queue; Submit blocks (backpressure)
  /// while the target shard is full, TrySubmit returns Unavailable. Must be
  /// >= 1.
  std::size_t shard_queue_capacity = 1024;
  /// The "default" detector profile, used by every stream submitted without
  /// an explicit profile name. Additional profiles are registered on the
  /// engine (RegisterProfile). `detector.seed` MUST be 0: per-stream seeds
  /// derive from the engine `seed` below plus the key (and profile), and a
  /// nonzero value here used to be silently ignored — engine creation now
  /// rejects it so the footgun is loud.
  DetectorOptions detector;
  /// Engine seed; combined with each stream key (and, for non-default
  /// profiles, the profile name) to seed that stream's detector
  /// deterministically (independent of num_shards).
  std::uint64_t seed = 0;
  /// When true (and no sink is set) events accumulate in an internal queue
  /// read via DrainEvents(). Disable for fire-and-forget callers that only
  /// watch the counters; kError events still queue, so failures are never
  /// lost.
  bool collect_results = true;
  /// Without spilling, the horizon: when > 0, a key whose previous bag lies
  /// strictly more than this many engine-wide submissions (of any key)
  /// back is forgotten — live or down, its detector and fault history are
  /// dropped (kEviction) — and its next bag starts a fresh detector with
  /// the same per-key seed. With spilling (spill_directory set) it only
  /// decides when the sweep moves an idle live stream to disk, and
  /// spill_gc_submissions is the horizon instead. The gap is counted on the
  /// global submission sequence, never on shard-local activity, so the
  /// forget-or-continue decision for a returning key, and so every result,
  /// is the same for any shard count. Keys that never return are reclaimed
  /// by a periodic per-shard sweep whose timing depends on sharding: the
  /// counters (evicted_count(), live_stream_count(), spilled_count()) and
  /// the timing of kEviction events may differ across shard counts,
  /// results never. 0: no horizon without spilling (streams live forever),
  /// no idle spilling with it.
  std::uint64_t max_idle_submissions = 0;
  /// Per-shard buffer-arena tuning. Each shard owns one BufferArena; ingest
  /// flattening and the shard's detector signature builds recycle buffers
  /// through it. A steady-state step still allocates: its EMD and score path
  /// allocates nothing, but the quantizer's and the bootstrap's scratch do.
  /// Counted over serial pushes at paper defaults (k-means k = 8, 50 x 2-d
  /// bags, exact EMD, 200 Bayesian replicates): 11 allocations per step
  /// with an arena, 15 without; 4 of the 11 are k-means scratch and 7 are
  /// bootstrap scratch. Pooling never changes results (buffers are fully
  /// overwritten).
  BufferArenaOptions arena;
  /// Spill-to-disk eviction. When non-empty, cold streams are *exported*
  /// instead of destroyed: the idle sweep (and, when spill_resident_bytes is
  /// set, a byte-budget LRU) writes each victim's checkpoint blob into this
  /// directory and frees the detector; the next bag for the key transparently
  /// re-imports the blob and continues with bitwise-identical results — no
  /// restart, so with spilling on max_idle_submissions governs when state
  /// leaves memory, and only spill_gc_submissions decides whether it
  /// survives. The directory must already exist and be writable; a stream
  /// whose spill file cannot be read back fails like any other stream
  /// (quarantine, or the fault budget's restart). Empty disables spilling.
  std::string spill_directory;
  /// Engine-wide resident-detector-state byte budget for the spill LRU; when
  /// > 0 (requires spill_directory) each shard spills its coldest streams —
  /// smallest last-submission sequence first, never the stream whose bag
  /// triggered the check — while the engine-wide resident total (see
  /// resident_state_bytes()) exceeds the budget. 0 means no budget: only the
  /// idle sweep spills.
  std::size_t spill_resident_bytes = 0;

  // -- Fault containment & self-healing ----------------------------------

  /// Per-stream fault budget. 0 (the historical default): the first failure
  /// of a stream — detector error, failed rehydrate — quarantines it forever
  /// (kError). When > 0 a failing stream is *restarted* instead: its detector
  /// is torn down, a kStreamFault event carries the error, and the stream
  /// resumes — from its rolling snapshot when snapshot_interval > 0, from
  /// scratch otherwise — until it has failed strictly more than this many
  /// times, after which it quarantines like before. Ragged bags and profile
  /// conflicts are caller bugs and always quarantine immediately, budget or
  /// not; non-finite bags are dropped per bag and never charge the budget.
  std::size_t max_stream_faults = 0;
  /// When > 0 (requires max_stream_faults > 0), a stream that just failed for
  /// the k-th time drops its bags for the next `k * fault_backoff_submissions`
  /// engine-wide submissions (linear backoff). The window is measured on the
  /// global submission sequence — never wall-clock — so recovery timing is a
  /// pure function of the submission order.
  std::uint64_t fault_backoff_submissions = 0;
  /// When > 0 (requires max_stream_faults > 0), each stream refreshes an
  /// in-memory state snapshot after every `snapshot_interval`-th successful
  /// push; a failing stream restores from it (losing at most
  /// snapshot_interval - 1 pushes) instead of restarting from scratch.
  /// Snapshots are recovery metadata: they are NOT part of Checkpoint(), so a
  /// restored engine starts with a clean fault history.
  std::uint64_t snapshot_interval = 0;
  /// Failed restore attempts tolerated against one snapshot before it is
  /// declared poisoned and discarded (the stream then restarts from scratch
  /// with its usual per-key seed).
  std::size_t max_restore_failures = 2;
  /// With spilling, the horizon (see max_idle_submissions for the rule and
  /// its shard-count contract). When > 0 (requires spill_directory), a key
  /// whose previous bag lies strictly more than this many engine-wide
  /// submissions back is forgotten, whatever its phase: its spill file is
  /// deleted (counted in spill_gc_count()), a live detector or a down
  /// stream's fault history is dropped, a kEviction event is emitted and
  /// evicted_count() grows; a later bag restarts the stream from scratch.
  /// The check on the key's next bag decides this; the sweep only reclaims
  /// keys that never return (spilling an idle live key first, collecting
  /// it on a later sweep). 0: no horizon, spill files are kept forever.
  std::uint64_t spill_gc_submissions = 0;
  /// Fault-injection spec armed on the process-wide injector at engine
  /// construction, e.g. "spill.read:every-n:3" (syntax in
  /// fault/fault_injector.h). Empty arms nothing. This is a drill/test hook:
  /// arming replaces any previously armed spec process-wide.
  std::string fault;
};

/// \brief Checks that `options` form a coherent engine configuration; this is
/// exactly the condition StreamEngine::Create succeeds under.
Status ValidateStreamEngineOptions(const StreamEngineOptions& options);

/// \brief One observable engine occurrence: a detector step result, an
/// idle-stream eviction, a stream failure, or a checkpoint/restore.
struct EngineEvent {
  enum class Kind {
    /// `step` holds the detector output for `stream_id`.
    kStep,
    /// `stream_id` went past the horizon (max_idle_submissions, or
    /// spill_gc_submissions with spilling) and was forgotten: its detector,
    /// spill file and fault history are gone, and a later bag restarts it
    /// from scratch. Whether a returning key restarts is the same for every
    /// shard count; only when the sweep reports a key that never returns
    /// depends on sharding.
    kEviction,
    /// `error` holds the failure that quarantined `stream_id` (ragged bag,
    /// detector failure, or a profile conflict). Later bags are dropped.
    kError,
    /// `stream_id`'s state was exported — by ExportStream, by an engine-wide
    /// Checkpoint, or by a spill eviction; `blob_bytes` holds the snapshot
    /// size.
    kCheckpoint,
    /// `stream_id`'s state was restored — by ImportStream, by an engine-wide
    /// Restore, or by the transparent rehydrate of a spilled key on its next
    /// bag; `blob_bytes` holds the snapshot size read back.
    kRestore,
    /// `stream_id` failed (`error` holds why) but stayed within its fault
    /// budget (max_stream_faults > 0) — or the failing bag itself was bad
    /// (non-finite values / an injected ingest fault) and was dropped without
    /// touching the stream. The stream is NOT quarantined: it resumes from a
    /// snapshot (a kRestore event follows) or from scratch, possibly after a
    /// backoff window. Only quarantines surface as kError.
    kStreamFault,
  };
  Kind kind = Kind::kStep;
  std::string stream_id;
  /// Profile the stream is (was) bound to; kDefaultProfileName when none was
  /// named at submission.
  std::string profile;
  /// Global submission sequence number of the bag that triggered the event
  /// (for kEviction by sweep: the sequence the sweep observed).
  std::uint64_t sequence = 0;
  /// Wall time the triggering bag spent between enqueue (Submit securing
  /// queue space) and the start of processing on the shard worker — the
  /// queueing component of ingest latency, in nanoseconds. 0 for kEviction
  /// events raised by the periodic sweep (no triggering bag of their own).
  std::uint64_t enqueue_to_process_ns = 0;
  /// Checkpoint blob size for kCheckpoint/kRestore events; 0 otherwise.
  std::uint64_t blob_bytes = 0;
  StepResult step;
  Status error;
};

/// \brief Aggregate enqueue→process latency over every processed submission
/// (not just those that produced an event); see latency_stats().
struct EngineLatencyStats {
  std::uint64_t samples = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  double mean_ns() const {
    return samples == 0 ? 0.0 : static_cast<double>(total_ns) / samples;
  }
};

/// \brief Concurrent multi-stream change-point detection runtime.
///
/// Thread-safety: Submit/TrySubmit/Flush/DrainEvents may be called from any
/// thread (typically one producer). RegisterProfile and set_event_sink must
/// happen before the first Submit. The event sink runs on shard worker
/// threads and must be thread-safe if it touches shared state.
class StreamEngine {
 public:
  /// Receives every EngineEvent on a shard thread when installed; replaces
  /// the internal event queue entirely.
  using EventSink = std::function<void(const EngineEvent&)>;

  /// \brief Validating factory: fails with the exact
  /// ValidateStreamEngineOptions status on incoherent options, otherwise
  /// returns a running engine. See also api/spec.h for EngineSpec::Create().
  static Result<std::unique_ptr<StreamEngine>> Create(
      const StreamEngineOptions& options);

  /// Shuts down (draining all queued work) and joins the shard workers.
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// \brief Registers a named detector profile so streams can be routed to
  /// it via Submit(key, bag, name). Must be called before the first Submit
  /// (not thread-safe against concurrent Submit). Fails on a duplicate or
  /// reserved name, incoherent detector options, or a nonzero
  /// `profile.seed` (per-stream seeds always derive from the engine seed).
  Status RegisterProfile(const std::string& name,
                         const DetectorOptions& profile);

  /// \brief Number of registered profiles, including "default".
  std::size_t profile_count() const { return 1 + profiles_.size(); }

  /// \brief Installs the event sink receiving every EngineEvent. Must be
  /// called before the first Submit; replaces the drainable queue.
  Status set_event_sink(EventSink sink);

  /// \brief Enqueues `bag` as the next observation of `stream_id`, creating
  /// the stream's detector on first sight (bound to `profile`, or the
  /// default profile when empty). The nested bag is flattened once here and
  /// moved through the shard queue. Blocks while the target shard's queue is
  /// full. Returns an error for an unknown profile or after Shutdown(). A
  /// stream already bound to a different profile is quarantined when the
  /// conflicting bag is processed.
  Status Submit(const std::string& stream_id, const Bag& bag,
                const std::string& profile = std::string());

  /// \brief Zero-copy submission: `bag` is moved — never copied — through
  /// the shard queue.
  Status Submit(const std::string& stream_id, FlatBag bag,
                const std::string& profile = std::string());

  /// \brief Non-blocking Submit: returns Unavailable (Status::IsUnavailable)
  /// immediately when the target shard's queue is full instead of blocking.
  /// The bag is NOT consumed in that case — retry or shed load upstream.
  Status TrySubmit(const std::string& stream_id, const Bag& bag,
                   const std::string& profile = std::string());
  Status TrySubmit(const std::string& stream_id, FlatBag&& bag,
                   const std::string& profile = std::string());

  /// \brief Blocks until every queued bag has been fully processed.
  void Flush();

  /// \brief Removes and returns all queued events (step results, errors,
  /// evictions... every kind). Empty when an event sink is installed. Order
  /// across streams is arrival order (unspecified between shards); events of
  /// one stream always appear in submission order.
  std::vector<EngineEvent> DrainEvents();

  // -- Checkpointing (wire format in serialize/checkpoint.h) -------------

  /// \brief Snapshots one stream — key, profile binding, and complete
  /// detector state — into an engine-stream blob. Quiesces the key's shard
  /// (waits for its queue to drain), so the snapshot always sits between
  /// pushes; other shards keep running. Works for both resident and spilled
  /// streams. Fails with Invalid for an unknown or quarantined key. Emits a
  /// kCheckpoint event. May be called from any thread, including after
  /// Shutdown() (the checkpoint-at-exit pattern).
  Status ExportStream(const std::string& stream_id, std::string* blob);

  /// \brief Restores a stream exported by ExportStream (possibly from
  /// another engine process). The blob's embedded key must equal
  /// `stream_id`, its profile must be registered here with identical result
  /// keys (per-stream seeds re-derive from THIS engine's seed, so the engine
  /// seed must match the exporter's for bitwise continuation — the
  /// options-spec gate enforces it), and the key must not already be
  /// bound, spilled, or quarantined (Invalid otherwise). A truncated or
  /// corrupt blob fails with IoError, an unknown format version with
  /// NotImplemented; failures never leave a partial stream behind. Restored
  /// detectors rehydrate their buffers through the owning shard's arena.
  /// Emits a kRestore event.
  Status ImportStream(const std::string& stream_id, std::string_view blob);

  /// \brief Snapshots the whole engine — seed plus every stream, resident or
  /// spilled — into one engine-checkpoint blob. Walks shards in index order
  /// (quiescing each in turn) with keys sorted within a shard, so the bytes
  /// are deterministic for a given engine state. The caller must stop
  /// submitting for the snapshot to be a consistent cut across shards (after
  /// a Flush(), or post-Shutdown()).
  Status Checkpoint(std::string* blob);

  /// \brief Restores every stream of an engine checkpoint into this engine
  /// (which must be configured with the same engine seed — Invalid
  /// otherwise — and have the profiles the checkpoint's streams bind to).
  /// Each stream is restored exactly as ImportStream would; the first
  /// failure aborts the walk, leaving earlier streams restored.
  Status Restore(std::string_view blob);

  /// \brief Streams spilled to disk so far (cumulative).
  std::uint64_t spilled_count() const { return spilled_.load(); }
  /// \brief Streams restored so far (ImportStream / Restore / transparent
  /// rehydrate), cumulative.
  std::uint64_t restored_count() const { return restored_.load(); }
  /// \brief Estimated resident detector-state bytes across all shards (the
  /// quantity the spill budget caps). Maintained only when spilling is
  /// enabled; 0 otherwise.
  std::size_t resident_state_bytes() const { return resident_bytes_.load(); }

  /// \brief Stops accepting work, drains in-flight work, joins workers.
  /// Idempotent; called by the destructor. Spill files are left on disk (they
  /// are the recovery artifacts).
  void Shutdown();

  std::size_t num_shards() const { return shards_.size(); }
  std::uint64_t submitted_count() const { return submit_seq_.load(); }
  std::uint64_t processed_count() const { return processed_.load(); }
  std::uint64_t result_count() const { return results_emitted_.load(); }
  std::uint64_t dropped_count() const { return dropped_.load(); }
  /// \brief Number of detectors created so far (a key evicted and seen again
  /// counts twice).
  std::size_t stream_count() const { return streams_created_.load(); }
  /// \brief Number of keys forgotten past the horizon so far (kEviction).
  std::uint64_t evicted_count() const { return evicted_.load(); }
  /// \brief Detectors currently resident across all shards (live streams).
  std::size_t live_stream_count() const { return live_streams_.load(); }
  /// \brief Contained stream failures so far (kStreamFault events charged
  /// against a fault budget; quarantines surface in kError events instead).
  std::uint64_t stream_fault_count() const { return stream_faults_.load(); }
  /// \brief Keys forgotten while spilled, their spill file deleted (also
  /// counted in evicted_count()).
  std::uint64_t spill_gc_count() const { return spill_gc_.load(); }
  /// \brief Aggregated buffer-pool counters across all shard arenas.
  BufferArenaStats arena_stats() const;
  /// \brief Aggregate enqueue→process latency across every processed
  /// submission so far (the same quantity EngineEvent::enqueue_to_process_ns
  /// reports per event). Purely observational: reading it never perturbs
  /// results.
  EngineLatencyStats latency_stats() const;

 private:
  explicit StreamEngine(const StreamEngineOptions& options);

  struct Task {
    std::string stream_id;
    // Profile the submission named (canonicalized; kDefaultProfileName when
    // none was given).
    std::string profile;
    // Carries either the flattened bag or the flattening error; a conversion
    // failure must quarantine the stream on its shard (exactly like a
    // detector failure), not reject the Submit call. The initializer only
    // makes Task default-constructible for the worker's pop loop.
    Result<FlatBag> bag = Status::Invalid("empty task");
    // Global submission sequence number; the horizon is measured on it.
    std::uint64_t seq = 0;
    // Non-OK when the ingest boundary tagged this bag as bad (non-finite
    // values, or an injected arena.alloc fault): the shard drops the bag with
    // a kStreamFault event and the stream continues on its next good bag.
    Status ingest_error;
    // When the task entered the shard queue; Process() turns it into the
    // enqueue→process latency sample.
    std::chrono::steady_clock::time_point enqueued_at;
  };

  // Where a stream's state lives. A key the engine never saw, or has
  // forgotten, has no entry at all.
  enum class Phase {
    kLive,         // resident detector
    kSpilled,      // state in a spill file, no detector
    kDown,         // torn down by a contained fault, restarts on its next bag
    kQuarantined,  // failed for good; later bags are dropped
  };

  // One stream key's whole engine-side state, owned by its shard's worker.
  struct Stream {
    // A fresh entry holds nothing until its first move (see Move).
    Phase phase = Phase::kDown;
    // Profile the key is bound to; every event of the key carries it.
    std::string profile;
    // Sequence of the key's last bag, dropped bags included (an import
    // stamps the sequence it ran at); the horizon is measured from here.
    std::uint64_t last_seq = 0;
    // kLive: the detector and its last EstimatedStateBytes() reading, folded
    // into resident_bytes_ (maintained only when spilling is enabled).
    std::unique_ptr<BagStreamDetector> detector;
    std::size_t state_bytes = 0;
    // kSpilled: the spill file holding the engine-stream blob.
    std::string spill_path;
    // kQuarantined: why.
    Status error;
    // Recovery fields. They survive teardown and spilling, are cleared by a
    // quarantine, and go with the entry when the key is forgotten. Never
    // part of Checkpoint(): snapshots are recovery metadata, not state.
    // Failures charged against max_stream_faults so far.
    std::size_t fault_count = 0;
    // Bags with seq <= cooldown_until are dropped (the backoff window).
    std::uint64_t cooldown_until = 0;
    // Most recent detector-state blob (empty: none yet, or discarded as
    // poisoned after max_restore_failures failed restores).
    std::string snapshot;
    // Failed restore attempts against the current snapshot.
    std::size_t restore_failures = 0;
  };
  using StreamTable = std::unordered_map<std::string, Stream>;

  // A phase change, named by what it records. Each move has one target
  // phase and, except kCreate, one event:
  //   kCreate     -> kLive, fresh detector     (streams_created_)
  //   kRestore    -> kLive, from a state blob  (restored_, kRestore)
  //   kSpill      kLive -> kSpilled            (spilled_, kCheckpoint)
  //   kFault      -> kDown                     (stream_faults_, kStreamFault)
  //   kQuarantine -> kQuarantined              (kError)
  //   kForget     -> no entry                  (evicted_, spill_gc_ when
  //                                             spilled, kEviction)
  enum class Move { kCreate, kRestore, kSpill, kFault, kQuarantine, kForget };

  struct Shard {
    std::mutex mu;
    // The shard's buffer pool (owned by arenas_; set once at construction).
    BufferArena* arena = nullptr;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::condition_variable drained;
    std::deque<Task> queue;
    bool busy = false;
    // Every stream key routed to this shard. Touched only by this shard's
    // worker thread, or by a caller holding QuiesceShard's lock.
    StreamTable streams;
    // Worker-local counter driving the periodic idle sweep.
    std::uint64_t processed_since_sweep = 0;
  };

  // Moves *bag into the shard queue only once space is secured, so a
  // non-blocking rejection leaves the caller's payload intact.
  Status SubmitImpl(const std::string& stream_id, const std::string& profile,
                    std::size_t shard_index, Result<FlatBag>* bag,
                    bool blocking);
  // Routes an event to the sink or the queue.
  void EmitEvent(EngineEvent event);
  // The one place a stream changes phase. Leaving kLive frees the detector
  // and its resident bytes, leaving kSpilled deletes the spill file; then
  // the move's counter and event are recorded (see Move). A live-entering
  // move expects the new detector already in the entry. kForget erases
  // `it`. The event carries `seq`, `latency_ns`, and `error` or
  // `blob_bytes` where the kind has them.
  void Transition(Shard& shard, StreamTable::iterator it, Move move,
                  std::uint64_t seq, std::uint64_t latency_ns = 0,
                  const Status& error = Status(), std::uint64_t blob_bytes = 0);
  // Recovery ladder for a failed stream: quarantines when max_stream_faults
  // is 0 (the historical contract) or the budget is exhausted; otherwise
  // moves the stream kDown, opens the backoff window, and restores from the
  // rolling snapshot when one exists (falling back to a from-scratch
  // restart on the next bag once the snapshot fails too often).
  void HandleStreamFailure(Shard& shard, StreamTable::iterator it,
                           std::uint64_t seq, const Status& error,
                           std::uint64_t latency_ns);
  // Refreshes the stream's rolling recovery snapshot when the push count
  // hits the snapshot interval.
  void MaybeSnapshotStream(Stream& stream);
  // A detector for `stream_id` under the canonical `profile`, seeded by
  // (engine seed, key, profile) and pooled through the shard's arena.
  Result<std::unique_ptr<BagStreamDetector>> NewDetector(
      Shard& shard, const std::string& stream_id,
      const std::string& profile) const;
  void WorkerLoop(std::size_t shard_index);
  void Process(Shard& shard, Task task);
  void SweepIdle(Shard& shard, std::uint64_t now_seq);
  std::size_t ShardOf(const std::string& stream_id) const;

  // -- Checkpoint / spill internals --------------------------------------
  bool spill_enabled() const { return !options_.spill_directory.empty(); }
  // The horizon H past which a key is forgotten: spill_gc_submissions with
  // spilling, max_idle_submissions without; 0 means none.
  std::uint64_t horizon() const {
    return spill_enabled() ? options_.spill_gc_submissions
                           : options_.max_idle_submissions;
  }
  // Blocks until `shard` has no queued or in-flight task and returns the
  // held lock: the worker is parked on its empty-queue wait and Submit is
  // blocked on the mutex, so the caller may touch shard-owned state.
  std::unique_lock<std::mutex> QuiesceShard(Shard& shard);
  // ExportStream body, shard already quiesced.
  Status ExportStreamLocked(Shard& shard, const std::string& stream_id,
                            std::string* blob);
  // ImportStream body past validation: builds the detector, restores the
  // blob into it, and only then moves the key's entry (created if absent)
  // to kLive with last_seq = `last_seq`. A failure leaves the table as it
  // was.
  Status ImportStreamLocked(Shard& shard, const std::string& stream_id,
                            const std::string& profile,
                            std::string_view detector_blob,
                            std::uint64_t blob_bytes, std::uint64_t last_seq,
                            std::uint64_t latency_ns);
  // Exports a live stream's detector to a fresh spill file and moves it
  // kSpilled; false if the stream stays live (export or write failed —
  // memory pressure persists but nothing is lost).
  bool SpillStream(Shard& shard, StreamTable::iterator it,
                   std::uint64_t now_seq);
  // Reads a spilled stream's file back into a live detector (through the
  // shard arena). On failure the stream stays kSpilled and the caller's
  // recovery ladder moves it on (which deletes the file).
  Status RehydrateStream(Shard& shard, StreamTable::iterator it,
                         std::uint64_t seq, std::uint64_t latency_ns);
  // Spills this shard's coldest streams while the engine-wide resident total
  // exceeds the budget (never the stream whose bag triggered the check).
  void EnforceSpillBudget(Shard& shard, std::uint64_t now_seq);
  // Fresh spill-file path for `stream_id` (hash + running counter).
  std::string SpillPathFor(const std::string& stream_id);
  // Folds a new EstimatedStateBytes reading into the resident accounting.
  void UpdateResidentBytes(Stream& stream);

  StreamEngineOptions options_;
  EventSink sink_;
  // Named profiles beyond the implicit "default" (read-only once traffic
  // starts; RegisterProfile enforces that).
  ProfileMap profiles_;
  // One arena per shard; declared before shards_ so every pooled buffer
  // still referenced by shard state (queued FlatBags, detector scratch) dies
  // before its arena does.
  std::vector<std::unique_ptr<BufferArena>> arenas_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  bool shut_down_ = false;

  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> results_emitted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::size_t> streams_created_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::size_t> live_streams_{0};
  // Contained (non-quarantining) stream failures; see stream_fault_count().
  std::atomic<std::uint64_t> stream_faults_{0};
  // Spill files reclaimed by the GC horizon; see spill_gc_count().
  std::atomic<std::uint64_t> spill_gc_{0};
  // Occurrence ordinals feeding the spill/ckpt fault points. Engine-local so
  // concurrent engines do not perturb each other's drills; deterministic per
  // configuration (spill timing legitimately depends on sharding).
  std::atomic<std::uint64_t> fault_spill_write_ops_{0};
  std::atomic<std::uint64_t> fault_spill_read_ops_{0};
  std::atomic<std::uint64_t> fault_ckpt_import_ops_{0};
  // Checkpoint subsystem counters: cumulative spills and restores, the
  // resident-state total the spill budget caps, and the spill-file name
  // sequence (never reused, so a respilled key gets a fresh file).
  std::atomic<std::uint64_t> spilled_{0};
  std::atomic<std::uint64_t> restored_{0};
  std::atomic<std::size_t> resident_bytes_{0};
  std::atomic<std::uint64_t> spill_file_seq_{0};
  // Global submission sequence; tasks record it so idleness is measured in
  // engine-wide submissions, independent of sharding. Doubles as the
  // submitted_count() value: exactly one increment per accepted submission.
  std::atomic<std::uint64_t> submit_seq_{0};
  // Enqueue→process latency accumulators behind latency_stats(); the max is
  // maintained with a CAS loop so concurrent shard workers never lose a peak.
  std::atomic<std::uint64_t> latency_samples_{0};
  std::atomic<std::uint64_t> latency_total_ns_{0};
  std::atomic<std::uint64_t> latency_max_ns_{0};

  // The event queue behind DrainEvents (unused when a sink is installed).
  mutable std::mutex events_mu_;
  std::vector<EngineEvent> events_;
};

}  // namespace bagcpd

#endif  // BAGCPD_RUNTIME_STREAM_ENGINE_H_

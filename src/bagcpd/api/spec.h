// Fluent, validated specs for the two public entry points. A DetectorSpec /
// EngineSpec is a plain value describing a configuration: setters accept
// either enum values or registry names (api/registry.h), errors are deferred
// to Build()/Create() so call chains stay clean, and every spec can be
// produced from a config string (FromKeyValues) and echoed back canonically
// (ToKeyValues) — the text form benches, tools, and services pass around.
//
//   auto detector = DetectorSpec()
//                       .Tau(5).TauPrime(5)
//                       .Quantizer("kmeans").K(8)
//                       .Score("kl").Replicates(300).Seed(42)
//                       .Create();                 // Result<unique_ptr<...>>
//
//   auto engine = EngineSpec()
//                     .NumShards(8).Seed(42)
//                     .Detector(DetectorSpec().Tau(5).TauPrime(5))
//                     .Profile("network", DetectorSpec().Score("lr"))
//                     .Create();                   // profiles pre-registered

#ifndef BAGCPD_API_SPEC_H_
#define BAGCPD_API_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bagcpd/batch/batch_runner.h"
#include "bagcpd/common/result.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/runtime/stream_engine.h"

namespace bagcpd {
namespace api {

/// \brief What a detector key can change. A result key can change a bit of
/// output; a performance key (only `emd-heap-at`) changes speed only. A
/// checkpoint imports into any detector whose result keys equal the
/// exporter's (BagStreamDetector::ImportState).
enum class KeyClass { kResult, kPerformance };

/// \brief One key of the detector grammar.
struct SpecKey {
  std::string name;
  KeyClass key_class;
};

/// \brief Builder for DetectorOptions.
///
/// Defaults equal a default-constructed DetectorOptions. String overloads
/// parse through the component registry; a bad name (or key=value token) is
/// remembered and surfaced by Build()/Create() — the first error wins.
class DetectorSpec {
 public:
  DetectorSpec() = default;

  /// \brief Parses a comma-separated "key=value" config string, e.g.
  ///   "quantizer=kmeans,tau=5,score=skl,replicates=300,seed=42".
  /// Keys are the ToKeyValues() names; values go through the registry for
  /// enum-valued keys. Unknown keys, malformed tokens, and unparsable values
  /// fail immediately with a message naming the offending token. Later
  /// occurrences of a key overwrite earlier ones.
  static Result<DetectorSpec> FromKeyValues(const std::string& text);

  /// \brief Wraps already-built options so they can be echoed canonically:
  /// FromOptions(o).ToKeyValues() is the options wire form the checkpoint
  /// subsystem embeds in every detector snapshot. No validation happens here
  /// (Build() still validates as usual).
  static DetectorSpec FromOptions(const DetectorOptions& options);

  // -- Window / scoring ------------------------------------------------
  DetectorSpec& Tau(std::size_t tau);
  DetectorSpec& TauPrime(std::size_t tau_prime);
  DetectorSpec& Score(ScoreType type);
  DetectorSpec& Score(const std::string& name);
  DetectorSpec& Weights(WeightScheme scheme);
  DetectorSpec& Weights(const std::string& name);
  DetectorSpec& Ground(GroundDistance kind);
  DetectorSpec& Ground(const std::string& name);
  DetectorSpec& DistanceFloor(double floor);

  // -- EMD solver ------------------------------------------------------
  DetectorSpec& Emd(EmdSolverKind kind);
  DetectorSpec& Emd(const EmdSolverOptions& options);
  /// \brief Full spec-string form: "exact", "sinkhorn:0.05", "sliced:32",
  /// ... (ParseEmdSolverSpec grammar, the `emd=` key's value). Preserves a
  /// previously chosen EmdHeapAt() crossover, like the `emd=` key does.
  DetectorSpec& Emd(const std::string& spec);
  /// \brief K+L crossover for the exact solver's 4-ary-heap Dijkstra
  /// (`emd-heap-at=` key); 0 = always the dense scan. A performance knob
  /// only — results are bitwise-identical at any value, so a checkpoint
  /// restores across it (KeyClass::kPerformance).
  DetectorSpec& EmdHeapAt(std::size_t k_plus_l);
  /// \brief Graceful degradation: when true, an approximate EMD solve that
  /// fails (Sinkhorn underflow / non-finite transport) silently re-solves
  /// the pair with the exact solver instead of failing the push (`emd-fallback`
  /// key: "exact" / "none"). Deterministic — whether a pair falls back is a
  /// pure function of that pair's inputs, so results are identical across
  /// thread pools and shard counts. Preserved by Emd(spec-string), like the
  /// heap crossover.
  DetectorSpec& EmdFallbackExact(bool fallback);

  // -- Quantizer -------------------------------------------------------
  DetectorSpec& Quantizer(SignatureMethod method);
  DetectorSpec& Quantizer(const std::string& name);
  DetectorSpec& K(std::size_t k);
  DetectorSpec& BinWidth(double width);
  DetectorSpec& HistogramOrigin(double origin);
  DetectorSpec& Normalize(bool normalize);

  // -- Bootstrap -------------------------------------------------------
  DetectorSpec& Replicates(int replicates);
  DetectorSpec& Alpha(double alpha);
  DetectorSpec& Bootstrap(BootstrapMethod method);
  DetectorSpec& Bootstrap(const std::string& name);

  DetectorSpec& Seed(std::uint64_t seed);

  /// \brief The validated options: surfaces any deferred setter error, then
  /// runs ValidateDetectorOptions — so Build() fails exactly when
  /// BagStreamDetector::Create would.
  Result<DetectorOptions> Build() const;

  /// \brief Build() + BagStreamDetector::Create in one step.
  Result<std::unique_ptr<BagStreamDetector>> Create() const;

  /// \brief Canonical "key=value,..." form covering every field;
  /// FromKeyValues(spec.ToKeyValues()) reproduces the spec exactly.
  std::string ToKeyValues() const;

  /// \brief ToKeyValues() without the performance keys. Specs with equal
  /// result echoes compute bitwise-identical results; this is what the
  /// checkpoint gate compares.
  std::string ResultKeyValues() const;

  /// \brief Every detector key with its class, in canonical echo order.
  static std::vector<SpecKey> Keys();

 private:
  friend class EngineSpec;  // Both embed the detector grammar.
  friend class BatchSpec;

  // Applies one key=value pair; a failure is deferred to Build() (the first
  // error wins). The worker of the string-valued fluent setters.
  DetectorSpec& SetDeferred(const char* key, const std::string& value);

  DetectorOptions options_;
  Status error_;  // First deferred fluent-setter error; OK when clean.
};

/// \brief Builder for StreamEngineOptions plus the engine's named detector
/// profiles (which live on the engine, not in the options struct):
/// Create() constructs the engine and registers every Profile() before any
/// traffic can race it.
///
/// Seeding rule (applies to Detector() and every Profile()): the detector
/// spec's seed must stay 0. Per-stream seeds always derive from the engine
/// Seed(), the stream key, and the profile name; a nonzero detector seed is
/// rejected at Build()/Create() so it can never be silently ignored.
class EngineSpec {
 public:
  EngineSpec() = default;

  /// \brief Parses a comma-separated config string covering the engine
  /// topology plus the default detector. `shards`, `queue`, `collect`,
  /// `max_idle`, `spill_dir`, `spill_budget`, `spill_gc`, `fault_budget`,
  /// `fault_backoff`, `snapshot_every`, `fault`, and `seed` are engine-level
  /// keys (seed is the ENGINE seed —
  /// detector seeds stay 0 under an engine, as Build() enforces); every
  /// other key=value token configures the default detector exactly as
  /// DetectorSpec::FromKeyValues would, e.g.
  ///   "shards=8,seed=42,quantizer=kmeans,tau=5,emd=sinkhorn:0.1".
  /// Profiles and the arena are API-only, like BatchSpec's pool.
  static Result<EngineSpec> FromKeyValues(const std::string& text);

  DetectorSpec& detector() { return detector_; }

  EngineSpec& NumShards(std::size_t num_shards);
  EngineSpec& QueueCapacity(std::size_t capacity);
  EngineSpec& Seed(std::uint64_t seed);
  EngineSpec& CollectResults(bool collect);
  EngineSpec& MaxIdleSubmissions(std::uint64_t max_idle);
  EngineSpec& Arena(const BufferArenaOptions& arena);
  /// \brief Spill-to-disk checkpoint eviction (StreamEngineOptions
  /// .spill_directory); text-form key `spill_dir`. The path may not contain
  /// a comma (the text form's separator).
  EngineSpec& SpillDirectory(const std::string& directory);
  /// \brief Resident-state byte budget for the spill LRU (StreamEngineOptions
  /// .spill_resident_bytes); text-form key `spill_budget`; needs
  /// SpillDirectory.
  EngineSpec& SpillBudget(std::size_t bytes);
  /// \brief Per-stream fault budget (StreamEngineOptions.max_stream_faults);
  /// key `fault_budget`. 0 = historical quarantine-on-first-failure.
  EngineSpec& FaultBudget(std::size_t budget);
  /// \brief Backoff window per contained fault, in engine-wide submissions
  /// (.fault_backoff_submissions); key `fault_backoff`; needs FaultBudget.
  EngineSpec& FaultBackoff(std::uint64_t submissions);
  /// \brief Rolling recovery-snapshot interval in pushes
  /// (.snapshot_interval); key `snapshot_every`; needs FaultBudget.
  EngineSpec& SnapshotEvery(std::uint64_t pushes);
  /// \brief Failed restores tolerated before a snapshot is discarded
  /// (.max_restore_failures). API-only, like Arena().
  EngineSpec& MaxRestoreFailures(std::size_t attempts);
  /// \brief Spill-file GC horizon in engine-wide submissions
  /// (.spill_gc_submissions); key `spill_gc`; needs SpillDirectory.
  EngineSpec& SpillGc(std::uint64_t submissions);
  /// \brief Fault-injection spec armed at Create() (StreamEngineOptions
  /// .fault, syntax in fault/fault_injector.h); key `fault`.
  EngineSpec& Fault(const std::string& spec);
  /// \brief The default profile every unqualified Submit routes to.
  EngineSpec& Detector(const DetectorSpec& spec);
  /// \brief Adds a named profile; Submit(key, bag, name) routes to it.
  EngineSpec& Profile(const std::string& name, const DetectorSpec& spec);

  /// \brief The validated engine options (profiles are not part of the
  /// options struct; use Create() to get them registered). Fails exactly
  /// when StreamEngine::Create would, including on a nonzero detector seed.
  Result<StreamEngineOptions> Build() const;

  /// \brief Build() + StreamEngine::Create + RegisterProfile for every
  /// Profile() in registration order.
  Result<std::unique_ptr<StreamEngine>> Create() const;

  /// \brief Canonical "shards=...,queue=...,collect=...,max_idle=...,
  /// seed=...,<detector keys but seed>" form. FromKeyValues(spec.ToKeyValues())
  /// reproduces the engine-level and default-detector configuration.
  std::string ToKeyValues() const;

 private:
  StreamEngineOptions options_;
  DetectorSpec detector_;
  std::vector<std::pair<std::string, DetectorSpec>> profiles_;
};

/// \brief Builder for BatchRunnerOptions — the offline, table-driven
/// counterpart of EngineSpec, sharing its seeding rule: detector and profile
/// seeds must stay 0, per-group seeds derive from Seed(), the group key, and
/// the profile name.
///
///   auto options = BatchSpec()
///                      .NumShards(8).Seed(42)
///                      .Detector(DetectorSpec().Tau(4).TauPrime(4))
///                      .Profile("network", DetectorSpec().Score("lr"))
///                      .ProfileForKey("fw-01", "network")
///                      .Build();               // Result<BatchRunnerOptions>
class BatchSpec {
 public:
  BatchSpec() = default;

  /// \brief Parses a comma-separated config string. `shards` and `seed` are
  /// batch-level keys; every other key=value token configures the default
  /// detector exactly as DetectorSpec::FromKeyValues would, e.g.
  ///   "shards=8,seed=42,quantizer=kmeans,tau=4,replicates=0".
  static Result<BatchSpec> FromKeyValues(const std::string& text);

  DetectorSpec& detector() { return detector_; }

  BatchSpec& NumShards(std::size_t num_shards);
  BatchSpec& Seed(std::uint64_t seed);
  /// \brief Compute pool the run executes on (non-owning; must outlive the
  /// RunBatchColumnar call). Not representable in the text form.
  BatchSpec& Pool(ThreadPool* pool);
  BatchSpec& Arena(const BufferArenaOptions& arena);
  /// \brief The default profile groups resolve to when unrouted.
  BatchSpec& Detector(const DetectorSpec& spec);
  /// \brief Adds a named profile for the table's profile column /
  /// ProfileForKey routes.
  BatchSpec& Profile(const std::string& name, const DetectorSpec& spec);
  /// \brief Routes `key` to profile `name` (BatchRunnerOptions
  /// .profile_by_key).
  BatchSpec& ProfileForKey(const std::string& key, const std::string& name);

  /// \brief The validated options; fails exactly when RunBatchColumnar
  /// would reject them.
  Result<BatchRunnerOptions> Build() const;

  /// \brief Canonical "shards=...,seed=...,<detector keys but seed>" form.
  /// FromKeyValues(spec.ToKeyValues()) reproduces the batch-level and
  /// default-detector configuration (profiles and the pool are API-only).
  std::string ToKeyValues() const;

 private:
  BatchRunnerOptions options_;
  DetectorSpec detector_;
  std::vector<std::pair<std::string, DetectorSpec>> profiles_;
};

}  // namespace api
}  // namespace bagcpd

#endif  // BAGCPD_API_SPEC_H_

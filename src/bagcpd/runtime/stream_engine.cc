#include "bagcpd/runtime/stream_engine.h"

#include <algorithm>
#include <cstdio>

#include "bagcpd/common/check.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/fault/fault_injector.h"
#include "bagcpd/serialize/checkpoint.h"
#include "bagcpd/serialize/wire.h"

namespace bagcpd {

namespace {

// How many tasks a shard processes between idle-eviction sweeps. The sweep
// only reclaims memory: any detector it frees would also have been recreated
// from scratch by the lazy per-task check, so results are unaffected.
constexpr std::uint64_t kIdleSweepPeriod = 512;

}  // namespace

std::uint64_t DerivePerStreamSeed(std::uint64_t engine_seed,
                                  const std::string& stream_id,
                                  const std::string& profile) {
  std::uint64_t base = engine_seed ^ Rng::StableHash64(stream_id);
  if (!profile.empty() && profile != kDefaultProfileName) {
    base ^= Rng::MixSeed64(Rng::StableHash64(profile));
  }
  return Rng::MixSeed64(base);
}

Status ValidateStreamEngineOptions(const StreamEngineOptions& options) {
  if (options.shard_queue_capacity < 1) {
    return Status::Invalid("shard_queue_capacity must be >= 1");
  }
  // Surface bad arena tuning like any other option (the BufferArena
  // constructor would abort on it).
  BAGCPD_RETURN_NOT_OK(ValidateBufferArenaOptions(options.arena));
  // Fail fast on a detector misconfiguration instead of quarantining every
  // stream on first push.
  BAGCPD_RETURN_NOT_OK(ValidateDetectorOptions(options.detector));
  // Historically a nonzero detector.seed was silently ignored (per-stream
  // seeds derive from the engine seed); reject it so the footgun is loud.
  if (options.detector.seed != 0) {
    return Status::Invalid(
        "StreamEngineOptions.detector.seed must be 0: per-stream seeds derive "
        "from StreamEngineOptions.seed and the stream key (set the engine "
        "seed instead)");
  }
  if (options.spill_resident_bytes > 0 && options.spill_directory.empty()) {
    return Status::Invalid(
        "spill_resident_bytes needs a spill_directory to spill into");
  }
  if (options.spill_gc_submissions > 0 && options.spill_directory.empty()) {
    return Status::Invalid(
        "spill_gc_submissions needs a spill_directory to collect from");
  }
  if (options.max_stream_faults == 0 &&
      (options.fault_backoff_submissions > 0 ||
       options.snapshot_interval > 0)) {
    return Status::Invalid(
        "fault_backoff_submissions / snapshot_interval need "
        "max_stream_faults > 0 (with a zero budget the first failure "
        "quarantines, so there is nothing to back off or restore)");
  }
  if (!options.fault.empty()) {
    BAGCPD_RETURN_NOT_OK(fault::FaultInjector::ValidateSpec(options.fault));
  }
  return Status::OK();
}

Result<std::unique_ptr<StreamEngine>> StreamEngine::Create(
    const StreamEngineOptions& options) {
  BAGCPD_RETURN_NOT_OK(ValidateStreamEngineOptions(options));
  return std::unique_ptr<StreamEngine>(new StreamEngine(options));
}

StreamEngine::StreamEngine(const StreamEngineOptions& options)
    : options_(options) {
  if (!options_.fault.empty()) {
    // Validated above, so arming cannot fail; the injector is process-wide,
    // so this replaces whatever spec an earlier engine (or BAGCPD_FAULT) set.
    fault::FaultInjector::Global().ArmFromSpec(options_.fault).ok();
  }
  std::size_t n = options_.num_shards;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  arenas_.reserve(n);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    arenas_.push_back(std::make_unique<BufferArena>(options_.arena));
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->arena = arenas_.back().get();
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

StreamEngine::~StreamEngine() { Shutdown(); }

Status StreamEngine::RegisterProfile(const std::string& name,
                                     const DetectorOptions& profile) {
  if (name.empty() || name == kDefaultProfileName) {
    return Status::Invalid(
        "profile name '" + name +
        "' is reserved (the default profile is StreamEngineOptions.detector)");
  }
  if (submit_seq_.load() > 0) {
    return Status::Invalid(
        "RegisterProfile must be called before the first Submit");
  }
  if (profiles_.count(name) > 0) {
    return Status::Invalid("profile '" + name + "' is already registered");
  }
  BAGCPD_RETURN_NOT_OK(ValidateDetectorOptions(profile));
  if (profile.seed != 0) {
    return Status::Invalid(
        "profile '" + name +
        "' has a nonzero detector seed: per-stream seeds derive from the "
        "engine seed, the stream key, and the profile name");
  }
  profiles_.emplace(name, profile);
  return Status::OK();
}

Status StreamEngine::set_event_sink(EventSink sink) {
  // Installing after traffic has started would race shard workers reading
  // sink_ in EmitEvent.
  if (submit_seq_.load() > 0) {
    return Status::Invalid(
        "set_event_sink must be called before the first Submit");
  }
  sink_ = std::move(sink);
  return Status::OK();
}

std::size_t StreamEngine::ShardOf(const std::string& stream_id) const {
  // Stable hash: the shard assignment (and hence nothing observable) depends
  // on platform or process; the per-stream seed derives from the same hash.
  return static_cast<std::size_t>(Rng::StableHash64(stream_id)) %
         shards_.size();
}

Result<std::string> StreamEngine::ResolveProfile(
    const std::string& profile) const {
  if (profile.empty() || profile == kDefaultProfileName) {
    return std::string(kDefaultProfileName);
  }
  if (profiles_.count(profile) == 0) {
    return Status::Invalid("unknown detector profile '" + profile +
                           "' (register it before the first Submit)");
  }
  return profile;
}

const DetectorOptions& StreamEngine::ProfileOptions(
    const std::string& profile) const {
  if (profile == kDefaultProfileName) return options_.detector;
  auto it = profiles_.find(profile);
  BAGCPD_CHECK_MSG(it != profiles_.end(), "unresolved profile '%s'",
                   profile.c_str());
  return it->second;
}

std::uint64_t StreamEngine::DeriveStreamSeed(const std::string& stream_id,
                                             const std::string& profile) const {
  // Seeded by (engine seed, key, profile) only — never by shard index or
  // count — so a stream's entire output is reproducible under resharding and
  // a restarted stream behaves exactly like a fresh one. Shared with the
  // offline batch runner so RunBatchColumnar reproduces engine seeding
  // bit for bit.
  return DerivePerStreamSeed(options_.seed, stream_id, profile);
}

Status StreamEngine::Submit(const std::string& stream_id, const Bag& bag,
                            const std::string& profile) {
  BAGCPD_ASSIGN_OR_RETURN(std::string canonical, ResolveProfile(profile));
  // Flatten exactly once at the ingest boundary, into a buffer recycled
  // through the target shard's arena (released on the shard thread when the
  // task dies — the cross-thread pattern the arena supports). A ragged bag
  // becomes an error task that quarantines the stream on its shard, matching
  // the detector-failure path.
  const std::size_t shard_index = ShardOf(stream_id);
  Result<FlatBag> flat = FlatBag::FromBag(bag, arenas_[shard_index].get());
  return SubmitImpl(stream_id, canonical, shard_index, &flat,
                    /*blocking=*/true);
}

Status StreamEngine::Submit(const std::string& stream_id, FlatBag bag,
                            const std::string& profile) {
  BAGCPD_ASSIGN_OR_RETURN(std::string canonical, ResolveProfile(profile));
  Result<FlatBag> flat(std::move(bag));
  return SubmitImpl(stream_id, canonical, ShardOf(stream_id), &flat,
                    /*blocking=*/true);
}

Status StreamEngine::TrySubmit(const std::string& stream_id, const Bag& bag,
                               const std::string& profile) {
  BAGCPD_ASSIGN_OR_RETURN(std::string canonical, ResolveProfile(profile));
  const std::size_t shard_index = ShardOf(stream_id);
  Result<FlatBag> flat = FlatBag::FromBag(bag, arenas_[shard_index].get());
  return SubmitImpl(stream_id, canonical, shard_index, &flat,
                    /*blocking=*/false);
}

Status StreamEngine::TrySubmit(const std::string& stream_id, FlatBag&& bag,
                               const std::string& profile) {
  BAGCPD_ASSIGN_OR_RETURN(std::string canonical, ResolveProfile(profile));
  Result<FlatBag> flat(std::move(bag));
  const Status status = SubmitImpl(stream_id, canonical, ShardOf(stream_id),
                                   &flat, /*blocking=*/false);
  // Hand the payload back on a transient rejection so callers can retry
  // without re-flattening.
  if (status.IsUnavailable()) bag = flat.MoveValueUnsafe();
  return status;
}

Status StreamEngine::SubmitImpl(const std::string& stream_id,
                                const std::string& profile,
                                std::size_t shard_index, Result<FlatBag>* bag,
                                bool blocking) {
  if (stop_.load()) {
    return Status::Invalid("Submit on a stopped StreamEngine");
  }
  // Boundary sanitization, outside the shard lock: a NaN/Inf bag is tagged
  // here (while still attributable to this submission) and dropped on the
  // shard with a kStreamFault event; the stream continues on its next good
  // bag. Raggedness (bag holding an error) stays a quarantine.
  Status ingest_error;
  if (bag->ok()) {
    ingest_error = CheckBagViewFinite(bag->ValueOrDie().view());
  }
  Shard& shard = *shards_[shard_index];
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    if (blocking) {
      shard.not_full.wait(lock, [&] {
        return shard.queue.size() < options_.shard_queue_capacity ||
               stop_.load();
      });
    } else if (shard.queue.size() >= options_.shard_queue_capacity &&
               !stop_.load()) {
      return Status::Unavailable("shard queue full");
    }
    if (stop_.load()) {
      return Status::Invalid("Submit on a stopped StreamEngine");
    }
    // The sequence number is taken only once queue space is secured, so a
    // rejected TrySubmit never advances the idle clock.
    const std::uint64_t seq = submit_seq_.fetch_add(1) + 1;
    Task task;
    task.stream_id = stream_id;
    task.profile = profile;
    task.bag = std::move(*bag);
    task.seq = seq;
    task.ingest_error = std::move(ingest_error);
    task.enqueued_at = std::chrono::steady_clock::now();
    // `arena.alloc` fault point: a simulated ingest-side allocation failure,
    // keyed to (key hash, global submission sequence) so the same bag faults
    // for every shard count. Surfaces exactly like a bad bag: dropped on the
    // shard, stream unharmed.
    if (task.ingest_error.ok() && task.bag.ok() &&
        fault::FaultFires(fault::FaultPoint::kArenaAlloc,
                          Rng::StableHash64(stream_id), seq)) {
      task.ingest_error =
          fault::InjectedFaultError(fault::FaultPoint::kArenaAlloc);
    }
    shard.queue.push_back(std::move(task));
  }
  shard.not_empty.notify_one();
  return Status::OK();
}

void StreamEngine::WorkerLoop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.not_empty.wait(
          lock, [&] { return stop_.load() || !shard.queue.empty(); });
      if (shard.queue.empty()) return;  // Stopping and fully drained.
      task = std::move(shard.queue.front());
      shard.queue.pop_front();
      shard.busy = true;
    }
    shard.not_full.notify_one();
    const std::uint64_t seq = task.seq;
    Process(shard, std::move(task));
    if ((options_.max_idle_submissions > 0 ||
         options_.spill_gc_submissions > 0) &&
        ++shard.processed_since_sweep >= kIdleSweepPeriod) {
      shard.processed_since_sweep = 0;
      SweepIdle(shard, seq);
    }
    // Byte-budget LRU: spill this shard's coldest streams while the
    // engine-wide resident total is over budget. Runs before busy clears so
    // QuiesceShard callers never observe a mid-spill shard.
    if (options_.spill_resident_bytes > 0 &&
        resident_bytes_.load() > options_.spill_resident_bytes) {
      EnforceSpillBudget(shard, seq);
    }
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.busy = false;
      if (shard.queue.empty()) shard.drained.notify_all();
    }
  }
}

void StreamEngine::EmitEvent(EngineEvent event) {
  if (event.kind == EngineEvent::Kind::kStep) results_emitted_.fetch_add(1);
  if (sink_) {
    sink_(event);
    return;
  }
  // Errors queue even without collect_results, so a failure is never lost;
  // every other kind honors it.
  if (event.kind != EngineEvent::Kind::kError && !options_.collect_results) {
    return;
  }
  std::lock_guard<std::mutex> lock(events_mu_);
  events_.push_back(std::move(event));
}

void StreamEngine::QuarantineStream(Shard& shard, const std::string& stream_id,
                                    std::string profile, std::uint64_t seq,
                                    const Status& error,
                                    std::uint64_t latency_ns) {
  shard.quarantined.emplace(stream_id, error);
  // A quarantined key never recovers; its fault history and snapshot go too.
  shard.recovery.erase(stream_id);
  auto existing = shard.detectors.find(stream_id);
  if (existing != shard.detectors.end()) {
    resident_bytes_.fetch_sub(existing->second.state_bytes);
    shard.detectors.erase(existing);
    live_streams_.fetch_sub(1);
  }
  auto spilled = shard.spilled.find(stream_id);
  if (spilled != shard.spilled.end()) {
    // A quarantined key never rehydrates; drop its spill file too.
    std::remove(spilled->second.path.c_str());
    shard.spilled.erase(spilled);
  }
  {
    std::lock_guard<std::mutex> lock(events_mu_);
    quarantined_keys_.insert(stream_id);
  }
  EngineEvent event;
  event.kind = EngineEvent::Kind::kError;
  event.stream_id = stream_id;
  event.profile = std::move(profile);
  event.sequence = seq;
  event.enqueue_to_process_ns = latency_ns;
  event.error = error;
  EmitEvent(std::move(event));
}

void StreamEngine::HandleStreamFailure(Shard& shard,
                                       const std::string& stream_id,
                                       const std::string& profile,
                                       std::uint64_t seq, const Status& error,
                                       std::uint64_t latency_ns) {
  if (options_.max_stream_faults == 0) {
    // Historical contract: the first failure quarantines forever.
    QuarantineStream(shard, stream_id, profile, seq, error, latency_ns);
    return;
  }
  RecoveryState& rec = shard.recovery[stream_id];
  rec.profile = profile;
  ++rec.fault_count;
  stream_faults_.fetch_add(1);
  // The bag that surfaced the failure is consumed without a result, and the
  // failed detector's state is not trustworthy: tear it down either way.
  dropped_.fetch_add(1);
  auto existing = shard.detectors.find(stream_id);
  if (existing != shard.detectors.end()) {
    resident_bytes_.fetch_sub(existing->second.state_bytes);
    shard.detectors.erase(existing);
    live_streams_.fetch_sub(1);
  }
  EngineEvent event;
  event.kind = EngineEvent::Kind::kStreamFault;
  event.stream_id = stream_id;
  event.profile = profile;
  event.sequence = seq;
  event.enqueue_to_process_ns = latency_ns;
  event.error = error;
  EmitEvent(std::move(event));
  if (rec.fault_count > options_.max_stream_faults) {
    // Budget exhausted; the quarantine carries the final straw.
    QuarantineStream(shard, stream_id, profile, seq, error, latency_ns);
    return;
  }
  if (options_.fault_backoff_submissions > 0) {
    // Linear backoff on the global submission sequence: deterministic for a
    // fixed submission order, unlike any wall-clock delay.
    rec.cooldown_until =
        seq + options_.fault_backoff_submissions *
                  static_cast<std::uint64_t>(rec.fault_count);
  }
  // Restore from the rolling snapshot when one exists. Each attempt can
  // itself fail (a corrupt blob, or the ckpt.import fault point in a drill);
  // after max_restore_failures such failures the snapshot is declared
  // poisoned and discarded, and the stream restarts from scratch — lazily,
  // on its next accepted bag, with its usual per-key seed.
  while (!rec.snapshot.empty()) {
    if (rec.restore_failures >= options_.max_restore_failures) {
      rec.snapshot.clear();
      rec.restore_failures = 0;
      break;
    }
    const Status restored =
        ImportStreamLocked(shard, stream_id, rec.profile, rec.snapshot,
                           rec.snapshot.size(), seq, latency_ns);
    if (restored.ok()) {
      rec.restore_failures = 0;
      return;
    }
    ++rec.restore_failures;
  }
}

void StreamEngine::MaybeSnapshotStream(Shard& shard,
                                       const std::string& stream_id,
                                       StreamState& state) {
  if (options_.snapshot_interval == 0) return;
  if (state.detector->pushed_count() % options_.snapshot_interval != 0) {
    return;
  }
  std::string blob;
  // An export failure just keeps the previous snapshot: strictly better than
  // discarding it, and the next interval retries.
  if (!state.detector->ExportState(&blob).ok()) return;
  RecoveryState& rec = shard.recovery[stream_id];
  rec.profile = state.profile;
  rec.snapshot = std::move(blob);
  rec.restore_failures = 0;
}

void StreamEngine::CollectSpilledStream(Shard& shard,
                                        const std::string& stream_id,
                                        std::uint64_t now_seq) {
  auto it = shard.spilled.find(stream_id);
  if (it == shard.spilled.end()) return;
  std::remove(it->second.path.c_str());
  EngineEvent event;
  event.kind = EngineEvent::Kind::kEviction;
  event.stream_id = stream_id;
  event.profile = it->second.profile;
  event.sequence = now_seq;
  shard.spilled.erase(it);
  // The collected key restarts from scratch, so its fault history goes too.
  shard.recovery.erase(stream_id);
  evicted_.fetch_add(1);
  spill_gc_.fetch_add(1);
  EmitEvent(std::move(event));
}

void StreamEngine::SweepIdle(Shard& shard, std::uint64_t now_seq) {
  // Reclaims detectors idle past the threshold. Without spilling, any stream
  // erased here would also be restarted by the lazy check on its next bag
  // (its gap can only grow), so the sweep changes memory usage, never
  // results. With spilling, victims are exported instead of destroyed and
  // rehydrate bitwise on their next bag — again memory only, never results.
  // Spill-file GC: keys that spilled and never returned are reclaimed here
  // (the lazy per-task check cannot see them — it only runs when a key's
  // next bag arrives). Sweep timing is shard-dependent, so only counters and
  // kEviction timing vary with sharding; results never do (a collected key
  // restarts from scratch either way).
  if (options_.spill_gc_submissions > 0) {
    std::vector<std::string> expired;
    for (const auto& [key, rec] : shard.spilled) {
      if (now_seq > rec.last_seq &&
          now_seq - rec.last_seq > options_.spill_gc_submissions) {
        expired.push_back(key);
      }
    }
    for (const std::string& key : expired) {
      CollectSpilledStream(shard, key, now_seq);
    }
  }
  const std::uint64_t max_idle = options_.max_idle_submissions;
  if (max_idle == 0) return;
  if (spill_enabled()) {
    std::vector<std::string> victims;
    for (const auto& [key, state] : shard.detectors) {
      if (now_seq > state.last_seq && now_seq - state.last_seq > max_idle) {
        victims.push_back(key);
      }
    }
    for (const std::string& key : victims) {
      SpillStream(shard, key, now_seq);
    }
    return;
  }
  for (auto it = shard.detectors.begin(); it != shard.detectors.end();) {
    if (now_seq > it->second.last_seq &&
        now_seq - it->second.last_seq > max_idle) {
      EngineEvent event;
      event.kind = EngineEvent::Kind::kEviction;
      event.stream_id = it->first;
      event.profile = it->second.profile;
      event.sequence = now_seq;
      shard.recovery.erase(it->first);
      it = shard.detectors.erase(it);
      evicted_.fetch_add(1);
      live_streams_.fetch_sub(1);
      EmitEvent(std::move(event));
    } else {
      ++it;
    }
  }
}

void StreamEngine::Process(Shard& shard, Task task) {
  processed_.fetch_add(1);
  // One latency sample per processed submission, taken before any work so the
  // number measures queueing, not detector cost. Sampled even for dropped /
  // quarantining bags: those submissions queued like any other.
  const auto waited = std::chrono::steady_clock::now() - task.enqueued_at;
  const std::uint64_t latency_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count());
  latency_samples_.fetch_add(1);
  latency_total_ns_.fetch_add(latency_ns);
  std::uint64_t prev_max = latency_max_ns_.load();
  while (latency_ns > prev_max &&
         !latency_max_ns_.compare_exchange_weak(prev_max, latency_ns)) {
  }
  if (shard.quarantined.count(task.stream_id) > 0) {
    dropped_.fetch_add(1);
    return;
  }
  if (!task.bag.ok()) {
    // Flattening failed at the ingest boundary: quarantine exactly like a
    // detector failure so later bags of this key are dropped, not processed
    // out of order, and any detector built by earlier good bags is freed.
    QuarantineStream(shard, task.stream_id, task.profile, task.seq,
                     task.bag.status(), latency_ns);
    return;
  }
  {
    // Backoff window from an earlier contained failure: bags inside it are
    // dropped. Keyed to the submission sequence, so the window covers the
    // same bags for every shard count.
    auto rec_it = shard.recovery.find(task.stream_id);
    if (rec_it != shard.recovery.end() &&
        task.seq <= rec_it->second.cooldown_until) {
      dropped_.fetch_add(1);
      return;
    }
  }
  if (!task.ingest_error.ok()) {
    // The ingest boundary tagged this bag (non-finite values or an injected
    // arena.alloc fault): drop it with a kStreamFault event. The detector
    // never saw the bag, so the stream is unharmed, charges no fault budget,
    // and continues on its next good bag.
    dropped_.fetch_add(1);
    EngineEvent event;
    event.kind = EngineEvent::Kind::kStreamFault;
    event.stream_id = task.stream_id;
    event.profile = task.profile;
    event.sequence = task.seq;
    event.enqueue_to_process_ns = latency_ns;
    event.error = task.ingest_error;
    EmitEvent(std::move(event));
    return;
  }
  if (spill_enabled()) {
    auto spilled_it = shard.spilled.find(task.stream_id);
    if (spilled_it != shard.spilled.end()) {
      if (spilled_it->second.profile != task.profile) {
        // The binding survives the spill: a conflicting submission is the
        // same caller bug as against a resident stream.
        QuarantineStream(shard, task.stream_id, spilled_it->second.profile,
                         task.seq,
                         Status::Invalid("stream '" + task.stream_id +
                                         "' is bound to profile '" +
                                         spilled_it->second.profile +
                                         "' but was submitted with profile '" +
                                         task.profile + "'"),
                         latency_ns);
        return;
      }
      if (options_.spill_gc_submissions > 0 &&
          task.seq - spilled_it->second.last_seq - 1 >
              options_.spill_gc_submissions) {
        // The key outlived the GC horizon before this bag arrived: collect
        // the stale file now (the sweep may simply not have run yet) so the
        // keep-or-restart decision is a pure function of the submission
        // sequence, then fall through to a from-scratch restart.
        CollectSpilledStream(shard, task.stream_id, task.seq);
      } else {
        const Status restored =
            RehydrateStream(shard, task.stream_id, task.seq, latency_ns);
        if (!restored.ok()) {
          // Enters the recovery ladder: with a fault budget the stream
          // restarts (from snapshot or scratch) and THIS bag is dropped;
          // without one it quarantines exactly as before.
          HandleStreamFailure(shard, task.stream_id, task.profile, task.seq,
                              restored, latency_ns);
          return;
        }
      }
    }
  }
  auto it = shard.detectors.find(task.stream_id);
  // The lazy idle-restart only exists without spilling: a spilling engine
  // preserves idle state (on disk at worst) instead of discarding it.
  if (!spill_enabled() && it != shard.detectors.end() &&
      options_.max_idle_submissions > 0 &&
      task.seq - it->second.last_seq - 1 > options_.max_idle_submissions) {
    // The key sat idle past the threshold: restart it from scratch. The
    // decision depends only on the global submission sequence, so it is
    // identical for any shard count.
    EngineEvent event;
    event.kind = EngineEvent::Kind::kEviction;
    event.stream_id = task.stream_id;
    event.profile = it->second.profile;
    event.sequence = task.seq;
    event.enqueue_to_process_ns = latency_ns;
    shard.detectors.erase(it);
    it = shard.detectors.end();
    // An evicted key restarts with a clean fault history (same decision the
    // sweep-based eviction makes); keyed to the sequence, so deterministic.
    shard.recovery.erase(task.stream_id);
    evicted_.fetch_add(1);
    live_streams_.fetch_sub(1);
    EmitEvent(std::move(event));
  }
  if (it != shard.detectors.end() && it->second.profile != task.profile) {
    // A key is bound to one profile for its whole (un-evicted) life; a
    // conflicting submission is a caller bug, surfaced like any other
    // stream failure. Depends only on submission order, so the outcome is
    // shard-count deterministic. The event carries the BOUND profile (the
    // EngineEvent.profile contract); the message names both.
    QuarantineStream(shard, task.stream_id, it->second.profile, task.seq,
                     Status::Invalid("stream '" + task.stream_id +
                                     "' is bound to profile '" +
                                     it->second.profile +
                                     "' but was submitted with profile '" +
                                     task.profile + "'"),
                     latency_ns);
    return;
  }
  if (it == shard.detectors.end()) {
    // A stream torn down by a contained fault keeps its profile binding in
    // the recovery record; a conflicting later submission is the same caller
    // bug as against a resident stream.
    auto rec_it = shard.recovery.find(task.stream_id);
    if (rec_it != shard.recovery.end() &&
        !rec_it->second.profile.empty() &&
        rec_it->second.profile != task.profile) {
      QuarantineStream(shard, task.stream_id, rec_it->second.profile, task.seq,
                       Status::Invalid("stream '" + task.stream_id +
                                       "' is bound to profile '" +
                                       rec_it->second.profile +
                                       "' but was submitted with profile '" +
                                       task.profile + "'"),
                       latency_ns);
      return;
    }
    DetectorOptions per_stream = ProfileOptions(task.profile);
    per_stream.seed = DeriveStreamSeed(task.stream_id, task.profile);
    StreamState state;
    // Cannot fail: every registered profile was validated up front and the
    // engine only changes the seed.
    Result<std::unique_ptr<BagStreamDetector>> created =
        BagStreamDetector::Create(per_stream);
    BAGCPD_CHECK_MSG(created.ok(), "validated profile failed Create: %s",
                     created.status().ToString().c_str());
    state.detector = created.MoveValueUnsafe();
    state.profile = task.profile;
    // Signature builds for this stream recycle buffers through the shard's
    // pool; the arena outlives every detector (member declaration order).
    state.detector->set_buffer_arena(shard.arena);
    it = shard.detectors.emplace(task.stream_id, std::move(state)).first;
    streams_created_.fetch_add(1);
    live_streams_.fetch_add(1);
  }
  it->second.last_seq = task.seq;
  Result<std::optional<StepResult>> step =
      it->second.detector->Push(task.bag.ValueOrDie().view());
  if (!step.ok()) {
    HandleStreamFailure(shard, task.stream_id, task.profile, task.seq,
                        step.status(), latency_ns);
    return;
  }
  if (spill_enabled()) UpdateResidentBytes(it->second);
  MaybeSnapshotStream(shard, task.stream_id, it->second);
  if (!step.ValueOrDie().has_value()) return;
  EngineEvent event;
  event.kind = EngineEvent::Kind::kStep;
  event.stream_id = task.stream_id;
  event.profile = task.profile;
  event.sequence = task.seq;
  event.enqueue_to_process_ns = latency_ns;
  event.step = *step.ValueOrDie();
  EmitEvent(std::move(event));
}

void StreamEngine::Flush() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->drained.wait(lock,
                        [&] { return shard->queue.empty() && !shard->busy; });
  }
}

std::vector<EngineEvent> StreamEngine::DrainEvents() {
  std::lock_guard<std::mutex> lock(events_mu_);
  std::vector<EngineEvent> out;
  out.swap(events_);
  return out;
}

Result<std::map<std::string, std::vector<StepResult>>> StreamEngine::RunBatch(
    const std::map<std::string, BagSequence>& streams,
    const std::string& profile) {
  return RunBatch(streams, /*profile_by_key=*/{}, profile);
}

Result<std::map<std::string, std::vector<StepResult>>> StreamEngine::RunBatch(
    const std::map<std::string, BagSequence>& streams,
    const std::map<std::string, std::string>& profile_by_key,
    const std::string& default_profile) {
  if (sink_ || !options_.collect_results) {
    return Status::Invalid(
        "RunBatch needs collect_results = true and no event sink");
  }
  BAGCPD_ASSIGN_OR_RETURN(std::string fallback,
                          ResolveProfile(default_profile));
  // Resolve every key's route up front: an unknown profile name must fail
  // the batch before any bag is enqueued, never after a partial sweep.
  // Routing-map entries for keys outside `streams` are ignored by the same
  // token — only the routes this batch will actually use are validated.
  std::map<std::string, std::string> route;
  for (const auto& [key, bags] : streams) {
    auto it = profile_by_key.find(key);
    if (it == profile_by_key.end()) {
      route.emplace(key, fallback);
    } else {
      BAGCPD_ASSIGN_OR_RETURN(std::string canonical,
                              ResolveProfile(it->second));
      route.emplace(key, std::move(canonical));
    }
  }
  // Isolate this batch from any earlier online traffic still in the queues.
  Flush();
  DrainEvents();
  // A key quarantined by earlier traffic would have its batch bags silently
  // dropped; refuse up front instead.
  {
    std::lock_guard<std::mutex> lock(events_mu_);
    for (const auto& [key, bags] : streams) {
      if (quarantined_keys_.count(key) > 0) {
        return Status::Invalid("stream '" + key +
                               "' was quarantined by an earlier failure");
      }
    }
  }
  // Interleave submissions time-step-first so every shard has work from the
  // start instead of filling one stream's shard at a time.
  std::size_t max_len = 0;
  for (const auto& [key, bags] : streams) {
    max_len = std::max(max_len, bags.size());
  }
  for (std::size_t t = 0; t < max_len; ++t) {
    for (const auto& [key, bags] : streams) {
      if (t < bags.size()) {
        BAGCPD_RETURN_NOT_OK(Submit(key, bags[t], route[key]));
      }
    }
  }
  Flush();
  // One pass over the queue: the first kError fails the batch, kStep events
  // fill the series (each stream's in time order), other kinds are dropped.
  std::map<std::string, std::vector<StepResult>> out;
  for (const auto& [key, bags] : streams) {
    out.emplace(key, std::vector<StepResult>());
  }
  for (const EngineEvent& event : DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kError) {
      return Status::Invalid("stream '" + event.stream_id +
                             "' failed: " + event.error.ToString());
    }
    if (event.kind == EngineEvent::Kind::kStep) {
      out[event.stream_id].push_back(event.step);
    }
  }
  return out;
}

std::unique_lock<std::mutex> StreamEngine::QuiesceShard(Shard& shard) {
  // With the lock held and the predicate true, the worker is parked on its
  // empty-queue wait (it needs the mutex to pop) and Submit is blocked on the
  // mutex, so the caller may safely touch shard-owned state. Post-Shutdown
  // the predicate is true immediately (workers drain before joining).
  std::unique_lock<std::mutex> lock(shard.mu);
  shard.drained.wait(lock, [&] { return shard.queue.empty() && !shard.busy; });
  return lock;
}

void StreamEngine::UpdateResidentBytes(StreamState& state) {
  const std::size_t now = state.detector->EstimatedStateBytes();
  if (now >= state.state_bytes) {
    resident_bytes_.fetch_add(now - state.state_bytes);
  } else {
    resident_bytes_.fetch_sub(state.state_bytes - now);
  }
  state.state_bytes = now;
}

std::string StreamEngine::SpillPathFor(const std::string& stream_id) {
  // Hash plus a never-reused counter: unique even when the same key spills
  // repeatedly, and free of unsanitized key bytes.
  return options_.spill_directory + "/bagcpd-" +
         std::to_string(Rng::StableHash64(stream_id)) + "-" +
         std::to_string(spill_file_seq_.fetch_add(1)) + ".ckpt";
}

bool StreamEngine::SpillStream(Shard& shard, const std::string& stream_id,
                               std::uint64_t now_seq) {
  auto it = shard.detectors.find(stream_id);
  if (it == shard.detectors.end()) return false;
  // `spill.write` fault point: behaves exactly like a failed file write —
  // the stream stays resident, nothing is lost, memory pressure persists.
  if (fault::FaultFires(fault::FaultPoint::kSpillWrite,
                        Rng::StableHash64(stream_id),
                        fault_spill_write_ops_.fetch_add(1) + 1)) {
    return false;
  }
  std::string detector_blob;
  if (!it->second.detector->ExportState(&detector_blob).ok()) return false;
  std::string stream_blob;
  serialize::BuildStreamBlob(stream_id, it->second.profile, detector_blob,
                             &stream_blob);
  SpilledStream rec;
  rec.path = SpillPathFor(stream_id);
  rec.profile = it->second.profile;
  rec.last_seq = it->second.last_seq;
  rec.blob_bytes = stream_blob.size();
  if (!serialize::WriteFileBytes(rec.path, stream_blob).ok()) {
    // Stream stays resident: memory pressure persists but nothing is lost.
    std::remove(rec.path.c_str());
    return false;
  }
  EngineEvent event;
  event.kind = EngineEvent::Kind::kCheckpoint;
  event.stream_id = stream_id;
  event.profile = it->second.profile;
  event.sequence = now_seq;
  event.blob_bytes = rec.blob_bytes;
  resident_bytes_.fetch_sub(it->second.state_bytes);
  // Record the spill BEFORE erasing the detector entry: callers (the budget
  // LRU in particular) pass a stream_id that aliases the map node's key, so
  // the erase must be the last read of it.
  shard.spilled.emplace(stream_id, std::move(rec));
  shard.detectors.erase(it);
  live_streams_.fetch_sub(1);
  spilled_.fetch_add(1);
  EmitEvent(std::move(event));
  return true;
}

Status StreamEngine::RehydrateStream(Shard& shard, const std::string& stream_id,
                                     std::uint64_t seq,
                                     std::uint64_t latency_ns) {
  auto rec_it = shard.spilled.find(stream_id);
  SpilledStream rec = std::move(rec_it->second);
  shard.spilled.erase(rec_it);
  // `spill.read` fault point: behaves exactly like an unreadable spill file.
  // The record is consumed like on any other failure (the caller runs the
  // recovery ladder), and the file is deleted below with the shared epilog.
  if (fault::FaultFires(fault::FaultPoint::kSpillRead,
                        Rng::StableHash64(stream_id),
                        fault_spill_read_ops_.fetch_add(1) + 1)) {
    std::remove(rec.path.c_str());
    return Status::IoError(
        "fault-injected: spill.read (simulated unreadable spill file)");
  }
  // The file is read through the shard arena, so once the pool is warm a
  // rehydrate allocates nothing on this path.
  std::vector<double> storage;
  Status status = [&]() -> Status {
    BAGCPD_ASSIGN_OR_RETURN(
        std::size_t bytes,
        serialize::ReadFileBytes(rec.path, shard.arena, &storage));
    const std::string_view blob = serialize::FileBytesView(storage, bytes);
    BAGCPD_ASSIGN_OR_RETURN(serialize::StreamBlobParts parts,
                            serialize::ParseStreamBlob(blob));
    if (parts.key != stream_id || parts.profile != rec.profile) {
      return Status::IoError("spill file '" + rec.path +
                             "' does not match stream '" + stream_id + "'");
    }
    return ImportStreamLocked(shard, stream_id, rec.profile,
                              parts.detector_blob, blob.size(), seq,
                              latency_ns);
  }();
  shard.arena->Release(std::move(storage));
  // The spill file is consumed either way: on success the state is resident
  // again, on failure the caller quarantines the stream.
  std::remove(rec.path.c_str());
  return status;
}

void StreamEngine::EnforceSpillBudget(Shard& shard, std::uint64_t now_seq) {
  // Coldest-first (smallest last-submission sequence) within this shard; the
  // stream whose bag triggered the check is never its own victim, so a
  // single hot stream cannot thrash through its own spill file. Other shards
  // enforce the same budget from their own workers.
  while (resident_bytes_.load() > options_.spill_resident_bytes) {
    const std::string* victim = nullptr;
    std::uint64_t coldest = now_seq;
    for (const auto& [key, state] : shard.detectors) {
      if (state.last_seq < coldest) {
        coldest = state.last_seq;
        victim = &key;
      }
    }
    if (victim == nullptr || !SpillStream(shard, *victim, now_seq)) return;
  }
}

Status StreamEngine::ExportStream(const std::string& stream_id,
                                  std::string* blob) {
  Shard& shard = *shards_[ShardOf(stream_id)];
  std::unique_lock<std::mutex> lock = QuiesceShard(shard);
  return ExportStreamLocked(shard, stream_id, blob);
}

Status StreamEngine::ExportStreamLocked(Shard& shard,
                                        const std::string& stream_id,
                                        std::string* blob) {
  auto quarantined = shard.quarantined.find(stream_id);
  if (quarantined != shard.quarantined.end()) {
    return Status::Invalid("stream '" + stream_id + "' is quarantined: " +
                           quarantined->second.ToString());
  }
  std::string profile;
  auto it = shard.detectors.find(stream_id);
  if (it != shard.detectors.end()) {
    std::string detector_blob;
    BAGCPD_RETURN_NOT_OK(it->second.detector->ExportState(&detector_blob));
    blob->clear();
    serialize::BuildStreamBlob(stream_id, it->second.profile, detector_blob,
                               blob);
    profile = it->second.profile;
  } else {
    auto spilled = shard.spilled.find(stream_id);
    if (spilled == shard.spilled.end()) {
      return Status::Invalid("no stream with key '" + stream_id + "'");
    }
    // A spilled stream's file already IS its engine-stream blob.
    std::vector<double> storage;
    Result<std::size_t> read =
        serialize::ReadFileBytes(spilled->second.path, shard.arena, &storage);
    if (!read.ok()) {
      shard.arena->Release(std::move(storage));
      return read.status();
    }
    blob->assign(serialize::FileBytesView(storage, read.ValueOrDie()));
    shard.arena->Release(std::move(storage));
    profile = spilled->second.profile;
  }
  EngineEvent event;
  event.kind = EngineEvent::Kind::kCheckpoint;
  event.stream_id = stream_id;
  event.profile = std::move(profile);
  event.sequence = submit_seq_.load();
  event.blob_bytes = blob->size();
  EmitEvent(std::move(event));
  return Status::OK();
}

Status StreamEngine::ImportStream(const std::string& stream_id,
                                  std::string_view blob) {
  BAGCPD_ASSIGN_OR_RETURN(serialize::StreamBlobParts parts,
                          serialize::ParseStreamBlob(blob));
  if (parts.key != stream_id) {
    return Status::Invalid("blob was exported for stream '" +
                           std::string(parts.key) + "', not '" + stream_id +
                           "'");
  }
  const std::string profile(parts.profile);
  if (profile != kDefaultProfileName && profiles_.count(profile) == 0) {
    return Status::Invalid("blob binds stream '" + stream_id +
                           "' to unregistered profile '" + profile + "'");
  }
  Shard& shard = *shards_[ShardOf(stream_id)];
  std::unique_lock<std::mutex> lock = QuiesceShard(shard);
  if (shard.quarantined.count(stream_id) > 0) {
    return Status::Invalid("stream '" + stream_id +
                           "' was quarantined by an earlier failure");
  }
  if (shard.detectors.count(stream_id) > 0 ||
      shard.spilled.count(stream_id) > 0) {
    return Status::Invalid(
        "stream '" + stream_id +
        "' is already bound; an import may not replace live state");
  }
  return ImportStreamLocked(shard, stream_id, profile, parts.detector_blob,
                            blob.size(), submit_seq_.load(),
                            /*latency_ns=*/0);
}

Status StreamEngine::ImportStreamLocked(Shard& shard,
                                        const std::string& stream_id,
                                        const std::string& profile,
                                        std::string_view detector_blob,
                                        std::uint64_t blob_bytes,
                                        std::uint64_t last_seq,
                                        std::uint64_t latency_ns) {
  // `ckpt.import` fault point: fails the restore attempt before any state is
  // touched (never leaves a partial stream), covering snapshot restores,
  // spill rehydrates, and explicit imports alike.
  if (fault::FaultFires(fault::FaultPoint::kCkptImport,
                        Rng::StableHash64(stream_id),
                        fault_ckpt_import_ops_.fetch_add(1) + 1)) {
    return fault::InjectedFaultError(fault::FaultPoint::kCkptImport);
  }
  DetectorOptions per_stream = ProfileOptions(profile);
  per_stream.seed = DeriveStreamSeed(stream_id, profile);
  // The spec gate inside ImportState compares the blob's result keys against
  // these options' (seed included), so a wrong profile definition or engine
  // seed surfaces as Invalid here rather than as silently different scores.
  BAGCPD_ASSIGN_OR_RETURN(std::unique_ptr<BagStreamDetector> detector,
                          BagStreamDetector::Create(per_stream));
  detector->set_buffer_arena(shard.arena);
  BAGCPD_RETURN_NOT_OK(detector->ImportState(detector_blob));
  StreamState state;
  state.detector = std::move(detector);
  state.profile = profile;
  state.last_seq = last_seq;
  auto it = shard.detectors.emplace(stream_id, std::move(state)).first;
  if (spill_enabled()) UpdateResidentBytes(it->second);
  // Restores continue an existing stream, so streams_created_ stays put.
  live_streams_.fetch_add(1);
  restored_.fetch_add(1);
  EngineEvent event;
  event.kind = EngineEvent::Kind::kRestore;
  event.stream_id = stream_id;
  event.profile = profile;
  event.sequence = last_seq;
  event.enqueue_to_process_ns = latency_ns;
  event.blob_bytes = blob_bytes;
  EmitEvent(std::move(event));
  return Status::OK();
}

Status StreamEngine::Checkpoint(std::string* blob) {
  // Shards are visited (and quiesced) one at a time in index order, keys
  // sorted within each shard, so the byte stream is deterministic for a
  // given engine state; the caller keeps submissions stopped across the walk
  // for the snapshot to be one consistent cut.
  std::vector<std::string> stream_blobs;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock<std::mutex> lock = QuiesceShard(shard);
    std::vector<std::string> keys;
    keys.reserve(shard.detectors.size() + shard.spilled.size());
    for (const auto& [key, state] : shard.detectors) keys.push_back(key);
    for (const auto& [key, rec] : shard.spilled) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const std::string& key : keys) {
      std::string stream_blob;
      BAGCPD_RETURN_NOT_OK(ExportStreamLocked(shard, key, &stream_blob));
      stream_blobs.push_back(std::move(stream_blob));
    }
  }
  blob->clear();
  serialize::WireWriter writer(blob);
  writer.BeginBlob(serialize::BlobKind::kEngineCheckpoint);
  writer.BeginSection(serialize::kSecEngineMeta);
  writer.PutU64(options_.seed);
  writer.PutU64(stream_blobs.size());
  writer.EndSection();
  for (const std::string& stream_blob : stream_blobs) {
    writer.BeginSection(serialize::kSecEngineStream);
    writer.PutBytes(stream_blob.data(), stream_blob.size());
    writer.EndSection();
  }
  writer.EndBlob();
  return Status::OK();
}

Status StreamEngine::Restore(std::string_view blob) {
  BAGCPD_ASSIGN_OR_RETURN(
      serialize::WireReader reader,
      serialize::OpenBlob(blob, serialize::BlobKind::kEngineCheckpoint));
  bool have_meta = false;
  std::uint64_t declared = 0;
  std::uint64_t seen = 0;
  while (!reader.AtEnd()) {
    std::uint32_t tag = 0;
    std::string_view payload;
    BAGCPD_RETURN_NOT_OK(reader.NextSection(&tag, &payload));
    if (tag == serialize::kSecEngineMeta) {
      serialize::WireReader meta(payload);
      std::uint64_t engine_seed = 0;
      BAGCPD_RETURN_NOT_OK(meta.ReadU64(&engine_seed));
      BAGCPD_RETURN_NOT_OK(meta.ReadU64(&declared));
      if (engine_seed != options_.seed) {
        return Status::Invalid(
            "checkpoint was taken with engine seed " +
            std::to_string(engine_seed) + " but this engine is seeded " +
            std::to_string(options_.seed) +
            "; per-stream seeds would not match");
      }
      have_meta = true;
    } else if (tag == serialize::kSecEngineStream) {
      BAGCPD_ASSIGN_OR_RETURN(serialize::StreamBlobParts parts,
                              serialize::ParseStreamBlob(payload));
      BAGCPD_RETURN_NOT_OK(ImportStream(std::string(parts.key), payload));
      ++seen;
    }
    // Unknown tags: forward-compatible extensions, skipped.
  }
  if (!have_meta) {
    return Status::IoError("engine checkpoint is missing its metadata");
  }
  if (seen != declared) {
    return Status::IoError("engine checkpoint declares " +
                           std::to_string(declared) + " streams but holds " +
                           std::to_string(seen));
  }
  return Status::OK();
}

EngineLatencyStats StreamEngine::latency_stats() const {
  EngineLatencyStats stats;
  stats.samples = latency_samples_.load();
  stats.total_ns = latency_total_ns_.load();
  stats.max_ns = latency_max_ns_.load();
  return stats;
}

BufferArenaStats StreamEngine::arena_stats() const {
  BufferArenaStats total;
  for (const auto& arena : arenas_) {
    const BufferArenaStats s = arena->stats();
    total.acquires += s.acquires;
    total.pool_hits += s.pool_hits;
    total.releases += s.releases;
    total.dropped_releases += s.dropped_releases;
    total.pooled_buffers += s.pooled_buffers;
    total.pooled_doubles += s.pooled_doubles;
  }
  return total;
}

void StreamEngine::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  stop_.store(true);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->not_empty.notify_all();
    shard->not_full.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

}  // namespace bagcpd

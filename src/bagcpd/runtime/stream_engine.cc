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

// How many tasks a shard processes between idle sweeps. The sweep only
// reclaims memory (see SweepIdle), so its shard-dependent timing never
// changes a result.
constexpr std::uint64_t kIdleSweepPeriod = 512;

// The one horizon rule: true when more than `horizon` engine-wide
// submissions came between a key's last bag (`last_seq`) and a bag at
// `next_seq`. A horizon of 0 means none.
bool PastHorizon(std::uint64_t last_seq, std::uint64_t next_seq,
                 std::uint64_t horizon) {
  return horizon > 0 && next_seq > last_seq &&
         next_seq - last_seq - 1 > horizon;
}

}  // namespace

Status ValidateStreamEngineOptions(const StreamEngineOptions& options) {
  if (options.shard_queue_capacity < 1) {
    return Status::Invalid("shard_queue_capacity must be >= 1");
  }
  // Surface bad arena tuning like any other option (the BufferArena
  // constructor would abort on it).
  BAGCPD_RETURN_NOT_OK(ValidateBufferArenaOptions(options.arena));
  // Fail fast on a detector misconfiguration instead of quarantining every
  // stream on first push.
  BAGCPD_RETURN_NOT_OK(ValidateProfile(kDefaultProfileName, options.detector));
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
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_.arena));
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

StreamEngine::~StreamEngine() { Shutdown(); }

Status StreamEngine::RegisterProfile(const std::string& name,
                                     const DetectorOptions& profile) {
  if (submit_seq_.load() > 0) {
    return Status::Invalid(
        "RegisterProfile must be called before the first Submit");
  }
  return AddProfile(name, profile, &profiles_);
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

Status StreamEngine::Submit(const std::string& stream_id, const Bag& bag,
                            const std::string& profile) {
  BAGCPD_ASSIGN_OR_RETURN(std::string canonical,
                          CanonicalProfile(profiles_, profile));
  // Flatten exactly once at the ingest boundary, into a buffer recycled
  // through the target shard's arena (released on the shard thread when the
  // task dies — the cross-thread pattern the arena supports). A ragged bag
  // becomes an error task that quarantines the stream on its shard, matching
  // the detector-failure path.
  const std::size_t shard_index = ShardOf(stream_id);
  Result<FlatBag> flat = FlatBag::FromBag(bag, &shards_[shard_index]->arena);
  return SubmitImpl(stream_id, canonical, shard_index, &flat,
                    /*blocking=*/true);
}

Status StreamEngine::Submit(const std::string& stream_id, FlatBag bag,
                            const std::string& profile) {
  BAGCPD_ASSIGN_OR_RETURN(std::string canonical,
                          CanonicalProfile(profiles_, profile));
  Result<FlatBag> flat(std::move(bag));
  return SubmitImpl(stream_id, canonical, ShardOf(stream_id), &flat,
                    /*blocking=*/true);
}

Status StreamEngine::TrySubmit(const std::string& stream_id, const Bag& bag,
                               const std::string& profile) {
  BAGCPD_ASSIGN_OR_RETURN(std::string canonical,
                          CanonicalProfile(profiles_, profile));
  const std::size_t shard_index = ShardOf(stream_id);
  Result<FlatBag> flat = FlatBag::FromBag(bag, &shards_[shard_index]->arena);
  return SubmitImpl(stream_id, canonical, shard_index, &flat,
                    /*blocking=*/false);
}

Status StreamEngine::TrySubmit(const std::string& stream_id, FlatBag&& bag,
                               const std::string& profile) {
  BAGCPD_ASSIGN_OR_RETURN(std::string canonical,
                          CanonicalProfile(profiles_, profile));
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

void StreamEngine::Transition(Shard& shard, StreamTable::iterator it,
                              Move move, std::uint64_t seq,
                              std::uint64_t latency_ns, const Status& error,
                              std::uint64_t blob_bytes) {
  Stream& stream = it->second;
  const Phase from = stream.phase;
  if (from == Phase::kLive) {
    resident_bytes_.fetch_sub(stream.state_bytes);
    stream.state_bytes = 0;
    stream.detector.reset();
    live_streams_.fetch_sub(1);
  } else if (from == Phase::kSpilled) {
    std::remove(stream.spill_path.c_str());
    stream.spill_path.clear();
  }
  EngineEvent event;
  event.stream_id = it->first;
  event.profile = stream.profile;
  event.sequence = seq;
  event.enqueue_to_process_ns = latency_ns;
  event.blob_bytes = blob_bytes;
  event.error = error;
  switch (move) {
    case Move::kCreate:
      stream.phase = Phase::kLive;
      live_streams_.fetch_add(1);
      streams_created_.fetch_add(1);
      return;
    case Move::kRestore:
      stream.phase = Phase::kLive;
      live_streams_.fetch_add(1);
      restored_.fetch_add(1);
      if (spill_enabled()) UpdateResidentBytes(stream);
      event.kind = EngineEvent::Kind::kRestore;
      break;
    case Move::kSpill:
      stream.phase = Phase::kSpilled;
      spilled_.fetch_add(1);
      event.kind = EngineEvent::Kind::kCheckpoint;
      break;
    case Move::kFault:
      stream.phase = Phase::kDown;
      stream_faults_.fetch_add(1);
      event.kind = EngineEvent::Kind::kStreamFault;
      break;
    case Move::kQuarantine:
      // A quarantined key never recovers; its fault history and snapshot go.
      stream.phase = Phase::kQuarantined;
      stream.error = error;
      stream.fault_count = 0;
      stream.cooldown_until = 0;
      std::string().swap(stream.snapshot);
      event.kind = EngineEvent::Kind::kError;
      break;
    case Move::kForget:
      // A forgotten key restarts from scratch with a clean fault history.
      evicted_.fetch_add(1);
      if (from == Phase::kSpilled) spill_gc_.fetch_add(1);
      shard.streams.erase(it);
      event.kind = EngineEvent::Kind::kEviction;
      break;
  }
  EmitEvent(std::move(event));
}

void StreamEngine::HandleStreamFailure(Shard& shard, StreamTable::iterator it,
                                       std::uint64_t seq, const Status& error,
                                       std::uint64_t latency_ns) {
  if (options_.max_stream_faults == 0) {
    // Historical contract: the first failure quarantines forever.
    Transition(shard, it, Move::kQuarantine, seq, latency_ns, error);
    return;
  }
  Stream& stream = it->second;
  ++stream.fault_count;
  // The bag that surfaced the failure is consumed without a result, and the
  // failed detector's state is not trustworthy: tear it down either way.
  dropped_.fetch_add(1);
  Transition(shard, it, Move::kFault, seq, latency_ns, error);
  if (stream.fault_count > options_.max_stream_faults) {
    // Budget exhausted; the quarantine carries the final straw.
    Transition(shard, it, Move::kQuarantine, seq, latency_ns, error);
    return;
  }
  if (options_.fault_backoff_submissions > 0) {
    // Linear backoff on the global submission sequence: deterministic for a
    // fixed submission order, unlike any wall-clock delay.
    stream.cooldown_until =
        seq + options_.fault_backoff_submissions *
                  static_cast<std::uint64_t>(stream.fault_count);
  }
  // Restore from the rolling snapshot when one exists. Each attempt can
  // itself fail (a corrupt blob, or the ckpt.import fault point in a drill);
  // after max_restore_failures such failures the snapshot is declared
  // poisoned and discarded, and the stream stays kDown: it restarts from
  // scratch on its next accepted bag, with its usual per-key seed.
  while (!stream.snapshot.empty()) {
    if (stream.restore_failures >= options_.max_restore_failures) {
      stream.snapshot.clear();
      stream.restore_failures = 0;
      break;
    }
    const Status restored =
        ImportStreamLocked(shard, it->first, stream.profile, stream.snapshot,
                           stream.snapshot.size(), seq, latency_ns);
    if (restored.ok()) {
      stream.restore_failures = 0;
      return;
    }
    ++stream.restore_failures;
  }
}

void StreamEngine::MaybeSnapshotStream(Stream& stream) {
  if (options_.snapshot_interval == 0) return;
  if (stream.detector->pushed_count() % options_.snapshot_interval != 0) {
    return;
  }
  std::string blob;
  // An export failure just keeps the previous snapshot: strictly better than
  // discarding it, and the next interval retries.
  if (!stream.detector->ExportState(&blob).ok()) return;
  stream.snapshot = std::move(blob);
  stream.restore_failures = 0;
}

void StreamEngine::SweepIdle(Shard& shard, std::uint64_t now_seq) {
  // Any later bag of a key has a sequence past now_seq, so a key past the
  // horizon at now_seq + 1 would be forgotten by its next bag's check in
  // Process anyway: forgetting it here changes memory, never results. With
  // spilling, a live key idle past max_idle_submissions is spilled first; it
  // rehydrates bitwise on its next bag, or a later sweep forgets it. Memory
  // again. Quarantined keys stay: their later bags are still dropped.
  const std::uint64_t next_seq = now_seq + 1;
  auto spill_due = [&](const Stream& stream) {
    return spill_enabled() && stream.phase == Phase::kLive &&
           PastHorizon(stream.last_seq, next_seq,
                       options_.max_idle_submissions);
  };
  auto forget_due = [&](const Stream& stream) {
    return stream.phase != Phase::kQuarantined &&
           PastHorizon(stream.last_seq, next_seq, horizon());
  };
  std::vector<std::string> idle;
  for (const auto& [key, stream] : shard.streams) {
    if (spill_due(stream) || forget_due(stream)) idle.push_back(key);
  }
  for (const std::string& key : idle) {
    auto it = shard.streams.find(key);
    if (spill_due(it->second) && SpillStream(shard, it, now_seq)) continue;
    if (forget_due(it->second)) Transition(shard, it, Move::kForget, now_seq);
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
  // One lookup, then one fixed order of decisions for every phase. Each
  // depends only on the key's bags and the global submission sequence, so
  // the outcome is the same for every shard count.
  auto it = shard.streams.find(task.stream_id);
  if (it != shard.streams.end()) {
    const Stream& stream = it->second;
    if (stream.phase == Phase::kQuarantined) {
      dropped_.fetch_add(1);
      return;
    }
    if (PastHorizon(stream.last_seq, task.seq, horizon())) {
      // Idle past the horizon, whatever the phase: forget the key, and this
      // bag starts it afresh with a clean history.
      Transition(shard, it, Move::kForget, task.seq, latency_ns);
      it = shard.streams.end();
    } else if (stream.profile != task.profile) {
      // A key is bound to one profile until it is forgotten; a conflicting
      // submission is a caller bug, surfaced like any other stream failure.
      // The event carries the BOUND profile; the message names both.
      Transition(shard, it, Move::kQuarantine, task.seq, latency_ns,
                 Status::Invalid("stream '" + task.stream_id +
                                 "' is bound to profile '" + stream.profile +
                                 "' but was submitted with profile '" +
                                 task.profile + "'"));
      return;
    } else {
      // Any bag of the key, even one dropped below, is activity: a key that
      // keeps sending through a backoff window is not idle.
      it->second.last_seq = task.seq;
    }
  }
  // The key's entry, created bound to this bag's profile on first sight.
  auto bind = [&] {
    if (it == shard.streams.end()) {
      it = shard.streams.try_emplace(task.stream_id).first;
      it->second.profile = task.profile;
      it->second.last_seq = task.seq;
    }
  };
  if (!task.bag.ok()) {
    // Flattening failed at the ingest boundary: quarantine exactly like a
    // detector failure so later bags of this key are dropped, not processed
    // out of order, and any detector built by earlier good bags is freed.
    bind();
    Transition(shard, it, Move::kQuarantine, task.seq, latency_ns,
               task.bag.status());
    return;
  }
  if (it != shard.streams.end() && task.seq <= it->second.cooldown_until) {
    // Backoff window from an earlier contained failure: bags inside it are
    // dropped. Keyed to the submission sequence, so the window covers the
    // same bags for every shard count.
    dropped_.fetch_add(1);
    return;
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
  bind();
  Stream& stream = it->second;
  if (stream.phase == Phase::kSpilled) {
    const Status restored = RehydrateStream(shard, it, task.seq, latency_ns);
    if (!restored.ok()) {
      // Enters the recovery ladder: with a fault budget the stream restarts
      // (from snapshot or scratch) and THIS bag is dropped; without one it
      // quarantines.
      HandleStreamFailure(shard, it, task.seq, restored, latency_ns);
      return;
    }
  } else if (stream.phase == Phase::kDown) {
    // Cannot fail: every registered profile was validated up front and the
    // engine only changes the seed.
    Result<std::unique_ptr<BagStreamDetector>> created =
        NewProfileDetector(options_.detector, profiles_, options_.seed,
                           task.stream_id, stream.profile);
    BAGCPD_CHECK_MSG(created.ok(), "validated profile failed Create: %s",
                     created.status().ToString().c_str());
    stream.detector = created.MoveValueUnsafe();
    Transition(shard, it, Move::kCreate, task.seq);
  }
  Result<std::optional<StepResult>> step =
      stream.detector->Push(task.bag.ValueOrDie().view());
  if (!step.ok()) {
    HandleStreamFailure(shard, it, task.seq, step.status(), latency_ns);
    return;
  }
  if (spill_enabled()) UpdateResidentBytes(stream);
  MaybeSnapshotStream(stream);
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

std::unique_lock<std::mutex> StreamEngine::QuiesceShard(Shard& shard) {
  // With the lock held and the predicate true, the worker is parked on its
  // empty-queue wait (it needs the mutex to pop) and Submit is blocked on the
  // mutex, so the caller may safely touch shard-owned state. Post-Shutdown
  // the predicate is true immediately (workers drain before joining).
  std::unique_lock<std::mutex> lock(shard.mu);
  shard.drained.wait(lock, [&] { return shard.queue.empty() && !shard.busy; });
  return lock;
}

void StreamEngine::UpdateResidentBytes(Stream& stream) {
  const std::size_t now = stream.detector->EstimatedStateBytes();
  if (now >= stream.state_bytes) {
    resident_bytes_.fetch_add(now - stream.state_bytes);
  } else {
    resident_bytes_.fetch_sub(stream.state_bytes - now);
  }
  stream.state_bytes = now;
}

std::string StreamEngine::SpillPathFor(const std::string& stream_id) {
  // Hash plus a never-reused counter: unique even when the same key spills
  // repeatedly, and free of unsanitized key bytes.
  return options_.spill_directory + "/bagcpd-" +
         std::to_string(Rng::StableHash64(stream_id)) + "-" +
         std::to_string(spill_file_seq_.fetch_add(1)) + ".ckpt";
}

bool StreamEngine::SpillStream(Shard& shard, StreamTable::iterator it,
                               std::uint64_t now_seq) {
  const std::string& stream_id = it->first;
  Stream& stream = it->second;
  // `spill.write` fault point: behaves exactly like a failed file write —
  // the stream stays resident, nothing is lost, memory pressure persists.
  if (fault::FaultFires(fault::FaultPoint::kSpillWrite,
                        Rng::StableHash64(stream_id),
                        fault_spill_write_ops_.fetch_add(1) + 1)) {
    return false;
  }
  std::string detector_blob;
  if (!stream.detector->ExportState(&detector_blob).ok()) return false;
  std::string stream_blob;
  serialize::BuildStreamBlob(stream_id, stream.profile, detector_blob,
                             &stream_blob);
  std::string path = SpillPathFor(stream_id);
  if (!serialize::WriteFileBytes(path, stream_blob).ok()) {
    // Stream stays resident: memory pressure persists but nothing is lost.
    std::remove(path.c_str());
    return false;
  }
  stream.spill_path = std::move(path);
  Transition(shard, it, Move::kSpill, now_seq, /*latency_ns=*/0, Status(),
             stream_blob.size());
  return true;
}

Status StreamEngine::RehydrateStream(Shard& shard, StreamTable::iterator it,
                                     std::uint64_t seq,
                                     std::uint64_t latency_ns) {
  const std::string& stream_id = it->first;
  const Stream& stream = it->second;
  // `spill.read` fault point: behaves exactly like an unreadable spill file
  // (the caller's recovery ladder deletes it with the phase change).
  if (fault::FaultFires(fault::FaultPoint::kSpillRead,
                        Rng::StableHash64(stream_id),
                        fault_spill_read_ops_.fetch_add(1) + 1)) {
    return Status::IoError(
        "fault-injected: spill.read (simulated unreadable spill file)");
  }
  // The file is read through the shard arena, so once the pool is warm a
  // rehydrate allocates nothing on this path.
  std::vector<double> storage;
  Status status = [&]() -> Status {
    BAGCPD_ASSIGN_OR_RETURN(
        std::size_t bytes,
        serialize::ReadFileBytes(stream.spill_path, &shard.arena, &storage));
    const std::string_view blob = serialize::FileBytesView(storage, bytes);
    BAGCPD_ASSIGN_OR_RETURN(serialize::StreamBlobParts parts,
                            serialize::ParseStreamBlob(blob));
    if (parts.key != stream_id || parts.profile != stream.profile) {
      return Status::IoError("spill file '" + stream.spill_path +
                             "' does not match stream '" + stream_id + "'");
    }
    return ImportStreamLocked(shard, stream_id, stream.profile,
                              parts.detector_blob, blob.size(), seq,
                              latency_ns);
  }();
  shard.arena.Release(std::move(storage));
  return status;
}

void StreamEngine::EnforceSpillBudget(Shard& shard, std::uint64_t now_seq) {
  // Coldest-first (smallest last-submission sequence) within this shard; the
  // stream whose bag triggered the check is never its own victim, so a
  // single hot stream cannot thrash through its own spill file. Other shards
  // enforce the same budget from their own workers.
  while (resident_bytes_.load() > options_.spill_resident_bytes) {
    auto victim = shard.streams.end();
    std::uint64_t coldest = now_seq;
    for (auto it = shard.streams.begin(); it != shard.streams.end(); ++it) {
      if (it->second.phase == Phase::kLive && it->second.last_seq < coldest) {
        coldest = it->second.last_seq;
        victim = it;
      }
    }
    if (victim == shard.streams.end() || !SpillStream(shard, victim, now_seq)) {
      return;
    }
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
  auto it = shard.streams.find(stream_id);
  if (it != shard.streams.end() && it->second.phase == Phase::kQuarantined) {
    return Status::Invalid("stream '" + stream_id + "' is quarantined: " +
                           it->second.error.ToString());
  }
  if (it == shard.streams.end() || it->second.phase == Phase::kDown) {
    return Status::Invalid("no stream with key '" + stream_id + "'");
  }
  const Stream& stream = it->second;
  if (stream.phase == Phase::kLive) {
    std::string detector_blob;
    BAGCPD_RETURN_NOT_OK(stream.detector->ExportState(&detector_blob));
    blob->clear();
    serialize::BuildStreamBlob(stream_id, stream.profile, detector_blob, blob);
  } else {
    // A spilled stream's file already IS its engine-stream blob.
    std::vector<double> storage;
    Result<std::size_t> read =
        serialize::ReadFileBytes(stream.spill_path, &shard.arena, &storage);
    if (!read.ok()) {
      shard.arena.Release(std::move(storage));
      return read.status();
    }
    blob->assign(serialize::FileBytesView(storage, read.ValueOrDie()));
    shard.arena.Release(std::move(storage));
  }
  EngineEvent event;
  event.kind = EngineEvent::Kind::kCheckpoint;
  event.stream_id = stream_id;
  event.profile = stream.profile;
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
  auto it = shard.streams.find(stream_id);
  if (it != shard.streams.end()) {
    if (it->second.phase == Phase::kQuarantined) {
      return Status::Invalid("stream '" + stream_id +
                             "' was quarantined by an earlier failure");
    }
    if (it->second.phase != Phase::kDown) {
      return Status::Invalid(
          "stream '" + stream_id +
          "' is already bound; an import may not replace live state");
    }
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
  // The spec gate inside ImportState compares the blob's result keys against
  // the profile's options (seed included), so a wrong profile definition or
  // engine seed surfaces as Invalid here rather than as silently different
  // scores.
  BAGCPD_ASSIGN_OR_RETURN(
      std::unique_ptr<BagStreamDetector> detector,
      NewProfileDetector(options_.detector, profiles_, options_.seed,
                         stream_id, profile));
  BAGCPD_RETURN_NOT_OK(detector->ImportState(detector_blob));
  // Restores continue an existing stream, so streams_created_ stays put.
  auto it = shard.streams.try_emplace(stream_id).first;
  it->second.profile = profile;
  it->second.detector = std::move(detector);
  it->second.last_seq = last_seq;
  Transition(shard, it, Move::kRestore, last_seq, latency_ns, Status(),
             blob_bytes);
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
    for (const auto& [key, stream] : shard.streams) {
      if (stream.phase == Phase::kLive || stream.phase == Phase::kSpilled) {
        keys.push_back(key);
      }
    }
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
  for (const auto& shard : shards_) {
    const BufferArenaStats s = shard->arena.stats();
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

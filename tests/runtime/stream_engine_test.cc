#include "bagcpd/runtime/stream_engine.h"

#include <atomic>
#include <future>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/gmm.h"
#include "testing/engine_sweep.h"

namespace bagcpd {
namespace {

DetectorOptions SmallDetector() {
  DetectorOptions options;
  options.tau = 4;
  options.tau_prime = 4;
  options.bootstrap.replicates = 40;
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 4;
  return options;
}

// A 2-d stream with a mean jump at `change_at` (no jump when change_at == 0).
BagSequence JumpStream(std::size_t length, std::size_t change_at,
                       std::uint64_t seed) {
  Rng rng(seed);
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 0.5);
  const GaussianMixture after = GaussianMixture::Isotropic({5.0, 5.0}, 0.5);
  BagSequence bags;
  for (std::size_t t = 0; t < length; ++t) {
    const GaussianMixture& mix =
        (change_at > 0 && t >= change_at) ? after : before;
    bags.push_back(mix.SampleBag(20, &rng));
  }
  return bags;
}

StreamEngineOptions SmallEngine(std::size_t shards) {
  StreamEngineOptions options;
  options.num_shards = shards;
  options.detector = SmallDetector();
  options.seed = 99;
  return options;
}

// Drains the engine's queue and keeps its kStep events, in queue order.
std::vector<EngineEvent> DrainSteps(StreamEngine& engine) {
  std::vector<EngineEvent> steps;
  for (EngineEvent& event : engine.DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kStep) {
      steps.push_back(std::move(event));
    }
  }
  return steps;
}

TEST(StreamEngineTest, RejectsBadOptions) {
  StreamEngineOptions options = SmallEngine(2);
  options.shard_queue_capacity = 0;
  EXPECT_FALSE(StreamEngine::Create(options).ok());

  StreamEngineOptions bad_detector = SmallEngine(2);
  bad_detector.detector.tau = 1;
  EXPECT_FALSE(StreamEngine::Create(bad_detector).ok());

  // Bad arena tuning fails creation like every other option (instead of
  // aborting inside the BufferArena constructor).
  StreamEngineOptions bad_arena = SmallEngine(2);
  bad_arena.arena.min_buffer_capacity = 100;  // Not a power of two.
  EXPECT_FALSE(StreamEngine::Create(bad_arena).ok());

  StreamEngineOptions inverted_arena = SmallEngine(2);
  inverted_arena.arena.min_buffer_capacity = 64;
  inverted_arena.arena.max_buffer_capacity = 32;
  EXPECT_FALSE(StreamEngine::Create(inverted_arena).ok());
}

TEST(StreamEngineTest, SubmitFlushDrainProcessesEveryBag) {
  auto engine_owner = StreamEngine::Create(SmallEngine(3)).MoveValueUnsafe();
  StreamEngine& engine = *engine_owner;
  const std::size_t kStreams = 6;
  const std::size_t kLength = 12;
  for (std::size_t s = 0; s < kStreams; ++s) {
    BagSequence bags = JumpStream(kLength, 0, 100 + s);
    for (Bag& bag : bags) {
      ASSERT_TRUE(engine.Submit("stream-" + std::to_string(s), bag).ok());
    }
  }
  engine.Flush();
  EXPECT_EQ(engine.submitted_count(), kStreams * kLength);
  EXPECT_EQ(engine.processed_count(), kStreams * kLength);
  EXPECT_EQ(engine.stream_count(), kStreams);
  std::vector<EngineEvent> results = DrainSteps(engine);
  // Each stream yields length - (tau + tau') + 1 = 12 - 8 + 1 = 5 results.
  EXPECT_EQ(results.size(), kStreams * 5u);
  EXPECT_EQ(engine.result_count(), kStreams * 5u);
  // Per-stream results arrive in time order.
  std::map<std::string, std::uint64_t> last_time;
  for (const EngineEvent& r : results) {
    auto it = last_time.find(r.stream_id);
    if (it != last_time.end()) {
      EXPECT_GT(r.step.time, it->second);
    }
    last_time[r.stream_id] = r.step.time;
  }
  EXPECT_EQ(last_time.size(), kStreams);
  // Draining removes: a second drain is empty.
  EXPECT_TRUE(engine.DrainEvents().empty());
}

TEST(StreamEngineTest, SweepDetectsPlantedChanges) {
  auto engine_owner = StreamEngine::Create(SmallEngine(4)).MoveValueUnsafe();
  StreamEngine& engine = *engine_owner;
  std::map<std::string, BagSequence> streams;
  streams["changing-a"] = JumpStream(30, 15, 1);
  streams["changing-b"] = JumpStream(30, 15, 2);
  streams["stationary"] = JumpStream(30, 0, 3);
  auto batch = SweepEngine(engine, streams);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 3u);
  for (const char* key : {"changing-a", "changing-b"}) {
    const std::vector<StepResult>& series = batch->at(key);
    ASSERT_EQ(series.size(), 30u - 8u + 1u);
    std::vector<std::uint64_t> alarms = AlarmTimes(series);
    ASSERT_FALSE(alarms.empty()) << key;
    for (std::uint64_t a : alarms) {
      EXPECT_GE(a, 13u) << key;
      EXPECT_LE(a, 18u) << key;
    }
  }
  EXPECT_TRUE(AlarmTimes(batch->at("stationary")).empty());
}

TEST(StreamEngineTest, QuarantinesFailingStreamOnly) {
  auto engine_owner = StreamEngine::Create(SmallEngine(2)).MoveValueUnsafe();
  StreamEngine& engine = *engine_owner;
  // A ragged bag (mismatched dimensions) fails the stream.
  Bag ragged = {{1.0, 2.0}, {3.0}};
  ASSERT_TRUE(engine.Submit("bad", ragged).ok());
  BagSequence good_bags = JumpStream(12, 0, 6);
  for (const Bag& bag : good_bags) {
    ASSERT_TRUE(engine.Submit("good", bag).ok());
    ASSERT_TRUE(engine.Submit("bad", bag).ok());  // Dropped after failure.
  }
  engine.Flush();
  std::vector<EngineEvent> errors;
  std::vector<EngineEvent> results;
  for (EngineEvent& event : engine.DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kError) errors.push_back(event);
    if (event.kind == EngineEvent::Kind::kStep) results.push_back(event);
  }
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.front().stream_id, "bad");
  EXPECT_FALSE(errors.front().error.ok());
  EXPECT_EQ(engine.dropped_count(), 12u);
  // The healthy stream was unaffected.
  EXPECT_EQ(results.size(), 5u);
  for (const EngineEvent& r : results) EXPECT_EQ(r.stream_id, "good");
}

TEST(StreamEngineTest, SubmitAfterShutdownFails) {
  auto engine_owner = StreamEngine::Create(SmallEngine(2)).MoveValueUnsafe();
  StreamEngine& engine = *engine_owner;
  engine.Shutdown();
  EXPECT_FALSE(engine.Submit("x", JumpStream(1, 0, 7).front()).ok());
}

TEST(StreamEngineTest, FlatBagSubmitMatchesNestedSubmit) {
  const BagSequence bags = JumpStream(14, 7, 11);
  auto nested_owner = StreamEngine::Create(SmallEngine(2)).MoveValueUnsafe();
  StreamEngine& nested = *nested_owner;
  auto flat_owner = StreamEngine::Create(SmallEngine(2)).MoveValueUnsafe();
  StreamEngine& flat = *flat_owner;
  for (const Bag& bag : bags) {
    ASSERT_TRUE(nested.Submit("k", bag).ok());
    ASSERT_TRUE(flat.Submit("k", FlatBag::FromBag(bag).ValueOrDie()).ok());
  }
  nested.Flush();
  flat.Flush();
  const std::vector<EngineEvent> a = DrainSteps(nested);
  const std::vector<EngineEvent> b = DrainSteps(flat);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].step.time, b[i].step.time);
    EXPECT_EQ(a[i].step.score, b[i].step.score);
  }
}

TEST(StreamEngineTest, TrySubmitReturnsUnavailableWhenShardQueueFull) {
  StreamEngineOptions options = SmallEngine(1);
  options.detector.bootstrap.replicates = 0;
  options.shard_queue_capacity = 2;
  auto engine_owner = StreamEngine::Create(options).MoveValueUnsafe();
  StreamEngine& engine = *engine_owner;

  // Park the single worker inside the event sink so the queue can be filled
  // deterministically.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<bool> signaled{false};
  ASSERT_TRUE(engine
                  .set_event_sink([&](const EngineEvent& event) {
                    if (event.kind == EngineEvent::Kind::kStep &&
                        !signaled.exchange(true)) {
                      entered.set_value();
                      release_future.wait();
                    }
                  })
                  .ok());

  // tau + tau' = 8 pushes produce the first result, which blocks the worker.
  const BagSequence bags = JumpStream(8, 0, 21);
  for (const Bag& bag : bags) {
    ASSERT_TRUE(engine.Submit("k", bag).ok());
  }
  entered.get_future().wait();

  // Worker is parked and its queue is empty: capacity admits exactly two.
  const Bag extra = JumpStream(1, 0, 22).front();
  EXPECT_TRUE(engine.TrySubmit("k", extra).ok());
  EXPECT_TRUE(engine.TrySubmit("k", extra).ok());
  const Status full = engine.TrySubmit("k", extra);
  EXPECT_FALSE(full.ok());
  EXPECT_TRUE(full.IsUnavailable());
  // The FlatBag overload reports the same condition without consuming.
  FlatBag flat = FlatBag::FromBag(extra).ValueOrDie();
  const Status full_flat = engine.TrySubmit("k", std::move(flat));
  EXPECT_TRUE(full_flat.IsUnavailable());
  EXPECT_EQ(flat.size(), extra.size());  // Not consumed on rejection.

  release.set_value();
  engine.Flush();
  // After draining, TrySubmit goes through again.
  EXPECT_TRUE(engine.TrySubmit("k", extra).ok());
  engine.Flush();
  EXPECT_EQ(engine.processed_count(), 11u);
}

TEST(StreamEngineTest, IdleStreamsAreEvictedAndRestartFresh) {
  StreamEngineOptions options = SmallEngine(1);
  options.detector.bootstrap.replicates = 0;
  options.max_idle_submissions = 4;
  auto engine_owner = StreamEngine::Create(options).MoveValueUnsafe();
  StreamEngine& engine = *engine_owner;

  const BagSequence cold_bags = JumpStream(12, 0, 31);
  // First segment of the cold stream.
  for (std::size_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(engine.Submit("cold", cold_bags[t]).ok());
  }
  // More than max_idle_submissions of other traffic idles the key out.
  const BagSequence hot_bags = JumpStream(8, 0, 32);
  for (const Bag& bag : hot_bags) {
    ASSERT_TRUE(engine.Submit("hot", bag).ok());
  }
  // Second segment: the key must restart from scratch.
  for (std::size_t t = 3; t < cold_bags.size(); ++t) {
    ASSERT_TRUE(engine.Submit("cold", cold_bags[t]).ok());
  }
  engine.Flush();
  EXPECT_EQ(engine.evicted_count(), 1u);

  std::vector<StepResult> cold_results;
  for (const EngineEvent& r : DrainSteps(engine)) {
    if (r.stream_id == "cold") cold_results.push_back(r.step);
  }
  // Reference: a fresh detector fed only the second segment (the first
  // segment's 3 bags are < tau + tau', so it yielded no results).
  DetectorOptions per_stream = options.detector;
  per_stream.seed = Rng::MixSeed64(options.seed ^ Rng::StableHash64("cold"));
  auto reference_owner = BagStreamDetector::Create(per_stream).MoveValueUnsafe();
  BagStreamDetector& reference = *reference_owner;
  std::vector<StepResult> expected;
  for (std::size_t t = 3; t < cold_bags.size(); ++t) {
    auto step = reference.Push(cold_bags[t]).ValueOrDie();
    if (step.has_value()) expected.push_back(*step);
  }
  ASSERT_EQ(cold_results.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    // Times restart at the detector's own clock after eviction.
    EXPECT_EQ(cold_results[i].time, expected[i].time);
    EXPECT_EQ(cold_results[i].score, expected[i].score);
  }
}

TEST(StreamEngineTest, EvictionIsDeterministicAcrossShardCounts) {
  const std::size_t kStreams = 6;
  std::map<std::string, std::vector<double>> baseline;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    StreamEngineOptions options = SmallEngine(shards);
    options.detector.bootstrap.replicates = 0;
    // Bursts of other keys put ~20 submissions between a key's adjacent
    // bursts and ~36 when it skips one; 24 evicts only the skippers.
    options.max_idle_submissions = 24;
    auto engine_owner = StreamEngine::Create(options).MoveValueUnsafe();
    StreamEngine& engine = *engine_owner;
      // Alternate bursts so some keys go idle past the threshold mid-run; the
    // submission order (and hence the global idle clock) is fixed.
    std::map<std::string, BagSequence> bags;
    for (std::size_t s = 0; s < kStreams; ++s) {
      bags["s" + std::to_string(s)] = JumpStream(12, 0, 700 + s);
    }
    for (std::size_t burst = 0; burst < 3; ++burst) {
      for (std::size_t s = 0; s < kStreams; ++s) {
        if (burst == 1 && s < 2) continue;  // Keys s0, s1 sit out a burst.
        const std::string key = "s" + std::to_string(s);
        for (std::size_t t = burst * 4; t < burst * 4 + 4; ++t) {
          ASSERT_TRUE(engine.Submit(key, bags[key][t]).ok());
        }
      }
    }
    engine.Flush();
    std::map<std::string, std::vector<double>> grouped;
    for (const EngineEvent& r : DrainSteps(engine)) {
      grouped[r.stream_id].push_back(r.step.score);
    }
    EXPECT_GT(engine.evicted_count(), 0u) << shards << " shards";
    if (baseline.empty()) {
      baseline = std::move(grouped);
      continue;
    }
    EXPECT_EQ(grouped, baseline) << shards << " shards";
  }
}

TEST(StreamEngineTest, BackpressureDoesNotDeadlockTinyQueues) {
  StreamEngineOptions options = SmallEngine(2);
  options.shard_queue_capacity = 1;
  auto engine_owner = StreamEngine::Create(options).MoveValueUnsafe();
  StreamEngine& engine = *engine_owner;
  for (std::size_t s = 0; s < 4; ++s) {
    BagSequence bags = JumpStream(15, 0, 200 + s);
    for (const Bag& bag : bags) {
      ASSERT_TRUE(engine.Submit("k" + std::to_string(s), bag).ok());
    }
  }
  engine.Flush();
  EXPECT_EQ(engine.processed_count(), 60u);
}

TEST(StreamEngineTest, ProfileRoutingPerKeyMatchesASingleProfileSweep) {
  // "alt" has a shorter window: tau + tau' = 6 instead of 8, so a routed
  // stream of length 12 yields 7 results instead of 5.
  DetectorOptions alt = SmallDetector();
  alt.tau = 3;
  alt.tau_prime = 3;

  auto engine_owner = StreamEngine::Create(SmallEngine(2)).MoveValueUnsafe();
  StreamEngine& engine = *engine_owner;
  ASSERT_TRUE(engine.RegisterProfile("alt", alt).ok());

  std::map<std::string, BagSequence> streams;
  streams["routed"] = JumpStream(12, 0, 61);
  streams["plain"] = JumpStream(12, 0, 62);
  std::map<std::string, std::string> routes;
  routes["routed"] = "alt";
  auto batch = SweepEngine(engine, streams, routes);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->at("routed").size(), 7u);
  EXPECT_EQ(batch->at("plain").size(), 5u);

  // The routed stream is bitwise what an all-"alt" sweep of the same key
  // produces: routing never perturbs the per-key seed derivation.
  auto alt_engine = StreamEngine::Create(SmallEngine(1)).MoveValueUnsafe();
  ASSERT_TRUE(alt_engine->RegisterProfile("alt", alt).ok());
  std::map<std::string, BagSequence> routed_only;
  routed_only["routed"] = JumpStream(12, 0, 61);
  auto alt_batch = SweepEngine(*alt_engine, routed_only, routes);
  ASSERT_TRUE(alt_batch.ok());
  const std::vector<StepResult>& a = batch->at("routed");
  const std::vector<StepResult>& b = alt_batch->at("routed");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].alarm, b[i].alarm);
  }
}

TEST(StreamEngineTest, LatencyStatsCoverEveryProcessedSubmission) {
  auto engine_owner = StreamEngine::Create(SmallEngine(2)).MoveValueUnsafe();
  StreamEngine& engine = *engine_owner;
  EXPECT_EQ(engine.latency_stats().samples, 0u);
  EXPECT_EQ(engine.latency_stats().mean_ns(), 0.0);

  const std::size_t kBags = 24;
  BagSequence bags = JumpStream(kBags, 0, 66);
  for (const Bag& bag : bags) {
    ASSERT_TRUE(engine.Submit("k", bag).ok());
  }
  engine.Flush();

  const EngineLatencyStats stats = engine.latency_stats();
  EXPECT_EQ(stats.samples, kBags);
  EXPECT_GE(stats.total_ns, stats.max_ns);
  EXPECT_GE(stats.mean_ns(), 0.0);
  EXPECT_LE(stats.mean_ns(), static_cast<double>(stats.max_ns));
  // Per-event latency is a subset of the same measurement, so no event can
  // exceed the engine-wide peak.
  for (const EngineEvent& event : engine.DrainEvents()) {
    EXPECT_LE(event.enqueue_to_process_ns, stats.max_ns);
  }
}

}  // namespace
}  // namespace bagcpd

// Named detector profiles + the unified EngineEvent stream: one engine runs
// differently configured detectors side by side (profile routing), with
// per-stream results that stay bitwise-identical across shard counts and
// equal to standalone detectors for any thread-pool size, and every
// observable occurrence delivered as one typed event.

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/runtime/stream_engine.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {
namespace {

DetectorOptions KlDetector() {
  DetectorOptions options;
  options.tau = 4;
  options.tau_prime = 4;
  options.score_type = ScoreType::kSymmetrizedKl;
  options.bootstrap.replicates = 40;
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 4;
  return options;
}

// A deliberately different pipeline: LR score, histogram quantizer, shorter
// test window — the heterogeneous-streams shape of the ROADMAP.
DetectorOptions LrDetector() {
  DetectorOptions options;
  options.tau = 5;
  options.tau_prime = 3;
  options.score_type = ScoreType::kLogLikelihoodRatio;
  options.bootstrap.replicates = 30;
  options.signature.method = SignatureMethod::kHistogram;
  options.signature.bin_width = 0.8;
  return options;
}

BagSequence JumpStream(std::size_t length, std::size_t change_at,
                       std::uint64_t seed) {
  Rng rng(seed);
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 0.5);
  const GaussianMixture after = GaussianMixture::Isotropic({4.0, 4.0}, 0.5);
  BagSequence bags;
  for (std::size_t t = 0; t < length; ++t) {
    const GaussianMixture& mix =
        (change_at > 0 && t >= change_at) ? after : before;
    bags.push_back(mix.SampleBag(18, &rng));
  }
  return bags;
}

void ExpectIdenticalSteps(const std::vector<StepResult>& a,
                          const std::vector<StepResult>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << what << " step " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " step " << i;
    EXPECT_TRUE((std::isnan(a[i].ci_lo) && std::isnan(b[i].ci_lo)) ||
                a[i].ci_lo == b[i].ci_lo)
        << what << " step " << i;
    EXPECT_TRUE((std::isnan(a[i].ci_up) && std::isnan(b[i].ci_up)) ||
                a[i].ci_up == b[i].ci_up)
        << what << " step " << i;
  }
}

// Drains the engine's queue into per-stream step series.
std::map<std::string, std::vector<StepResult>> GroupSteps(
    StreamEngine& engine) {
  std::map<std::string, std::vector<StepResult>> grouped;
  for (const EngineEvent& event : engine.DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kStep) {
      grouped[event.stream_id].push_back(event.step);
    }
  }
  return grouped;
}

TEST(EngineProfilesTest, RegisterProfileValidation) {
  StreamEngineOptions options;
  options.num_shards = 1;
  options.detector = KlDetector();
  std::unique_ptr<StreamEngine> engine =
      StreamEngine::Create(options).MoveValueUnsafe();

  EXPECT_TRUE(engine->RegisterProfile("lr", LrDetector()).ok());
  EXPECT_EQ(engine->profile_count(), 2u);

  // Duplicate and reserved names.
  EXPECT_FALSE(engine->RegisterProfile("lr", LrDetector()).ok());
  EXPECT_FALSE(engine->RegisterProfile("default", LrDetector()).ok());
  EXPECT_FALSE(engine->RegisterProfile("", LrDetector()).ok());

  // Incoherent detector options are rejected like engine creation would.
  DetectorOptions bad = LrDetector();
  bad.tau = 0;
  EXPECT_FALSE(engine->RegisterProfile("bad", bad).ok());

  // The detector.seed rule applies to profiles too.
  DetectorOptions seeded = LrDetector();
  seeded.seed = 13;
  const Status seeded_status = engine->RegisterProfile("seeded", seeded);
  ASSERT_FALSE(seeded_status.ok());
  EXPECT_NE(seeded_status.message().find("seed"), std::string::npos);

  // Registration is frozen once traffic starts.
  ASSERT_TRUE(engine->Submit("k", JumpStream(1, 0, 1).front()).ok());
  engine->Flush();
  EXPECT_FALSE(engine->RegisterProfile("late", LrDetector()).ok());
}

TEST(EngineProfilesTest, SubmitWithUnknownProfileFailsFast) {
  StreamEngineOptions options;
  options.num_shards = 1;
  options.detector = KlDetector();
  std::unique_ptr<StreamEngine> engine =
      StreamEngine::Create(options).MoveValueUnsafe();
  const Bag bag = JumpStream(1, 0, 2).front();
  const Status status = engine->Submit("k", bag, "nope");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("nope"), std::string::npos);
  // Nothing was enqueued: the idle clock never advanced.
  EXPECT_EQ(engine->submitted_count(), 0u);
}

TEST(EngineProfilesTest, ProfileConflictQuarantinesTheStream) {
  StreamEngineOptions options;
  options.num_shards = 1;
  options.detector = KlDetector();
  options.detector.bootstrap.replicates = 0;
  std::unique_ptr<StreamEngine> engine =
      StreamEngine::Create(options).MoveValueUnsafe();
  ASSERT_TRUE(engine->RegisterProfile("lr", LrDetector()).ok());

  const BagSequence bags = JumpStream(4, 0, 3);
  ASSERT_TRUE(engine->Submit("k", bags[0]).ok());
  ASSERT_TRUE(engine->Submit("k", bags[1], "lr").ok());  // Conflict.
  ASSERT_TRUE(engine->Submit("k", bags[2]).ok());  // Dropped (quarantined).
  engine->Flush();

  std::vector<EngineEvent> errors;
  for (EngineEvent& event : engine->DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kError) {
      errors.push_back(std::move(event));
    }
  }
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.front().stream_id, "k");
  EXPECT_NE(errors.front().error.message().find("bound to profile"),
            std::string::npos);
  EXPECT_EQ(engine->dropped_count(), 1u);
  EXPECT_EQ(engine->live_stream_count(), 0u);
}

TEST(EngineProfilesTest, MultiProfileResultsInvariantToShardCount) {
  // Six streams, alternating between two very different detector profiles,
  // all submitted through one engine: per-stream output must be identical
  // for 1, 2, and 4 shards — the acceptance bar for profile routing.
  const std::size_t kStreams = 6;
  std::map<std::string, BagSequence> bags;
  std::map<std::string, std::string> profile_of;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const std::string key = "s" + std::to_string(s);
    bags[key] = JumpStream(16, (s % 3 == 0) ? 8 : 0, 500 + s);
    profile_of[key] = (s % 2 == 0) ? "" : "lr";
  }

  std::map<std::string, std::vector<StepResult>> baseline;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    StreamEngineOptions options;
    options.num_shards = shards;
    options.detector = KlDetector();
    options.seed = 41;
    std::unique_ptr<StreamEngine> engine =
        StreamEngine::Create(options).MoveValueUnsafe();
    ASSERT_TRUE(engine->RegisterProfile("lr", LrDetector()).ok());
    for (std::size_t t = 0; t < 16; ++t) {
      for (const auto& [key, stream] : bags) {
        ASSERT_TRUE(engine->Submit(key, stream[t], profile_of[key]).ok());
      }
    }
    engine->Flush();
    auto grouped = GroupSteps(*engine);
    ASSERT_EQ(grouped.size(), kStreams);
    // The two profiles really ran different pipelines: the first inspection
    // point lands at pushed - tau', so KL (tau' = 4) starts at t = 4 and the
    // LR profile (tau' = 3) at t = 5.
    ASSERT_FALSE(grouped["s0"].empty());
    ASSERT_FALSE(grouped["s1"].empty());
    EXPECT_EQ(grouped["s0"].front().time, 4u);
    EXPECT_EQ(grouped["s1"].front().time, 5u);
    if (baseline.empty()) {
      baseline = std::move(grouped);
      continue;
    }
    for (const auto& [key, series] : baseline) {
      ExpectIdenticalSteps(series, grouped.at(key),
                           key + " @ " + std::to_string(shards) + " shards");
    }
  }
}

TEST(EngineProfilesTest, ProfileStreamsMatchStandaloneDetectorsForAnyPoolSize) {
  // The engine's per-stream output under a profile equals a standalone
  // detector built from the profile's options and the documented seed
  // derivation — including when that standalone detector parallelizes over
  // thread pools of size 1/2/8. This ties profile routing, seeding, and
  // pool determinism together.
  const std::uint64_t kEngineSeed = 77;
  std::map<std::string, BagSequence> bags;
  bags["act-0"] = JumpStream(14, 7, 900);
  bags["net-0"] = JumpStream(14, 7, 901);

  StreamEngineOptions options;
  options.num_shards = 2;
  options.detector = KlDetector();
  options.seed = kEngineSeed;
  std::unique_ptr<StreamEngine> engine =
      StreamEngine::Create(options).MoveValueUnsafe();
  ASSERT_TRUE(engine->RegisterProfile("lr", LrDetector()).ok());
  for (std::size_t t = 0; t < 14; ++t) {
    ASSERT_TRUE(engine->Submit("act-0", bags["act-0"][t]).ok());
    ASSERT_TRUE(engine->Submit("net-0", bags["net-0"][t], "lr").ok());
  }
  engine->Flush();
  const auto grouped = GroupSteps(*engine);

  // Default profile: the historical (engine seed, key) derivation.
  DetectorOptions act = KlDetector();
  act.seed = Rng::MixSeed64(kEngineSeed ^ Rng::StableHash64("act-0"));
  // Named profile: the profile name folds into the derivation.
  DetectorOptions net = LrDetector();
  net.seed = Rng::MixSeed64(kEngineSeed ^ Rng::StableHash64("net-0") ^
                            Rng::MixSeed64(Rng::StableHash64("lr")));

  for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ThreadPool pool(threads);
    std::unique_ptr<BagStreamDetector> act_ref =
        BagStreamDetector::Create(act).MoveValueUnsafe();
    std::unique_ptr<BagStreamDetector> net_ref =
        BagStreamDetector::Create(net).MoveValueUnsafe();
    act_ref->set_thread_pool(&pool);
    net_ref->set_thread_pool(&pool);
    ExpectIdenticalSteps(act_ref->Run(bags["act-0"]).ValueOrDie(),
                         grouped.at("act-0"),
                         "act-0, pool " + std::to_string(threads));
    ExpectIdenticalSteps(net_ref->Run(bags["net-0"]).ValueOrDie(),
                         grouped.at("net-0"),
                         "net-0, pool " + std::to_string(threads));
  }
}

TEST(EngineProfilesTest, EventSinkReceivesEveryKind) {
  StreamEngineOptions options;
  options.num_shards = 1;
  options.detector = KlDetector();
  options.detector.bootstrap.replicates = 0;
  options.max_idle_submissions = 4;
  std::unique_ptr<StreamEngine> engine =
      StreamEngine::Create(options).MoveValueUnsafe();

  std::mutex mu;
  std::vector<EngineEvent> events;
  engine->set_event_sink([&](const EngineEvent& event) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(event);
  });

  const BagSequence bags = JumpStream(9, 0, 4);
  // One bag for a key that then idles out while other traffic flows.
  ASSERT_TRUE(engine->Submit("idler", bags[0]).ok());
  for (std::size_t t = 0; t < 8; ++t) {
    ASSERT_TRUE(engine->Submit("steady", bags[t]).ok());
  }
  // The idler returns after > 4 submissions: lazy eviction fires.
  ASSERT_TRUE(engine->Submit("idler", bags[1]).ok());
  // And a ragged bag fails its stream.
  ASSERT_TRUE(engine->Submit("broken", Bag{{1.0, 2.0}, {3.0}}).ok());
  engine->Flush();

  std::lock_guard<std::mutex> lock(mu);
  std::size_t steps = 0, evictions = 0, errors = 0;
  for (const EngineEvent& event : events) {
    EXPECT_EQ(event.profile, kDefaultProfileName);
    EXPECT_GT(event.sequence, 0u);
    switch (event.kind) {
      case EngineEvent::Kind::kStep:
        ++steps;
        EXPECT_EQ(event.stream_id, "steady");
        break;
      case EngineEvent::Kind::kEviction:
        ++evictions;
        EXPECT_EQ(event.stream_id, "idler");
        break;
      case EngineEvent::Kind::kError:
        ++errors;
        EXPECT_EQ(event.stream_id, "broken");
        EXPECT_FALSE(event.error.ok());
        break;
      case EngineEvent::Kind::kCheckpoint:
      case EngineEvent::Kind::kRestore:
        ADD_FAILURE() << "no checkpoint traffic in this test";
        break;
      case EngineEvent::Kind::kStreamFault:
        ADD_FAILURE() << "no contained faults in this test";
        break;
    }
  }
  EXPECT_EQ(steps, 1u);  // steady: 8 bags, window 8 -> one result.
  EXPECT_EQ(evictions, 1u);
  EXPECT_EQ(errors, 1u);
  // With a sink installed nothing is queued.
  EXPECT_TRUE(engine->DrainEvents().empty());
}

TEST(EngineProfilesTest, DrainEventsReturnsEveryKindFromOneQueue) {
  StreamEngineOptions options;
  options.num_shards = 1;
  options.detector = KlDetector();
  options.detector.bootstrap.replicates = 0;
  std::unique_ptr<StreamEngine> engine =
      StreamEngine::Create(options).MoveValueUnsafe();

  const BagSequence bags = JumpStream(8, 0, 5);
  for (const Bag& bag : bags) {
    ASSERT_TRUE(engine->Submit("good", bag).ok());
  }
  ASSERT_TRUE(engine->Submit("bad", Bag{{1.0, 2.0}, {3.0}}).ok());
  engine->Flush();

  // One step and one error, in one queue.
  std::vector<EngineEvent> events = engine->DrainEvents();
  ASSERT_EQ(events.size(), 2u);
  std::size_t steps = 0, errors = 0;
  for (const EngineEvent& event : events) {
    if (event.kind == EngineEvent::Kind::kStep) {
      ++steps;
      EXPECT_EQ(event.stream_id, "good");
    } else if (event.kind == EngineEvent::Kind::kError) {
      ++errors;
      EXPECT_EQ(event.stream_id, "bad");
    }
  }
  EXPECT_EQ(steps, 1u);
  EXPECT_EQ(errors, 1u);
  // Everything is gone now.
  EXPECT_TRUE(engine->DrainEvents().empty());
}

}  // namespace
}  // namespace bagcpd

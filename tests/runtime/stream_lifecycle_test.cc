// The StreamEngine per-stream lifecycle. A key's entry sits in one phase —
// live, spilled, down (torn down by a contained fault) or quarantined — and
// a key with no entry is new or forgotten. The table test walks every
// transition on one shard and pins the events and counters each one
// records. The two tests after it pin the horizon rule: a key idle past the
// horizon is forgotten whatever its phase, and the decision depends only on
// the global submission sequence, never on the shard count or on when a
// shard happened to sweep.


#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/fault/fault_injector.h"
#include "bagcpd/runtime/stream_engine.h"
#include "testing/temp_dir.h"

namespace bagcpd {
namespace {

using fault::FaultInjector;
using fault::ScopedFault;
using Kind = EngineEvent::Kind;

DetectorOptions SmallDetector() {
  DetectorOptions options;
  options.tau = 3;
  options.tau_prime = 3;
  options.bootstrap.replicates = 0;  // Scores only; keeps the table fast.
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 3;
  return options;
}

StreamEngineOptions SmallEngine(std::size_t shards) {
  StreamEngineOptions options;
  options.num_shards = shards;
  options.seed = 5;
  options.detector = SmallDetector();
  return options;
}

BagSequence KeyStream(const std::string& key, std::size_t length) {
  Rng rng(1000 + Rng::StableHash64(key) % 97);
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 0.5);
  const GaussianMixture after = GaussianMixture::Isotropic({4.0, 4.0}, 0.5);
  BagSequence bags;
  for (std::size_t t = 0; t < length; ++t) {
    bags.push_back((t >= length / 2 ? after : before).SampleBag(14, &rng));
  }
  return bags;
}

const Bag kRagged = {{1.0, 2.0}, {3.0}};

// Filler traffic that leaves nothing resident: the first bag of "junk" is
// ragged and quarantines it, so every later junk bag is only a dropped
// submission that advances the global sequence and the shard's sweep clock.
void SubmitJunk(StreamEngine* engine, std::size_t count) {
  const Bag filler = KeyStream("junk", 1).front();
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(engine->Submit("junk", filler).ok());
  }
}

// A fresh detector seeded exactly as the engine seeds `key`, fed `bags`.
std::vector<StepResult> Replay(const StreamEngineOptions& engine_options,
                               const std::string& key,
                               const std::vector<const Bag*>& bags) {
  DetectorOptions per_stream = engine_options.detector;
  per_stream.seed =
      DerivePerStreamSeed(engine_options.seed, key, kDefaultProfileName);
  auto detector = BagStreamDetector::Create(per_stream).MoveValueUnsafe();
  std::vector<StepResult> out;
  for (const Bag* bag : bags) {
    auto step = detector->Push(*bag);
    EXPECT_TRUE(step.ok()) << step.status().ToString();
    if (step.ok() && step.ValueOrDie().has_value()) {
      out.push_back(*step.ValueOrDie());
    }
  }
  return out;
}

void ExpectIdenticalSteps(const std::vector<StepResult>& a,
                          const std::vector<StepResult>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << what << " step " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " step " << i;
    EXPECT_EQ(a[i].alarm, b[i].alarm) << what << " step " << i;
  }
}

// Event kinds by name, so a mismatch reads as names, not bytes.
std::vector<std::string> Names(const std::vector<Kind>& kinds) {
  std::vector<std::string> names;
  for (const Kind kind : kinds) {
    switch (kind) {
      case Kind::kStep: names.push_back("step"); break;
      case Kind::kEviction: names.push_back("eviction"); break;
      case Kind::kError: names.push_back("error"); break;
      case Kind::kCheckpoint: names.push_back("checkpoint"); break;
      case Kind::kRestore: names.push_back("restore"); break;
      case Kind::kStreamFault: names.push_back("stream-fault"); break;
    }
  }
  return names;
}

// ---------------------------------------------------------------------------
// One row per transition.

// Engine shape of a row, on top of SmallEngine(1).
struct Shape {
  bool spill = false;            // spill_directory set
  std::size_t budget = 0;        // spill_resident_bytes
  std::uint64_t max_idle = 0;    // max_idle_submissions
  std::uint64_t gc = 0;          // spill_gc_submissions
  std::size_t faults = 0;        // max_stream_faults
  std::uint64_t snapshot = 0;    // snapshot_interval
  const char* fault = "";        // armed until the script's 'x'
  std::uint64_t backoff = 0;     // fault_backoff_submissions
};

// Engine counters after the script (key "k" is the only stream that can be
// live, spilled or down; "junk" is quarantined from the first submission).
struct Counters {
  std::size_t live = 0;       // live_stream_count()
  std::size_t created = 0;    // stream_count()
  std::uint64_t evicted = 0;  // evicted_count()
  std::uint64_t spilled = 0;  // spilled_count()
  std::uint64_t restored = 0; // restored_count()
  std::uint64_t faults = 0;   // stream_fault_count()
  std::uint64_t gc = 0;       // spill_gc_count()
  std::size_t files = 0;      // spill files left on disk
};

struct LifecycleRow {
  const char* name;
  Shape shape;
  // One character per action, in order:
  //   K  the next good bag of "k" (default profile)
  //   A  the next good bag of "k" under profile "alt"
  //   R  a ragged bag for "k"
  //   j  one junk submission;  J  600 of them (crosses the 512-task sweep)
  //   x  Flush(), then disarm the fault injector
  const char* script;
  // Every non-step event of "k", in order; each carries `profile`.
  std::vector<Kind> kinds;
  const char* profile;
  Counters counters;
};

const char kDefault[] = "default";

const std::vector<LifecycleRow>& Rows() {
  static const std::vector<LifecycleRow> rows = {
      {"new -> live", {}, "KK", {}, kDefault, {1, 1}},
      {"live -> spilled -> live", {true, 1}, "KjK",
       {Kind::kCheckpoint, Kind::kRestore}, kDefault,
       {1, 1, 0, 1, 1}},
      // The fault hits the third push; the snapshot of push two restores.
      {"live -> down -> live, from a snapshot",
       {false, 0, 0, 0, 1, 1, "detector.push:nth:3"}, "KKKxK",
       {Kind::kStreamFault, Kind::kRestore}, kDefault,
       {1, 1, 0, 0, 1, 1}},
      // No snapshot: the bag after the fault starts a fresh detector.
      {"live -> down -> live, from scratch",
       {false, 0, 0, 0, 1, 0, "detector.push:nth:2"}, "KKK",
       {Kind::kStreamFault}, kDefault, {1, 2, 0, 0, 0, 1}},
      {"new -> quarantined, ragged bag", {}, "RK", {Kind::kError}, kDefault,
       {0, 0}},
      {"live -> quarantined, ragged bag", {}, "KKR", {Kind::kError},
       kDefault, {0, 1}},
      {"live -> quarantined, profile conflict", {}, "KAK", {Kind::kError},
       kDefault, {0, 1}},
      // The event names the profile the key is bound to, not the one the
      // conflicting bag asked for.
      {"live -> quarantined, bound to alt", {}, "AK", {Kind::kError}, "alt",
       {0, 1}},
      {"spilled -> quarantined, profile conflict", {true, 1}, "KjA",
       {Kind::kCheckpoint, Kind::kError}, kDefault, {0, 1, 0, 1}},
      {"down -> quarantined, profile conflict",
       {false, 0, 0, 0, 1, 0, "detector.push:nth:2"}, "KKA",
       {Kind::kStreamFault, Kind::kError}, kDefault, {0, 1, 0, 0, 0, 1}},
      {"quarantined outlives the horizon", {false, 0, 4}, "KAJK",
       {Kind::kError}, kDefault, {0, 1}},
      {"live -> forgotten, lazily", {false, 0, 4}, "KjjjjjK",
       {Kind::kEviction}, kDefault, {1, 2, 1}},
      {"live -> forgotten, by the sweep", {false, 0, 4}, "KJ",
       {Kind::kEviction}, kDefault, {0, 1, 1}},
      {"spilled -> forgotten, lazily", {true, 1, 0, 4}, "KjjjjjjK",
       {Kind::kCheckpoint, Kind::kEviction}, kDefault,
       {1, 2, 1, 1, 0, 0, 1}},
      // The first sweep spills the idle key, the second collects it.
      {"spilled -> forgotten, by the sweep", {true, 0, 4, 100}, "KJJ",
       {Kind::kCheckpoint, Kind::kEviction}, kDefault,
       {0, 1, 1, 1, 0, 0, 1}},
      // Forgotten first, so the key is free to bind to another profile.
      {"spilled -> forgotten, then bound to alt", {true, 1, 0, 4},
       "KjjjjjjA", {Kind::kCheckpoint, Kind::kEviction}, kDefault,
       {1, 2, 1, 1, 0, 0, 1}},
      // Spilling without idle spills: the sweep forgets the live key.
      {"live -> forgotten, by the sweep, with spilling", {true, 0, 0, 100},
       "KJ", {Kind::kEviction}, kDefault, {0, 1, 1}},
      {"down -> forgotten, lazily",
       {false, 0, 4, 0, 1, 0, "detector.push:nth:2"}, "KKjjjjjK",
       {Kind::kStreamFault, Kind::kEviction}, kDefault,
       {1, 2, 1, 0, 0, 1}},
      // Bags dropped in a backoff window longer than the horizon still
      // count as the key's activity: the window runs out, nothing idles.
      {"down -> live after a backoff longer than the horizon",
       {false, 0, 4, 0, 3, 0, "detector.push:nth:2", 10}, "KKKKKKKKKKKKK",
       {Kind::kStreamFault}, kDefault, {1, 2, 0, 0, 0, 1}},
      {"down -> forgotten, by the sweep",
       {false, 0, 4, 0, 1, 0, "detector.push:nth:2"}, "KKJ",
       {Kind::kStreamFault, Kind::kEviction}, kDefault,
       {0, 1, 1, 0, 0, 1}},
  };
  return rows;
}

void RunRow(const LifecycleRow& row) {
  SCOPED_TRACE(row.name);
  StreamEngineOptions options = SmallEngine(1);
  ScopedTempDir spill_dir("bagcpd-lifecycle");
  if (row.shape.spill) options.spill_directory = spill_dir.path();
  options.spill_resident_bytes = row.shape.budget;
  options.max_idle_submissions = row.shape.max_idle;
  options.spill_gc_submissions = row.shape.gc;
  options.max_stream_faults = row.shape.faults;
  options.snapshot_interval = row.shape.snapshot;
  options.fault_backoff_submissions = row.shape.backoff;
  std::optional<ScopedFault> armed;
  if (row.shape.fault[0] != '\0') {
    armed.emplace(row.shape.fault);
    ASSERT_TRUE(armed->status().ok());
  }
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();
  DetectorOptions alt = SmallDetector();
  alt.tau = 2;
  ASSERT_TRUE(engine->RegisterProfile("alt", alt).ok());
  ASSERT_TRUE(engine->Submit("junk", kRagged).ok());

  const BagSequence bags = KeyStream("k", 16);
  std::size_t next = 0;
  for (const char* c = row.script; *c != '\0'; ++c) {
    switch (*c) {
      case 'K':
        ASSERT_TRUE(engine->Submit("k", bags[next++]).ok());
        break;
      case 'A':
        ASSERT_TRUE(engine->Submit("k", bags[next++], "alt").ok());
        break;
      case 'R':
        ASSERT_TRUE(engine->Submit("k", kRagged).ok());
        break;
      case 'j':
        SubmitJunk(engine.get(), 1);
        break;
      case 'J':
        SubmitJunk(engine.get(), 600);
        break;
      case 'x':
        engine->Flush();
        FaultInjector::Global().Disarm();
        break;
      default:
        FAIL() << "unknown script action '" << *c << "'";
    }
  }
  engine->Flush();

  std::vector<Kind> kinds;
  for (const EngineEvent& event : engine->DrainEvents()) {
    if (event.stream_id != "k" || event.kind == Kind::kStep) continue;
    kinds.push_back(event.kind);
    EXPECT_EQ(event.profile, row.profile);
  }
  EXPECT_EQ(Names(kinds), Names(row.kinds));
  const Counters& want = row.counters;
  EXPECT_EQ(engine->live_stream_count(), want.live);
  EXPECT_EQ(engine->stream_count(), want.created);
  EXPECT_EQ(engine->evicted_count(), want.evicted);
  EXPECT_EQ(engine->spilled_count(), want.spilled);
  EXPECT_EQ(engine->restored_count(), want.restored);
  EXPECT_EQ(engine->stream_fault_count(), want.faults);
  EXPECT_EQ(engine->spill_gc_count(), want.gc);
  if (row.shape.spill) {
    EXPECT_EQ(ListFiles(options.spill_directory).size(), want.files);
  }
  // Resident bytes are kept only with spilling, and they return to 0
  // whenever no detector is resident.
  EXPECT_EQ(engine->resident_state_bytes() > 0,
            row.shape.spill && want.live > 0);
}

TEST(StreamLifecycleTest, EveryTransitionRecordsItsEventsAndCounters) {
  for (const LifecycleRow& row : Rows()) RunRow(row);
}

// ---------------------------------------------------------------------------
// The horizon rule.

TEST(StreamLifecycleTest, SpillGcRestartIsShardInvariant) {
  // "cold" gets 8 bags, 1,100 bags go to another key, then "cold" gets 8
  // more. The gap is past the GC horizon, so "cold" restarts from scratch.
  // At 1 shard a sweep spills it and a later sweep collects it; at 2 and 4
  // shards the filler lives on another shard, so cold's shard never sweeps
  // and only the check on cold's next bag can forget it. Either way its
  // series equals a fresh replay of the post-gap bags.
  const BagSequence cold = KeyStream("cold", 16);
  // Shards are picked by StableHash64(key) % shards; a key that differs
  // from "cold" mod 2 also differs mod 4.
  const std::uint64_t cold_hash = Rng::StableHash64("cold");
  std::string filler_key;
  for (int i = 0; filler_key.empty(); ++i) {
    const std::string key = "busy-" + std::to_string(i);
    if (Rng::StableHash64(key) % 2 != cold_hash % 2) filler_key = key;
  }
  const Bag filler = KeyStream(filler_key, 1).front();

  std::vector<const Bag*> post_gap;
  for (std::size_t t = 8; t < 16; ++t) post_gap.push_back(&cold[t]);
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    StreamEngineOptions options = SmallEngine(shards);
    ScopedTempDir spill_dir("bagcpd-lifecycle");
    options.spill_directory = spill_dir.path();
    options.max_idle_submissions = 4;
    options.spill_gc_submissions = 100;
    auto engine = StreamEngine::Create(options).MoveValueUnsafe();
    for (std::size_t t = 0; t < 8; ++t) {
      ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
    }
    for (int i = 0; i < 1100; ++i) {
      ASSERT_TRUE(engine->Submit(filler_key, filler).ok());
    }
    // The first half's steps are drained away: only the restart counts.
    engine->Flush();
    engine->DrainEvents();
    for (std::size_t t = 8; t < 16; ++t) {
      ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
    }
    engine->Flush();
    std::vector<StepResult> steps;
    for (const EngineEvent& event : engine->DrainEvents()) {
      if (event.kind == Kind::kStep && event.stream_id == "cold") {
        steps.push_back(event.step);
      }
    }
    ExpectIdenticalSteps(Replay(options, "cold", post_gap), steps,
                         "cold @ " + std::to_string(shards) + " shards");
    EXPECT_GE(engine->evicted_count(), 1u) << shards << " shards";
  }
}

TEST(StreamLifecycleTest, DownStreamIsForgottenPastTheHorizon) {
  // detector.push:nth:2 fails the second push of every fresh detector, and
  // the budget of one fault is spent by the first. A stream that idles past
  // the horizon restarts with a clean fault history whether it idled live
  // (its detector rebuilt after the fault) or down (the fault was its last
  // bag): both histories record fault, eviction, fault, and no quarantine.
  for (const bool down_while_idle : {true, false}) {
    SCOPED_TRACE(down_while_idle ? "down while idle" : "live while idle");
    ScopedFault armed("detector.push:nth:2");
    ASSERT_TRUE(armed.status().ok());
    StreamEngineOptions options = SmallEngine(1);
    options.max_idle_submissions = 4;
    options.max_stream_faults = 1;
    auto engine = StreamEngine::Create(options).MoveValueUnsafe();
    ASSERT_TRUE(engine->Submit("junk", kRagged).ok());

    const BagSequence bags = KeyStream("k", 8);
    const std::size_t before_gap = down_while_idle ? 2 : 3;
    std::size_t t = 0;
    for (; t < before_gap; ++t) {
      ASSERT_TRUE(engine->Submit("k", bags[t]).ok());
    }
    SubmitJunk(engine.get(), 6);
    for (std::size_t end = t + 2; t < end; ++t) {
      ASSERT_TRUE(engine->Submit("k", bags[t]).ok());
    }
    engine->Flush();

    std::vector<Kind> kinds;
    for (const EngineEvent& event : engine->DrainEvents()) {
      if (event.stream_id == "k" && event.kind != Kind::kStep) {
        kinds.push_back(event.kind);
      }
    }
    EXPECT_EQ(Names(kinds), Names({Kind::kStreamFault, Kind::kEviction,
                                   Kind::kStreamFault}));
    EXPECT_EQ(engine->evicted_count(), 1u);
    EXPECT_EQ(engine->stream_fault_count(), 2u);
  }
}

}  // namespace
}  // namespace bagcpd

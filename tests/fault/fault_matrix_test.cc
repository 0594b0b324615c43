// The fault matrix: every fault point exercised against each recovery mode —
// contained (quarantine-on-first-failure), retried/fresh-restart (a fault
// budget, no snapshots), recovered-from-checkpoint (rolling snapshots), and
// fresh-after-failed-restores (a poisoned snapshot) — with the surviving
// streams' outputs bitwise-identical to a fault-free run across shard counts
// {1, 2, 4} and, for the detector-level points, thread pools {1, 2, 8}.
// Corrupt and truncated spill files ride the same ladder as injected faults.
// Every armed test uses ScopedFault (the injector is process-wide).


#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/api/spec.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/fault/fault_injector.h"
#include "bagcpd/runtime/stream_engine.h"
#include "bagcpd/runtime/thread_pool.h"
#include "testing/temp_dir.h"

namespace bagcpd {
namespace {

using fault::FaultInjector;
using fault::ScopedFault;

DetectorOptions SmallDetector() {
  DetectorOptions options;
  options.tau = 3;
  options.tau_prime = 3;
  options.bootstrap.replicates = 0;  // Scores only; keeps the matrix fast.
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

std::map<std::string, BagSequence> Corpus(std::size_t keys,
                                          std::size_t length) {
  std::map<std::string, BagSequence> corpus;
  for (std::size_t i = 0; i < keys; ++i) {
    const std::string key = "stream-" + std::to_string(i);
    corpus[key] = KeyStream(key, length);
  }
  return corpus;
}

// Round-robin submission, time-major: a fixed global submission order, so
// every sequence-keyed recovery decision is reproducible.
void SubmitRange(StreamEngine* engine,
                 const std::map<std::string, BagSequence>& corpus,
                 std::size_t from, std::size_t to) {
  for (std::size_t t = from; t < to; ++t) {
    for (const auto& [key, bags] : corpus) {
      ASSERT_TRUE(engine->Submit(key, bags[t]).ok()) << key << " t=" << t;
    }
  }
}

std::map<std::string, std::vector<StepResult>> StepsOf(
    const std::vector<EngineEvent>& events) {
  std::map<std::string, std::vector<StepResult>> steps;
  for (const EngineEvent& event : events) {
    if (event.kind == EngineEvent::Kind::kStep) {
      steps[event.stream_id].push_back(event.step);
    }
  }
  return steps;
}

// Bitwise step-series comparison (NaN-tolerant on the CI columns).
void ExpectIdenticalSeries(
    const std::map<std::string, std::vector<StepResult>>& a,
    const std::map<std::string, std::vector<StepResult>>& b,
    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (const auto& [key, steps] : a) {
    auto it = b.find(key);
    ASSERT_NE(it, b.end()) << what << " key " << key;
    ASSERT_EQ(steps.size(), it->second.size()) << what << " key " << key;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const StepResult& x = steps[i];
      const StepResult& y = it->second[i];
      EXPECT_EQ(x.time, y.time) << what << " " << key << " step " << i;
      EXPECT_EQ(x.score, y.score) << what << " " << key << " step " << i;
      EXPECT_TRUE((std::isnan(x.xi) && std::isnan(y.xi)) || x.xi == y.xi)
          << what << " " << key << " step " << i;
      EXPECT_EQ(x.alarm, y.alarm) << what << " " << key << " step " << i;
    }
  }
}

// Reference replay: a fresh detector seeded exactly as the engine would seed
// `key`, fed `bags` in order; collects every emitted step.
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

// ---------------------------------------------------------------------------
// detector.push: contained and budgeted recovery, shard-count invariance.

TEST(FaultMatrixTest, ContainedFaultQuarantinesOnlyTargetedStreams) {
  // Historical mode (max_stream_faults = 0): the injected failure quarantines
  // the targeted streams and nothing else. seeded-p keys the decision to the
  // per-stream seed, so WHICH streams fault is a pure function of the corpus
  // — identical at every shard count — and survivors stay bitwise equal to a
  // fault-free run.
  const auto corpus = Corpus(10, 12);

  auto clean = StreamEngine::Create(SmallEngine(2)).MoveValueUnsafe();
  SubmitRange(clean.get(), corpus, 0, 12);
  clean->Flush();
  const auto expected = StepsOf(clean->DrainEvents());

  std::set<std::string> baseline_faulted;
  bool first = true;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ScopedFault armed("detector.push:seeded-p:0.02:9");
    ASSERT_TRUE(armed.status().ok());
    auto engine = StreamEngine::Create(SmallEngine(shards)).MoveValueUnsafe();
    SubmitRange(engine.get(), corpus, 0, 12);
    engine->Flush();
    EXPECT_GT(armed.fired(), 0u) << shards << " shards";

    std::set<std::string> faulted;
    auto events = engine->DrainEvents();
    for (const EngineEvent& event : events) {
      if (event.kind == EngineEvent::Kind::kError) {
        EXPECT_NE(event.error.message().find("fault-injected: detector.push"),
                  std::string::npos)
            << event.error.ToString();
        faulted.insert(event.stream_id);
      }
      EXPECT_NE(event.kind, EngineEvent::Kind::kStreamFault)
          << "no contained faults without a budget";
    }
    ASSERT_FALSE(faulted.empty()) << shards << " shards";
    ASSERT_LT(faulted.size(), corpus.size()) << shards << " shards";
    if (first) {
      baseline_faulted = faulted;
      first = false;
    } else {
      EXPECT_EQ(faulted, baseline_faulted) << shards << " shards";
    }

    // Survivors: every result bitwise equal to the fault-free run.
    auto steps = StepsOf(events);
    std::map<std::string, std::vector<StepResult>> expected_survivors;
    for (const auto& [key, series] : expected) {
      if (faulted.count(key) == 0) expected_survivors[key] = series;
    }
    for (const std::string& key : faulted) steps.erase(key);
    ExpectIdenticalSeries(expected_survivors, steps,
                          "survivors @ " + std::to_string(shards) + " shards");
  }
}

TEST(FaultMatrixTest, BudgetedRestartIsBitwiseAcrossShardCounts) {
  // Same drill with a fault budget: targeted streams restart from scratch
  // instead of quarantining. Every recovery decision is keyed to per-stream
  // push ordinals, so the complete outcome — results, contained-fault count,
  // quarantine set — is identical for every shard count.
  const auto corpus = Corpus(10, 12);

  std::map<std::string, std::vector<StepResult>> baseline_steps;
  std::uint64_t baseline_faults = 0;
  std::set<std::string> baseline_errors;
  bool first = true;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ScopedFault armed("detector.push:seeded-p:0.02:9");
    ASSERT_TRUE(armed.status().ok());
    StreamEngineOptions options = SmallEngine(shards);
    options.max_stream_faults = 5;
    auto engine = StreamEngine::Create(options).MoveValueUnsafe();
    SubmitRange(engine.get(), corpus, 0, 12);
    engine->Flush();
    EXPECT_GT(engine->stream_fault_count(), 0u) << shards << " shards";

    std::set<std::string> errors;
    bool saw_contained = false;
    auto events = engine->DrainEvents();
    for (const EngineEvent& event : events) {
      if (event.kind == EngineEvent::Kind::kError) {
        errors.insert(event.stream_id);
      } else if (event.kind == EngineEvent::Kind::kStreamFault) {
        saw_contained = true;
        EXPECT_NE(event.error.message().find("fault-injected"),
                  std::string::npos);
      }
    }
    EXPECT_TRUE(saw_contained) << shards << " shards";
    const auto steps = StepsOf(events);
    if (first) {
      baseline_steps = steps;
      baseline_faults = engine->stream_fault_count();
      baseline_errors = errors;
      first = false;
      continue;
    }
    EXPECT_EQ(engine->stream_fault_count(), baseline_faults)
        << shards << " shards";
    EXPECT_EQ(errors, baseline_errors) << shards << " shards";
    ExpectIdenticalSeries(baseline_steps, steps,
                          "budgeted @ " + std::to_string(shards) + " shards");
  }
}

TEST(FaultMatrixTest, ThousandStreamDrillKeepsSurvivorsBitwise) {
  // The acceptance drill at production-ish fan-in: 1000 streams, a seeded
  // fault hitting a few hundred of them, a fault budget. A hit stream
  // recovers — or, when its fault ordinal keeps re-firing after each
  // restart, exhausts the budget and quarantines. Either way the engine
  // finishes, only targeted streams are affected, every unaffected stream
  // is bitwise-identical to a fault-free run — and the whole outcome is
  // identical at shards 1, 2, and 4.
  const auto corpus = Corpus(1000, 10);

  auto clean = StreamEngine::Create(SmallEngine(4)).MoveValueUnsafe();
  SubmitRange(clean.get(), corpus, 0, 10);
  clean->Flush();
  const auto expected = StepsOf(clean->DrainEvents());

  std::set<std::string> baseline_touched;
  std::map<std::string, std::vector<StepResult>> baseline_steps;
  bool first = true;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ScopedFault armed("detector.push:seeded-p:0.02:9");
    ASSERT_TRUE(armed.status().ok());
    StreamEngineOptions options = SmallEngine(shards);
    options.max_stream_faults = 5;
    auto engine = StreamEngine::Create(options).MoveValueUnsafe();
    SubmitRange(engine.get(), corpus, 0, 10);
    engine->Flush();
    EXPECT_GT(armed.fired(), 0u);

    std::set<std::string> touched;
    std::set<std::string> quarantined;
    auto events = engine->DrainEvents();
    for (const EngineEvent& event : events) {
      if (event.kind == EngineEvent::Kind::kStreamFault) {
        touched.insert(event.stream_id);
      } else if (event.kind == EngineEvent::Kind::kError) {
        // Past-budget quarantine: must be a stream the fault actually hit.
        EXPECT_NE(event.error.message().find("fault-injected"),
                  std::string::npos)
            << event.error.ToString();
        quarantined.insert(event.stream_id);
        touched.insert(event.stream_id);
      }
    }
    ASSERT_FALSE(touched.empty());
    ASSERT_LT(touched.size(), corpus.size());
    EXPECT_LT(quarantined.size(), touched.size())
        << "some hit streams must survive on the budget";
    const auto steps = StepsOf(events);

    // Survivors bitwise against the fault-free run.
    std::map<std::string, std::vector<StepResult>> expected_survivors;
    std::map<std::string, std::vector<StepResult>> got_survivors;
    for (const auto& [key, series] : expected) {
      if (touched.count(key) != 0) continue;
      expected_survivors[key] = series;
      auto it = steps.find(key);
      if (it != steps.end()) got_survivors[key] = it->second;
    }
    ExpectIdenticalSeries(expected_survivors, got_survivors,
                          "1k survivors @ " + std::to_string(shards));

    // And the complete outcome — including the faulted streams' recovered
    // series — is shard-invariant.
    if (first) {
      baseline_touched = touched;
      baseline_steps = steps;
      first = false;
    } else {
      EXPECT_EQ(touched, baseline_touched) << shards << " shards";
      ExpectIdenticalSeries(baseline_steps, steps,
                            "1k outcome @ " + std::to_string(shards));
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot-based recovery and the poisoned-snapshot fallback.

TEST(FaultMatrixTest, SnapshotRecoveryResumesFromRollingCheckpoint) {
  StreamEngineOptions options = SmallEngine(1);
  options.detector.bootstrap.replicates = 30;  // Snapshots carry RNG state.
  options.max_stream_faults = 1;
  options.snapshot_interval = 2;
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();
  const BagSequence bags = KeyStream("s", 16);

  {
    // Push 7 faults; the rolling snapshot holds pushes 1..6, so the restore
    // loses nothing but the faulted bag itself.
    ScopedFault armed("detector.push:nth:7");
    ASSERT_TRUE(armed.status().ok());
    for (std::size_t t = 0; t < 7; ++t) {
      ASSERT_TRUE(engine->Submit("s", bags[t]).ok());
    }
    engine->Flush();
    EXPECT_EQ(armed.fired(), 1u);
  }
  for (std::size_t t = 7; t < 16; ++t) {
    ASSERT_TRUE(engine->Submit("s", bags[t]).ok());
  }
  engine->Flush();

  EXPECT_EQ(engine->stream_fault_count(), 1u);
  EXPECT_EQ(engine->restored_count(), 1u);
  bool saw_fault = false, saw_restore = false;
  const auto events = engine->DrainEvents();
  for (const EngineEvent& event : events) {
    if (event.kind == EngineEvent::Kind::kStreamFault) saw_fault = true;
    if (event.kind == EngineEvent::Kind::kRestore) saw_restore = true;
    EXPECT_NE(event.kind, EngineEvent::Kind::kError);
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_restore);

  // Reference: bags 0..5 (the snapshot's six pushes), then 7.. (bag 6 was
  // consumed by the fault). The engine's full series must match bitwise.
  std::vector<const Bag*> fed;
  for (std::size_t t = 0; t < 6; ++t) fed.push_back(&bags[t]);
  for (std::size_t t = 7; t < 16; ++t) fed.push_back(&bags[t]);
  std::map<std::string, std::vector<StepResult>> expected;
  expected["s"] = Replay(options, "s", fed);
  ExpectIdenticalSeries(expected, StepsOf(events), "snapshot recovery");
}

TEST(FaultMatrixTest, PoisonedSnapshotFallsBackToFreshRestart) {
  // ckpt.import armed on every occurrence: the rehydrate fails, then both
  // restore attempts against the rolling snapshot fail, the snapshot is
  // declared poisoned, and the stream restarts from scratch — quarantine
  // never enters the picture.
  ScopedFault armed("ckpt.import:every-n:1");
  ASSERT_TRUE(armed.status().ok());

  StreamEngineOptions options = SmallEngine(1);
  const ScopedTempDir spill_dir("bagcpd-fault");
  options.spill_directory = spill_dir.path();
  options.max_idle_submissions = 4;
  options.max_stream_faults = 3;
  options.snapshot_interval = 2;
  ASSERT_EQ(options.max_restore_failures, 2u);
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();

  const BagSequence cold = KeyStream("cold", 16);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  // Enough traffic to cross the periodic sweep threshold and spill "cold".
  const Bag filler = KeyStream("busy", 1).front();
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(engine->Submit("busy", filler).ok());
  }
  engine->Flush();
  ASSERT_EQ(engine->spilled_count(), 1u);

  // The next cold bag triggers rehydrate (1 failed import), then the ladder
  // burns both restore attempts (2 more) and falls back to scratch.
  for (std::size_t t = 4; t < 16; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  engine->Flush();
  EXPECT_EQ(FaultInjector::Global().fired_count(fault::FaultPoint::kCkptImport),
            3u);
  EXPECT_EQ(engine->stream_fault_count(), 1u);
  EXPECT_EQ(engine->restored_count(), 0u);

  std::map<std::string, std::vector<StepResult>> cold_steps;
  for (const EngineEvent& event : engine->DrainEvents()) {
    EXPECT_NE(event.kind, EngineEvent::Kind::kError) << event.error.ToString();
    if (event.kind == EngineEvent::Kind::kStep && event.stream_id == "cold") {
      cold_steps["cold"].push_back(event.step);
    }
  }
  // The restarted stream equals a fresh detector fed only the post-fault
  // bags (bag 4 was consumed by the failed rehydrate).
  std::vector<const Bag*> fed;
  for (std::size_t t = 5; t < 16; ++t) fed.push_back(&cold[t]);
  std::map<std::string, std::vector<StepResult>> expected;
  expected["cold"] = Replay(options, "cold", fed);
  ExpectIdenticalSeries(expected, cold_steps, "fresh after poisoned snapshot");
}

// ---------------------------------------------------------------------------
// Spill I/O fault points and on-disk corruption.

TEST(FaultMatrixTest, SpillWriteFaultKeepsStreamResident) {
  ScopedFault armed("spill.write:every-n:1");
  ASSERT_TRUE(armed.status().ok());

  StreamEngineOptions options = SmallEngine(1);
  const ScopedTempDir spill_dir("bagcpd-fault");
  options.spill_directory = spill_dir.path();
  options.max_idle_submissions = 4;
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();

  const BagSequence cold = KeyStream("cold", 12);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  const Bag filler = KeyStream("busy", 1).front();
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(engine->Submit("busy", filler).ok());
  }
  engine->Flush();
  // Every spill attempt failed like a bad write: nothing left memory and
  // nothing was lost.
  EXPECT_GT(armed.fired(), 0u);
  EXPECT_EQ(engine->spilled_count(), 0u);
  EXPECT_EQ(engine->live_stream_count(), 2u);
  EXPECT_TRUE(ListFiles(options.spill_directory).empty());

  // The stream continues from its resident state: the full series equals an
  // uninterrupted replay, proving no state was dropped by the failed spills.
  for (std::size_t t = 4; t < 12; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  engine->Flush();
  std::map<std::string, std::vector<StepResult>> cold_steps;
  for (const EngineEvent& event : engine->DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kStep && event.stream_id == "cold") {
      cold_steps["cold"].push_back(event.step);
    }
  }
  std::vector<const Bag*> fed;
  for (std::size_t t = 0; t < 12; ++t) fed.push_back(&cold[t]);
  std::map<std::string, std::vector<StepResult>> expected;
  expected["cold"] = Replay(options, "cold", fed);
  ExpectIdenticalSeries(expected, cold_steps, "resident after failed spill");
}

TEST(FaultMatrixTest, SpillReadFaultRestoresFromSnapshot) {
  ScopedFault armed("spill.read:nth:1");
  ASSERT_TRUE(armed.status().ok());

  StreamEngineOptions options = SmallEngine(1);
  const ScopedTempDir spill_dir("bagcpd-fault");
  options.spill_directory = spill_dir.path();
  options.max_idle_submissions = 4;
  options.max_stream_faults = 2;
  options.snapshot_interval = 2;
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();

  const BagSequence cold = KeyStream("cold", 16);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  const Bag filler = KeyStream("busy", 1).front();
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(engine->Submit("busy", filler).ok());
  }
  engine->Flush();
  ASSERT_EQ(engine->spilled_count(), 1u);

  // The unreadable spill file costs the triggering bag; the rolling snapshot
  // (4 pushes — refreshed just before the spill) restores the rest.
  for (std::size_t t = 4; t < 16; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  engine->Flush();
  EXPECT_EQ(engine->stream_fault_count(), 1u);
  EXPECT_EQ(engine->restored_count(), 1u);
  // The dead spill file was deleted with the fault.
  EXPECT_TRUE(ListFiles(options.spill_directory).empty());

  std::map<std::string, std::vector<StepResult>> cold_steps;
  for (const EngineEvent& event : engine->DrainEvents()) {
    EXPECT_NE(event.kind, EngineEvent::Kind::kError) << event.error.ToString();
    if (event.kind == EngineEvent::Kind::kStep && event.stream_id == "cold") {
      cold_steps["cold"].push_back(event.step);
    }
  }
  std::vector<const Bag*> fed;
  for (std::size_t t = 0; t < 4; ++t) fed.push_back(&cold[t]);
  for (std::size_t t = 5; t < 16; ++t) fed.push_back(&cold[t]);
  std::map<std::string, std::vector<StepResult>> expected;
  expected["cold"] = Replay(options, "cold", fed);
  ExpectIdenticalSeries(expected, cold_steps, "snapshot after spill.read");
}

TEST(FaultMatrixTest, CorruptSpillFileQuarantinesWithoutBudget) {
  // Real on-disk corruption (no injector): with the historical
  // max_stream_faults = 0 a truncated spill file quarantines the stream on
  // its next bag — typed kError, other streams untouched.
  StreamEngineOptions options = SmallEngine(1);
  const ScopedTempDir spill_dir("bagcpd-fault");
  options.spill_directory = spill_dir.path();
  options.max_idle_submissions = 4;
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();

  const BagSequence cold = KeyStream("cold", 8);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  const Bag filler = KeyStream("busy", 1).front();
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(engine->Submit("busy", filler).ok());
  }
  engine->Flush();
  ASSERT_EQ(engine->spilled_count(), 1u);

  const std::vector<std::string> files = ListFiles(options.spill_directory);
  ASSERT_EQ(files.size(), 1u);
  {
    std::ifstream in(files[0], std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 8u);
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  for (std::size_t t = 4; t < 8; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  ASSERT_TRUE(engine->Submit("busy", filler).ok());
  engine->Flush();
  std::vector<EngineEvent> errors;
  for (EngineEvent& event : engine->DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kError) {
      errors.push_back(std::move(event));
    }
  }
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.front().stream_id, "cold");
  EXPECT_FALSE(errors.front().error.ok());
  EXPECT_EQ(engine->live_stream_count(), 1u);  // Only "busy" survives.
}

TEST(FaultMatrixTest, CorruptSpillFileIsContainedWithBudget) {
  // The same corruption with a fault budget: the stream restarts from
  // scratch instead of quarantining and keeps producing results.
  StreamEngineOptions options = SmallEngine(1);
  const ScopedTempDir spill_dir("bagcpd-fault");
  options.spill_directory = spill_dir.path();
  options.max_idle_submissions = 4;
  options.max_stream_faults = 2;
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();

  const BagSequence cold = KeyStream("cold", 16);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  const Bag filler = KeyStream("busy", 1).front();
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(engine->Submit("busy", filler).ok());
  }
  engine->Flush();
  ASSERT_EQ(engine->spilled_count(), 1u);
  const std::vector<std::string> files = ListFiles(options.spill_directory);
  ASSERT_EQ(files.size(), 1u);
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out << "not a spill file";
  }

  for (std::size_t t = 4; t < 16; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  engine->Flush();
  EXPECT_EQ(engine->stream_fault_count(), 1u);

  std::map<std::string, std::vector<StepResult>> cold_steps;
  for (const EngineEvent& event : engine->DrainEvents()) {
    EXPECT_NE(event.kind, EngineEvent::Kind::kError) << event.error.ToString();
    if (event.kind == EngineEvent::Kind::kStep && event.stream_id == "cold") {
      cold_steps["cold"].push_back(event.step);
    }
  }
  std::vector<const Bag*> fed;  // No snapshots: from-scratch restart.
  for (std::size_t t = 5; t < 16; ++t) fed.push_back(&cold[t]);
  std::map<std::string, std::vector<StepResult>> expected;
  expected["cold"] = Replay(options, "cold", fed);
  ExpectIdenticalSeries(expected, cold_steps, "contained corrupt spill");
}

// ---------------------------------------------------------------------------
// Ingest-boundary drops: arena.alloc faults and non-finite bags.

TEST(FaultMatrixTest, ArenaAllocFaultDropsOnlyTaggedSubmission) {
  ScopedFault armed("arena.alloc:nth:5");
  ASSERT_TRUE(armed.status().ok());
  auto engine = StreamEngine::Create(SmallEngine(1)).MoveValueUnsafe();
  const BagSequence bags = KeyStream("k", 12);
  for (const Bag& bag : bags) {
    ASSERT_TRUE(engine->Submit("k", bag).ok());
  }
  engine->Flush();
  EXPECT_EQ(armed.fired(), 1u);
  EXPECT_EQ(engine->dropped_count(), 1u);

  std::size_t fault_events = 0;
  std::map<std::string, std::vector<StepResult>> steps;
  for (const EngineEvent& event : engine->DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kStreamFault) {
      ++fault_events;
      EXPECT_EQ(event.sequence, 5u);
      EXPECT_NE(event.error.message().find("fault-injected: arena.alloc"),
                std::string::npos);
    } else if (event.kind == EngineEvent::Kind::kStep) {
      steps[event.stream_id].push_back(event.step);
    }
  }
  EXPECT_EQ(fault_events, 1u);

  // The stream's detector never saw the 5th bag; everything else scored.
  std::vector<const Bag*> fed;
  for (std::size_t t = 0; t < bags.size(); ++t) {
    if (t != 4) fed.push_back(&bags[t]);
  }
  std::map<std::string, std::vector<StepResult>> expected;
  expected["k"] = Replay(SmallEngine(1), "k", fed);
  ExpectIdenticalSeries(expected, steps, "arena.alloc drop");
}

TEST(FaultMatrixTest, NonFiniteBagIsDroppedNotQuarantined) {
  // Default options (no budget): a poisoned bag is dropped per bag with a
  // kStreamFault naming the offending point; the stream itself continues.
  auto engine = StreamEngine::Create(SmallEngine(1)).MoveValueUnsafe();
  const BagSequence bags = KeyStream("k", 12);
  for (std::size_t t = 0; t < bags.size(); ++t) {
    if (t == 3) {
      Bag poisoned = bags[t];
      poisoned[0][1] = std::nan("");
      ASSERT_TRUE(engine->Submit("k", poisoned).ok());
      continue;
    }
    ASSERT_TRUE(engine->Submit("k", bags[t]).ok());
  }
  engine->Flush();
  EXPECT_EQ(engine->dropped_count(), 1u);
  EXPECT_EQ(engine->stream_fault_count(), 0u);  // No budget charged.

  std::size_t fault_events = 0;
  std::map<std::string, std::vector<StepResult>> steps;
  for (const EngineEvent& event : engine->DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kStreamFault) {
      ++fault_events;
      EXPECT_EQ(event.error.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(event.error.message().find("non-finite"), std::string::npos);
    } else {
      EXPECT_EQ(event.kind, EngineEvent::Kind::kStep);
      steps[event.stream_id].push_back(event.step);
    }
  }
  EXPECT_EQ(fault_events, 1u);

  std::vector<const Bag*> fed;
  for (std::size_t t = 0; t < bags.size(); ++t) {
    if (t != 3) fed.push_back(&bags[t]);
  }
  std::map<std::string, std::vector<StepResult>> expected;
  expected["k"] = Replay(SmallEngine(1), "k", fed);
  ExpectIdenticalSeries(expected, steps, "non-finite drop");
}

// ---------------------------------------------------------------------------
// Backoff windows.

TEST(FaultMatrixTest, BackoffWindowDropsBagsDeterministically) {
  StreamEngineOptions options = SmallEngine(1);
  options.max_stream_faults = 3;
  options.fault_backoff_submissions = 6;
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();
  const BagSequence a = KeyStream("a", 16);
  const BagSequence b = KeyStream("b", 16);
  {
    // Strict a,b interleave. nth counts per-stream push ordinals, so BOTH
    // streams fault on their own 6th push: "a" at global sequence 11
    // (cooldown through 11 + 6 = 17, dropping its bags at sequences 13, 15,
    // 17), "b" at sequence 12 (cooldown through 18, dropping 14, 16, 18).
    ScopedFault armed("detector.push:nth:6");
    ASSERT_TRUE(armed.status().ok());
    for (std::size_t t = 0; t < 6; ++t) {
      ASSERT_TRUE(engine->Submit("a", a[t]).ok());
      ASSERT_TRUE(engine->Submit("b", b[t]).ok());
    }
    engine->Flush();
    EXPECT_EQ(armed.fired(), 2u);
  }
  for (std::size_t t = 6; t < 16; ++t) {
    ASSERT_TRUE(engine->Submit("a", a[t]).ok());
    ASSERT_TRUE(engine->Submit("b", b[t]).ok());
  }
  engine->Flush();
  // Per stream: 1 faulted bag + 3 cooldown drops.
  EXPECT_EQ(engine->dropped_count(), 8u);
  EXPECT_EQ(engine->stream_fault_count(), 2u);

  std::map<std::string, std::vector<StepResult>> steps;
  for (const EngineEvent& event : engine->DrainEvents()) {
    EXPECT_NE(event.kind, EngineEvent::Kind::kError);
    if (event.kind == EngineEvent::Kind::kStep) {
      steps[event.stream_id].push_back(event.step);
    }
  }
  // Each stream restarts from scratch on its first bag past its own window
  // (t = 9 for both) — the windows are sequence arithmetic, not wall-clock,
  // so the drop sets are exactly predictable.
  std::vector<const Bag*> a_fed;
  for (std::size_t t = 9; t < 16; ++t) a_fed.push_back(&a[t]);
  std::vector<const Bag*> b_fed;
  for (std::size_t t = 9; t < 16; ++t) b_fed.push_back(&b[t]);
  std::map<std::string, std::vector<StepResult>> expected;
  expected["a"] = Replay(options, "a", a_fed);
  expected["b"] = Replay(options, "b", b_fed);
  ExpectIdenticalSeries(expected, steps, "backoff window");
}

// ---------------------------------------------------------------------------
// Spill-file GC.

TEST(FaultMatrixTest, SpillGcReclaimsKeysThatNeverReturn) {
  StreamEngineOptions options = SmallEngine(1);
  const ScopedTempDir spill_dir("bagcpd-fault");
  options.spill_directory = spill_dir.path();
  options.max_idle_submissions = 4;
  options.spill_gc_submissions = 100;
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();

  const BagSequence cold = KeyStream("cold", 12);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  // First sweep (~512 tasks) spills the idle key; the second finds it past
  // the GC horizon and deletes the file.
  const Bag filler = KeyStream("busy", 1).front();
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(engine->Submit("busy", filler).ok());
  }
  engine->Flush();
  EXPECT_EQ(engine->spilled_count(), 1u);
  EXPECT_EQ(engine->spill_gc_count(), 1u);
  EXPECT_EQ(engine->evicted_count(), 1u);
  EXPECT_TRUE(ListFiles(options.spill_directory).empty());
  bool saw_gc_eviction = false;
  for (const EngineEvent& event : engine->DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kEviction &&
        event.stream_id == "cold") {
      saw_gc_eviction = true;
    }
  }
  EXPECT_TRUE(saw_gc_eviction);

  // A returning key restarts from scratch — the state is gone, not stale.
  for (std::size_t t = 4; t < 12; ++t) {
    ASSERT_TRUE(engine->Submit("cold", cold[t]).ok());
  }
  engine->Flush();
  std::map<std::string, std::vector<StepResult>> cold_steps;
  for (const EngineEvent& event : engine->DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kStep && event.stream_id == "cold") {
      cold_steps["cold"].push_back(event.step);
    }
  }
  std::vector<const Bag*> fed;
  for (std::size_t t = 4; t < 12; ++t) fed.push_back(&cold[t]);
  std::map<std::string, std::vector<StepResult>> expected;
  expected["cold"] = Replay(options, "cold", fed);
  ExpectIdenticalSeries(expected, cold_steps, "fresh after spill GC");
}

// ---------------------------------------------------------------------------
// Detector-level fault points: pool invariance and graceful EMD degradation.

TEST(FaultMatrixTest, EmdSolveFaultIsPoolInvariant) {
  // A step advances the emd.solve ordinal by its whole pair count before any
  // solve, with or without a pool, so the SAME push faults at every pool
  // size, with every prior score bitwise identical.
  const BagSequence bags = KeyStream("emd", 12);
  DetectorOptions options = SmallDetector();
  options.seed = 42;

  std::vector<double> baseline_scores;
  std::size_t baseline_fault_push = 0;
  bool first = true;
  for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ScopedFault armed("emd.solve:nth:23");
    ASSERT_TRUE(armed.status().ok());
    auto detector = BagStreamDetector::Create(options).MoveValueUnsafe();
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      detector->set_thread_pool(pool.get());
    }
    std::vector<double> scores;
    std::size_t fault_push = 0;
    for (std::size_t t = 0; t < bags.size(); ++t) {
      auto step = detector->Push(bags[t]);
      if (!step.ok()) {
        EXPECT_NE(step.status().message().find("fault-injected: emd.solve"),
                  std::string::npos)
            << step.status().ToString();
        fault_push = t + 1;
        break;
      }
      if (step.ValueOrDie().has_value()) {
        scores.push_back(step.ValueOrDie()->score);
      }
    }
    ASSERT_GT(fault_push, 0u) << threads << " threads";
    if (first) {
      baseline_scores = scores;
      baseline_fault_push = fault_push;
      first = false;
      continue;
    }
    EXPECT_EQ(fault_push, baseline_fault_push) << threads << " threads";
    EXPECT_EQ(scores, baseline_scores) << threads << " threads";
  }
}

TEST(FaultMatrixTest, PushAfterFailedStepReturnsStatusUntilResetOrImport) {
  // A step that fails after its signature entered the window leaves the
  // window full and the table half-written. Every later push must return
  // that failure as a Status (not overflow the signature ring), ExportState
  // must refuse the broken window, and Reset() or a successful ImportState
  // must bring back a fresh detector's results, bit for bit.
  DetectorOptions options = SmallDetector();
  options.tau = 4;
  options.tau_prime = 4;
  options.bootstrap.replicates = 20;  // Reset must restart the CI stream too.
  options.seed = 3;
  Rng rng(77);
  const GaussianMixture mix = GaussianMixture::Isotropic({0.0, 0.0}, 1.0);
  BagSequence bags;
  for (int t = 0; t < 14; ++t) bags.push_back(mix.SampleBag(10, &rng));

  // Fault-free reference, plus its state after 9 pushes for the import path.
  std::vector<StepResult> fresh;
  std::string blob_after_9;
  std::size_t results_before_9 = 0;
  {
    auto detector = BagStreamDetector::Create(options).MoveValueUnsafe();
    for (std::size_t t = 0; t < bags.size(); ++t) {
      if (t == 9) {
        ASSERT_TRUE(detector->ExportState(&blob_after_9).ok());
        results_before_9 = fresh.size();
      }
      auto step = detector->Push(bags[t]);
      ASSERT_TRUE(step.ok()) << step.status().ToString();
      if (step.ValueOrDie().has_value()) fresh.push_back(*step.ValueOrDie());
    }
  }
  const auto expect_same = [](const std::vector<StepResult>& a,
                              const std::vector<StepResult>& b,
                              const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].time, b[i].time) << what << " step " << i;
      EXPECT_EQ(a[i].score, b[i].score) << what << " step " << i;
      EXPECT_EQ(a[i].ci_lo, b[i].ci_lo) << what << " step " << i;
      EXPECT_EQ(a[i].ci_up, b[i].ci_up) << what << " step " << i;
    }
  };

  for (std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    for (const bool via_import : {false, true}) {
      const std::string what = std::to_string(threads) + " threads, " +
                               (via_import ? "import" : "reset");
      auto detector = BagStreamDetector::Create(options).MoveValueUnsafe();
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) {
        pool = std::make_unique<ThreadPool>(threads);
        detector->set_thread_pool(pool.get());
      }
      {
        // The window holds 8 signatures: push 8 solves C(8, 2) = 28 pairs
        // and each later push 7, so ordinal 40 falls in push 10.
        ScopedFault armed("emd.solve:nth:40");
        ASSERT_TRUE(armed.status().ok());
        for (std::size_t t = 0; t < 9; ++t) {
          ASSERT_TRUE(detector->Push(bags[t]).ok()) << what << " push " << t;
        }
        const auto failed = detector->Push(bags[9]);
        ASSERT_FALSE(failed.ok()) << what;
        EXPECT_NE(failed.status().message().find("fault-injected: emd.solve"),
                  std::string::npos)
            << failed.status().ToString();
        for (std::size_t t = 10; t < 13; ++t) {
          const auto later = detector->Push(bags[t]);
          ASSERT_FALSE(later.ok()) << what << " push " << t;
          EXPECT_EQ(later.status().ToString(), failed.status().ToString());
        }
        std::string blob;
        EXPECT_EQ(detector->ExportState(&blob).ToString(),
                  failed.status().ToString())
            << what;
      }
      std::vector<StepResult> results;
      std::size_t first = 0;
      if (via_import) {
        ASSERT_TRUE(detector->ImportState(blob_after_9).ok()) << what;
        first = 9;
      } else {
        detector->Reset();
      }
      for (std::size_t t = first; t < bags.size(); ++t) {
        auto step = detector->Push(bags[t]);
        ASSERT_TRUE(step.ok()) << what << ": " << step.status().ToString();
        if (step.ValueOrDie().has_value()) results.push_back(*step.ValueOrDie());
      }
      const std::vector<StepResult> expected(
          fresh.begin() + (via_import ? results_before_9 : 0), fresh.end());
      expect_same(expected, results, what);
    }
  }
}

TEST(FaultMatrixTest, SinkhornFaultFallsBackToExactWhenEnabled) {
  const BagSequence bags = KeyStream("sk", 12);

  // Reference: the exact solver end to end.
  DetectorOptions exact = SmallDetector();
  exact.seed = 7;
  std::vector<double> exact_scores;
  {
    auto detector = BagStreamDetector::Create(exact).MoveValueUnsafe();
    for (const Bag& bag : bags) {
      auto step = detector->Push(bag);
      ASSERT_TRUE(step.ok());
      if (step.ValueOrDie().has_value()) {
        exact_scores.push_back(step.ValueOrDie()->score);
      }
    }
  }

  DetectorOptions sinkhorn = exact;
  sinkhorn.emd.kind = EmdSolverKind::kSinkhorn;

  {
    // Every Sinkhorn iteration faults; with the fallback the detector scores
    // every pair through the exact solver instead — bitwise the exact run.
    ScopedFault armed("sinkhorn.iterate:every-n:1");
    ASSERT_TRUE(armed.status().ok());
    DetectorOptions with_fallback = sinkhorn;
    with_fallback.emd.fallback_exact = true;
    auto detector =
        BagStreamDetector::Create(with_fallback).MoveValueUnsafe();
    std::vector<double> scores;
    for (const Bag& bag : bags) {
      auto step = detector->Push(bag);
      ASSERT_TRUE(step.ok()) << step.status().ToString();
      if (step.ValueOrDie().has_value()) {
        scores.push_back(step.ValueOrDie()->score);
      }
    }
    EXPECT_EQ(scores, exact_scores);
    EXPECT_GT(detector->emd_solver().fallback_count(), 0u);
    EXPECT_GT(armed.fired(), 0u);
  }
  {
    // Without the fallback the same drill surfaces as a typed push error.
    ScopedFault armed("sinkhorn.iterate:every-n:1");
    ASSERT_TRUE(armed.status().ok());
    auto detector = BagStreamDetector::Create(sinkhorn).MoveValueUnsafe();
    Status failure;
    for (const Bag& bag : bags) {
      auto step = detector->Push(bag);
      if (!step.ok()) {
        failure = step.status();
        break;
      }
    }
    EXPECT_FALSE(failure.ok());
    EXPECT_NE(failure.message().find("fault-injected: sinkhorn.iterate"),
              std::string::npos)
        << failure.ToString();
  }
}

// ---------------------------------------------------------------------------
// Option validation and spec round-trips for the new keys.

TEST(FaultMatrixTest, ValidationRejectsIncoherentRecoveryOptions) {
  StreamEngineOptions backoff_only = SmallEngine(1);
  backoff_only.fault_backoff_submissions = 4;
  EXPECT_FALSE(ValidateStreamEngineOptions(backoff_only).ok());

  StreamEngineOptions snapshot_only = SmallEngine(1);
  snapshot_only.snapshot_interval = 4;
  EXPECT_FALSE(ValidateStreamEngineOptions(snapshot_only).ok());

  StreamEngineOptions gc_without_dir = SmallEngine(1);
  gc_without_dir.spill_gc_submissions = 10;
  EXPECT_FALSE(ValidateStreamEngineOptions(gc_without_dir).ok());

  StreamEngineOptions bad_fault = SmallEngine(1);
  bad_fault.fault = "detector.push:sometimes:1";
  EXPECT_FALSE(ValidateStreamEngineOptions(bad_fault).ok());

  StreamEngineOptions coherent = SmallEngine(1);
  coherent.max_stream_faults = 2;
  coherent.fault_backoff_submissions = 4;
  coherent.snapshot_interval = 4;
  coherent.fault = "detector.push:nth:3";
  EXPECT_TRUE(ValidateStreamEngineOptions(coherent).ok());
  FaultInjector::Global().Disarm();  // Validation must not arm...
  EXPECT_FALSE(FaultInjector::Global().armed());
}

TEST(FaultMatrixTest, EngineSpecRoundTripsFaultContainmentKeys) {
  const ScopedTempDir spill_dir("bagcpd-fault");
  const std::string dir = spill_dir.path();
  api::EngineSpec spec;
  spec.NumShards(2)
      .Seed(9)
      .SpillDirectory(dir)
      .SpillGc(200)
      .FaultBudget(3)
      .FaultBackoff(16)
      .SnapshotEvery(8)
      .Fault("spill.read:nth:2");
  const std::string text = spec.ToKeyValues();
  EXPECT_NE(text.find("spill_gc=200"), std::string::npos) << text;
  EXPECT_NE(text.find("fault_budget=3"), std::string::npos) << text;
  EXPECT_NE(text.find("fault_backoff=16"), std::string::npos) << text;
  EXPECT_NE(text.find("snapshot_every=8"), std::string::npos) << text;
  EXPECT_NE(text.find("fault=spill.read:nth:2"), std::string::npos) << text;
  Result<api::EngineSpec> reparsed = api::EngineSpec::FromKeyValues(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToKeyValues(), text);
  Result<StreamEngineOptions> built = reparsed->Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->spill_gc_submissions, 200u);
  EXPECT_EQ(built->max_stream_faults, 3u);
  EXPECT_EQ(built->fault_backoff_submissions, 16u);
  EXPECT_EQ(built->snapshot_interval, 8u);
  EXPECT_EQ(built->fault, "spill.read:nth:2");
  FaultInjector::Global().Disarm();  // Build() must not arm; Create() does.

  // Defaults emit none of the new keys: canonical strings are unchanged for
  // legacy configurations.
  const std::string base = api::EngineSpec().ToKeyValues();
  EXPECT_EQ(base.find("fault"), std::string::npos) << base;
  EXPECT_EQ(base.find("spill_gc"), std::string::npos) << base;
  EXPECT_EQ(base.find("snapshot_every"), std::string::npos) << base;

  // A malformed fault spec survives parsing (keys are stored verbatim) but
  // fails at Build(), before any work starts — never at the first drill.
  Result<api::EngineSpec> bogus =
      api::EngineSpec::FromKeyValues("shards=1,fault=bogus");
  ASSERT_TRUE(bogus.ok()) << bogus.status().ToString();
  EXPECT_FALSE(bogus->Build().ok());
}

TEST(FaultMatrixTest, DetectorSpecRoundTripsEmdFallback) {
  api::DetectorSpec spec;
  spec.EmdFallbackExact(true);
  const std::string text = spec.ToKeyValues();
  EXPECT_NE(text.find("emd-fallback=exact"), std::string::npos) << text;
  Result<api::DetectorSpec> reparsed = api::DetectorSpec::FromKeyValues(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToKeyValues(), text);

  Result<api::DetectorSpec> off =
      api::DetectorSpec::FromKeyValues("emd-fallback=none");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->ToKeyValues().find("emd-fallback"), std::string::npos);
  EXPECT_FALSE(api::DetectorSpec::FromKeyValues("emd-fallback=maybe").ok());

  // The default string never carries the key (legacy canonical form).
  EXPECT_EQ(api::DetectorSpec().ToKeyValues().find("emd-fallback"),
            std::string::npos);
}

}  // namespace
}  // namespace bagcpd

// Thread-count-invariance: the runtime's contract is that for a fixed seed,
// every observable output — bootstrap intervals, detector step results,
// engine batch results — is bitwise-identical for any pool/shard size,
// including the fully serial paths. These tests pin that contract for pool
// sizes 0 (inline), 1, 2, and 8 across the three parallel entry points:
// BootstrapScoreInterval, BagStreamDetector::Run (EMD columns + bootstrap),
// and a StreamEngine sweep (Submit, Flush, DrainEvents).

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/core/bootstrap.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/runtime/stream_engine.h"
#include "bagcpd/runtime/thread_pool.h"
#include "testing/engine_sweep.h"

namespace bagcpd {
namespace {

ScoreContext MakeContext(std::size_t tau, std::size_t tau_prime) {
  ScoreContext ctx;
  ctx.log_ref_ref = Matrix(tau, tau, 0.3);
  ctx.log_test_test = Matrix(tau_prime, tau_prime, 0.4);
  ctx.log_ref_test = Matrix(tau, tau_prime, 1.0);
  for (std::size_t i = 0; i < tau; ++i) ctx.log_ref_ref(i, i) = 0.0;
  for (std::size_t i = 0; i < tau_prime; ++i) ctx.log_test_test(i, i) = 0.0;
  ctx.log_ref_test(0, 0) = 2.0;
  ctx.log_ref_ref(0, 1) = 0.9;
  ctx.log_ref_ref(1, 0) = 0.9;
  return ctx;
}

DetectorOptions SmallDetector() {
  DetectorOptions options;
  options.tau = 4;
  options.tau_prime = 4;
  options.bootstrap.replicates = 60;
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 4;
  options.seed = 11;
  return options;
}

// Engine-side detector config: the engine derives per-stream seeds from its
// own seed and rejects a nonzero detector.seed outright.
DetectorOptions EngineDetector() {
  DetectorOptions options = SmallDetector();
  options.seed = 0;
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
    bags.push_back(mix.SampleBag(20, &rng));
  }
  return bags;
}

void ExpectIdenticalSteps(const std::vector<StepResult>& a,
                          const std::vector<StepResult>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << what << " step " << i;
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score) << what << " step " << i;
    // NaN-tolerant exact comparison for the CI fields.
    EXPECT_TRUE((std::isnan(a[i].ci_lo) && std::isnan(b[i].ci_lo)) ||
                a[i].ci_lo == b[i].ci_lo)
        << what << " step " << i;
    EXPECT_TRUE((std::isnan(a[i].ci_up) && std::isnan(b[i].ci_up)) ||
                a[i].ci_up == b[i].ci_up)
        << what << " step " << i;
    EXPECT_TRUE((std::isnan(a[i].xi) && std::isnan(b[i].xi)) ||
                a[i].xi == b[i].xi)
        << what << " step " << i;
    EXPECT_EQ(a[i].alarm, b[i].alarm) << what << " step " << i;
  }
}

TEST(DeterminismTest, BootstrapIntervalInvariantToPoolSize) {
  const ScoreContext ctx = MakeContext(5, 5);
  BootstrapOptions options;
  options.replicates = 200;
  const std::vector<double> pi(5, 0.2);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    Rng serial_rng(42);
    const BootstrapInterval serial =
        BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx, pi, pi, options,
                               &serial_rng, nullptr)
            .ValueOrDie();
    ThreadPool pool(threads);
    Rng pooled_rng(42);
    const BootstrapInterval pooled =
        BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx, pi, pi, options,
                               &pooled_rng, &pool)
            .ValueOrDie();
    EXPECT_DOUBLE_EQ(serial.lo, pooled.lo) << threads << " threads";
    EXPECT_DOUBLE_EQ(serial.up, pooled.up) << threads << " threads";
    EXPECT_DOUBLE_EQ(serial.replicate_mean, pooled.replicate_mean);
    EXPECT_DOUBLE_EQ(serial.replicate_stddev, pooled.replicate_stddev);
    // The caller's generator must have advanced identically either way.
    EXPECT_DOUBLE_EQ(serial_rng.Uniform(), pooled_rng.Uniform());
  }
}

TEST(DeterminismTest, DetectorRunInvariantToPoolSize) {
  const BagSequence bags = JumpStream(24, 12, 7);

  auto serial_owner = BagStreamDetector::Create(SmallDetector()).MoveValueUnsafe();

  BagStreamDetector& serial = *serial_owner;
  const std::vector<StepResult> baseline = serial.Run(bags).ValueOrDie();

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    auto pooled_owner = BagStreamDetector::Create(SmallDetector()).MoveValueUnsafe();
    BagStreamDetector& pooled = *pooled_owner;
    pooled.set_thread_pool(&pool);
    const std::vector<StepResult> results = pooled.Run(bags).ValueOrDie();
    ExpectIdenticalSteps(baseline, results,
                         "pool size " + std::to_string(threads));
    // The pooled path solves exactly the pairs the serial path does: the
    // same transportation solve count, never more.
    EXPECT_EQ(pooled.emd_solve_count(), serial.emd_solve_count());
  }
}

TEST(DeterminismTest, EngineSweepInvariantToShardCount) {
  std::map<std::string, BagSequence> streams;
  for (int s = 0; s < 8; ++s) {
    streams["stream-" + std::to_string(s)] =
        JumpStream(20, (s % 2 == 0) ? 10 : 0, 300 + s);
  }

  std::map<std::string, std::vector<StepResult>> baseline;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    StreamEngineOptions options;
    options.num_shards = shards;
    options.detector = EngineDetector();
    options.seed = 77;
    auto engine_owner = StreamEngine::Create(options).MoveValueUnsafe();
    StreamEngine& engine = *engine_owner;
    auto batch = SweepEngine(engine, streams);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (baseline.empty()) {
      baseline = *batch;
      continue;
    }
    ASSERT_EQ(batch->size(), baseline.size());
    for (const auto& [key, series] : baseline) {
      ExpectIdenticalSteps(series, batch->at(key),
                           key + " @ " + std::to_string(shards) + " shards");
    }
  }
}

TEST(DeterminismTest, FlatIngestMatchesNestedForAnyPoolSize) {
  // The flat storage path must be bitwise-equal to the nested path under
  // every parallelism configuration, not just serially.
  const BagSequence bags = JumpStream(24, 12, 7);
  const FlatBagSequence flat = FlattenSequence(bags).ValueOrDie();

  auto serial_owner = BagStreamDetector::Create(SmallDetector()).MoveValueUnsafe();

  BagStreamDetector& serial = *serial_owner;
  const std::vector<StepResult> baseline = serial.Run(bags).ValueOrDie();

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    auto pooled_owner = BagStreamDetector::Create(SmallDetector()).MoveValueUnsafe();
    BagStreamDetector& pooled = *pooled_owner;
    pooled.set_thread_pool(&pool);
    const std::vector<StepResult> results = pooled.Run(flat).ValueOrDie();
    ExpectIdenticalSteps(baseline, results,
                         "flat ingest, pool size " + std::to_string(threads));
  }
}

TEST(DeterminismTest, EngineArenaTuningNeverChangesResults) {
  // Shard arenas are pure memory plumbing: wildly different pool tunings
  // (including an effectively disabled pool) must not perturb a single
  // result bit for any shard count.
  std::map<std::string, BagSequence> streams;
  for (int s = 0; s < 4; ++s) {
    streams["stream-" + std::to_string(s)] =
        JumpStream(16, (s % 2 == 0) ? 8 : 0, 900 + s);
  }

  std::map<std::string, std::vector<StepResult>> baseline;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const bool tiny_pool : {false, true}) {
      StreamEngineOptions options;
      options.num_shards = shards;
      options.detector = EngineDetector();
      options.seed = 13;
      if (tiny_pool) {
        // Degenerate tuning: nothing in the hot path fits the pool, so every
        // release is dropped and acquisition falls back to plain allocation.
        options.arena.min_buffer_capacity = 2;
        options.arena.max_buffer_capacity = 2;
        options.arena.max_buffers_per_class = 1;
      }
      auto engine_owner = StreamEngine::Create(options).MoveValueUnsafe();
      StreamEngine& engine = *engine_owner;
      auto batch = SweepEngine(engine, streams);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      if (baseline.empty()) {
        baseline = *batch;
        continue;
      }
      ASSERT_EQ(batch->size(), baseline.size());
      for (const auto& [key, series] : baseline) {
        ExpectIdenticalSteps(series, batch->at(key),
                             key + " @ " + std::to_string(shards) +
                                 (tiny_pool ? " tiny pool" : " default pool"));
      }
    }
  }
}

TEST(DeterminismTest, EngineSubmissionOrderNeverChangesResults) {
  // Key-by-key and round-robin (time step first) submission must agree
  // result-for-result per stream.
  std::map<std::string, BagSequence> streams;
  streams["a"] = JumpStream(16, 8, 1);
  streams["b"] = JumpStream(16, 0, 2);

  StreamEngineOptions options;
  options.num_shards = 2;
  options.detector = EngineDetector();
  options.seed = 5;

  auto batch_engine_owner = StreamEngine::Create(options).MoveValueUnsafe();

  StreamEngine& batch_engine = *batch_engine_owner;
  auto batch = SweepEngine(batch_engine, streams).ValueOrDie();

  auto online_owner = StreamEngine::Create(options).MoveValueUnsafe();

  StreamEngine& online = *online_owner;
  for (const auto& [key, bags] : streams) {
    for (const Bag& bag : bags) {
      ASSERT_TRUE(online.Submit(key, bag).ok());
    }
  }
  online.Flush();
  std::map<std::string, std::vector<StepResult>> grouped;
  for (const EngineEvent& event : online.DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kStep) {
      grouped[event.stream_id].push_back(event.step);
    }
  }
  ASSERT_EQ(grouped.size(), batch.size());
  for (const auto& [key, series] : batch) {
    ExpectIdenticalSteps(series, grouped[key], "key by key vs round-robin: " + key);
  }
}

}  // namespace
}  // namespace bagcpd

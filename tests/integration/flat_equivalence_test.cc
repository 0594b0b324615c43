// Equivalence suite for the flat storage layer. Nested bags (Bag) are
// accepted at the facade — the detector and the engine — and flattened once
// there; every layer below takes BagView. Entering nested or flat must give
// bitwise-identical output, and so must the arena-pooled and shared-buffer
// paths against their plain counterparts: flat storage is a layout change,
// never a numeric change.

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/analysis/mds.h"
#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/emd/emd.h"
#include "bagcpd/runtime/stream_engine.h"
#include "bagcpd/signature/builder.h"
#include "bagcpd/signature/signature_set.h"

namespace bagcpd {
namespace {

Bag RandomBag(std::size_t n, std::size_t dim, Rng* rng) {
  Bag bag;
  bag.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Point x(dim);
    for (double& v : x) v = rng->Uniform(-5.0, 5.0);
    bag.push_back(std::move(x));
  }
  return bag;
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

void ExpectBitwiseEqual(const Signature& a, const Signature& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.dim(), b.dim()) << what;
  EXPECT_EQ(a.flat_centers(), b.flat_centers()) << what;
  EXPECT_EQ(a.weights(), b.weights()) << what;
}

void ExpectBitwiseEqual(const std::vector<StepResult>& a,
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
    EXPECT_TRUE((std::isnan(a[i].xi) && std::isnan(b[i].xi)) ||
                a[i].xi == b[i].xi)
        << what << " step " << i;
    EXPECT_EQ(a[i].alarm, b[i].alarm) << what << " step " << i;
  }
}

TEST(FlatEquivalenceTest, DetectorRunMatchesBitwise) {
  const BagSequence bags = JumpStream(24, 12, 99);
  const FlatBagSequence flat = FlattenSequence(bags).ValueOrDie();

  DetectorOptions options;
  options.tau = 4;
  options.tau_prime = 4;
  options.bootstrap.replicates = 60;
  options.signature.k = 4;
  options.seed = 2;

  auto nested_owner = BagStreamDetector::Create(options).MoveValueUnsafe();

  BagStreamDetector& nested = *nested_owner;
  const std::vector<StepResult> nested_results =
      nested.Run(bags).ValueOrDie();
  auto viewed_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& viewed = *viewed_owner;
  const std::vector<StepResult> flat_results = viewed.Run(flat).ValueOrDie();
  ExpectBitwiseEqual(nested_results, flat_results, "detector");
}

TEST(FlatEquivalenceTest, ArenaPooledBuildMatchesMallocBuildBitwise) {
  // The pooled path is a storage change, never a numeric change: every
  // quantizer must produce the identical packed signature whether its
  // buffers come from malloc or recycle through an arena — including on
  // reuse, when the arena hands back a previously-used buffer.
  Rng rng(321);
  BufferArena arena;
  for (SignatureMethod method :
       {SignatureMethod::kKMeans, SignatureMethod::kKMedoids,
        SignatureMethod::kLvq, SignatureMethod::kHistogram,
        SignatureMethod::kCentroid}) {
    SignatureBuilderOptions options;
    options.method = method;
    options.k = 5;
    options.bin_width = 2.0;
    options.seed = 77;
    SignatureBuilder builder(options);
    for (int round = 0; round < 3; ++round) {
      const Bag bag = RandomBag(60, 3, &rng);
      const FlatBag flat = FlatBag::FromBag(bag).ValueOrDie();
      const Signature malloced =
          builder.Build(flat.view(), round).ValueOrDie();
      const Signature pooled =
          builder.Build(flat.view(), round, &arena).ValueOrDie();
      ExpectBitwiseEqual(malloced, pooled,
                         std::string(SignatureMethodName(method)) + " round " +
                             std::to_string(round));
    }
  }
  // The rounds actually exercised reuse, not just fresh allocations.
  EXPECT_GT(arena.stats().pool_hits, 0u);
}

TEST(FlatEquivalenceTest, DetectorWithArenaMatchesBitwise) {
  const BagSequence bags = JumpStream(24, 12, 44);
  DetectorOptions options;
  options.tau = 4;
  options.tau_prime = 4;
  options.bootstrap.replicates = 60;
  options.signature.k = 4;
  options.seed = 8;

  auto plain_owner = BagStreamDetector::Create(options).MoveValueUnsafe();

  BagStreamDetector& plain = *plain_owner;
  const std::vector<StepResult> baseline = plain.Run(bags).ValueOrDie();

  BufferArena arena;
  auto pooled_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& pooled = *pooled_owner;
  pooled.set_buffer_arena(&arena);
  const std::vector<StepResult> with_arena = pooled.Run(bags).ValueOrDie();
  ExpectBitwiseEqual(baseline, with_arena, "detector with arena");
  EXPECT_GT(arena.stats().pool_hits, 0u);
}

TEST(FlatEquivalenceTest, SignatureSetMdsMatchesMatrixMdsBitwise) {
  // Fig. 6-style batch analysis: EmdMds over the stream's shared-buffer
  // SignatureSet must equal classical MDS of its pairwise EMD matrix.
  const BagSequence bags = JumpStream(12, 6, 2024);
  SignatureBuilderOptions options;
  options.k = 4;
  options.seed = 19;
  SignatureBuilder builder(options);
  SignatureSet set;
  for (std::size_t t = 0; t < bags.size(); ++t) {
    const FlatBag flat = FlatBag::FromBag(bags[t]).ValueOrDie();
    ASSERT_TRUE(set.Append(builder.Build(flat, t).ValueOrDie()).ok());
  }
  const Matrix m_set = PairwiseEmdMatrix(set).ValueOrDie();
  const MdsEmbedding direct = ClassicalMds(m_set, 2).ValueOrDie();
  const MdsEmbedding from_set = EmdMds(set, 2).ValueOrDie();
  ASSERT_EQ(direct.coordinates.rows(), from_set.coordinates.rows());
  for (std::size_t i = 0; i < direct.coordinates.rows(); ++i) {
    for (std::size_t j = 0; j < direct.coordinates.cols(); ++j) {
      EXPECT_EQ(direct.coordinates(i, j), from_set.coordinates(i, j));
    }
  }
}

TEST(FlatEquivalenceTest, EngineMatchesBitwiseForAnyShardCountAndIngestForm) {
  std::map<std::string, BagSequence> streams;
  for (int s = 0; s < 4; ++s) {
    streams["stream-" + std::to_string(s)] =
        JumpStream(18, (s % 2 == 0) ? 9 : 0, 500 + s);
  }

  StreamEngineOptions base;
  base.detector.tau = 4;
  base.detector.tau_prime = 4;
  base.detector.bootstrap.replicates = 40;
  base.detector.signature.k = 4;
  base.seed = 31;

  std::map<std::string, std::vector<StepResult>> baseline;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const bool flat_ingest : {false, true}) {
      StreamEngineOptions options = base;
      options.num_shards = shards;
      auto engine_owner = StreamEngine::Create(options).MoveValueUnsafe();
      StreamEngine& engine = *engine_owner;
      for (const auto& [key, bags] : streams) {
        for (const Bag& bag : bags) {
          if (flat_ingest) {
            ASSERT_TRUE(
                engine.Submit(key, FlatBag::FromBag(bag).ValueOrDie()).ok());
          } else {
            ASSERT_TRUE(engine.Submit(key, bag).ok());
          }
        }
      }
      engine.Flush();
      std::map<std::string, std::vector<StepResult>> grouped;
      for (const EngineEvent& event : engine.DrainEvents()) {
        if (event.kind == EngineEvent::Kind::kStep) {
          grouped[event.stream_id].push_back(event.step);
        }
      }
      if (baseline.empty()) {
        baseline = std::move(grouped);
        continue;
      }
      ASSERT_EQ(grouped.size(), baseline.size());
      for (const auto& [key, series] : baseline) {
        ExpectBitwiseEqual(series, grouped[key],
                           key + (flat_ingest ? " flat" : " nested") + " @ " +
                               std::to_string(shards) + " shards");
      }
    }
  }
}

}  // namespace
}  // namespace bagcpd

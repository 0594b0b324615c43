#include "bagcpd/core/detector.h"

#include <cmath>

#include <gtest/gtest.h>

#include "bagcpd/data/ci_datasets.h"
#include "bagcpd/data/gmm.h"

namespace bagcpd {
namespace {

DetectorOptions FastOptions() {
  DetectorOptions options;
  options.tau = 5;
  options.tau_prime = 5;
  options.bootstrap.replicates = 120;
  options.bootstrap.alpha = 0.05;
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 6;
  options.seed = 1;
  return options;
}

TEST(DetectorTest, RejectsBadOptions) {
  DetectorOptions options = FastOptions();
  options.tau = 1;
  EXPECT_FALSE(BagStreamDetector::Create(options).ok());
}

TEST(DetectorTest, WarmupReturnsNullopt) {
  DetectorOptions options = FastOptions();
  auto detector_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& detector = *detector_owner;
  Rng rng(7);
  const GaussianMixture mix = GaussianMixture::Isotropic({0.0, 0.0}, 1.0);
  for (std::size_t i = 0; i + 1 < options.tau + options.tau_prime; ++i) {
    Result<std::optional<StepResult>> r = detector.Push(mix.SampleBag(30, &rng));
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.ValueOrDie().has_value());
  }
  // The push completing the window yields the first result.
  Result<std::optional<StepResult>> r = detector.Push(mix.SampleBag(30, &rng));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.ValueOrDie().has_value());
  EXPECT_EQ(r.ValueOrDie()->time, options.tau);
}

TEST(DetectorTest, RunProducesOneResultPerFullWindow) {
  DetectorOptions options = FastOptions();
  options.bootstrap.replicates = 0;  // Scores only, fast.
  auto detector_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& detector = *detector_owner;
  Rng rng(8);
  const GaussianMixture mix = GaussianMixture::Isotropic({0.0, 0.0}, 1.0);
  BagSequence bags;
  for (int t = 0; t < 20; ++t) bags.push_back(mix.SampleBag(25, &rng));
  Result<std::vector<StepResult>> results = detector.Run(bags);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 20u - (options.tau + options.tau_prime) + 1);
  EXPECT_EQ(results->front().time, options.tau);
  EXPECT_EQ(results->back().time, 20u - options.tau_prime);
  // Without bootstrap no alarms are possible.
  EXPECT_TRUE(AlarmTimes(*results).empty());
  for (const StepResult& r : *results) {
    EXPECT_TRUE(std::isfinite(r.score));
    EXPECT_TRUE(std::isnan(r.ci_lo));
  }
}

TEST(DetectorTest, DetectsMeanJumpOnCiDataset4) {
  CiDatasetOptions data_options;
  data_options.seed = 42;
  LabeledBagSequence ds = MakeCiDataset(4, data_options).ValueOrDie();
  DetectorOptions options = FastOptions();
  options.seed = 5;
  auto detector_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& detector = *detector_owner;
  Result<std::vector<StepResult>> results = detector.Run(ds.bags);
  ASSERT_TRUE(results.ok());
  std::vector<std::uint64_t> alarms = AlarmTimes(*results);
  ASSERT_FALSE(alarms.empty());
  // The jump is at t = 10 (0-based); alarms must be near it.
  for (std::uint64_t a : alarms) {
    EXPECT_GE(a, 9u);
    EXPECT_LE(a, 13u);
  }
}

TEST(DetectorTest, StationaryDatasetsRaiseNoAlarms) {
  for (int index : {1, 2, 3}) {
    CiDatasetOptions data_options;
    data_options.seed = 43 + static_cast<std::uint64_t>(index);
    LabeledBagSequence ds = MakeCiDataset(index, data_options).ValueOrDie();
    DetectorOptions options = FastOptions();
    options.seed = 6;
    auto detector_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
    BagStreamDetector& detector = *detector_owner;
    Result<std::vector<StepResult>> results = detector.Run(ds.bags);
    ASSERT_TRUE(results.ok()) << "dataset " << index;
    EXPECT_TRUE(AlarmTimes(*results).empty())
        << "dataset " << index << " raised a false alarm";
  }
}

TEST(DetectorTest, ScoreRisesAtChangePoint) {
  CiDatasetOptions data_options;
  data_options.seed = 44;
  LabeledBagSequence ds = MakeCiDataset(4, data_options).ValueOrDie();
  DetectorOptions options = FastOptions();
  options.bootstrap.replicates = 0;
  auto detector_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& detector = *detector_owner;
  std::vector<StepResult> results = detector.Run(ds.bags).ValueOrDie();
  double at_change = 0.0;
  double elsewhere = 0.0;
  int n_elsewhere = 0;
  for (const StepResult& r : results) {
    if (r.time == 10) {
      at_change = r.score;
    } else if (r.time < 8 || r.time > 13) {
      elsewhere += r.score;
      ++n_elsewhere;
    }
  }
  ASSERT_GT(n_elsewhere, 0);
  EXPECT_GT(at_change, elsewhere / n_elsewhere);
}

TEST(DetectorTest, DeterministicForSeed) {
  CiDatasetOptions data_options;
  data_options.seed = 45;
  LabeledBagSequence ds = MakeCiDataset(4, data_options).ValueOrDie();
  DetectorOptions options = FastOptions();
  auto d1_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& d1 = *d1_owner;
  auto d2_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& d2 = *d2_owner;
  std::vector<StepResult> r1 = d1.Run(ds.bags).ValueOrDie();
  std::vector<StepResult> r2 = d2.Run(ds.bags).ValueOrDie();
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1[i].score, r2[i].score);
    EXPECT_DOUBLE_EQ(r1[i].ci_lo, r2[i].ci_lo);
    EXPECT_EQ(r1[i].alarm, r2[i].alarm);
  }
}

TEST(DetectorTest, RunAfterRunMatchesAFreshDetector) {
  // Run() starts with Reset(), which restarts the bootstrap stream from the
  // seed too, so a reused detector reproduces a fresh one's CIs bit for bit.
  CiDatasetOptions data_options;
  data_options.seed = 47;
  LabeledBagSequence ds = MakeCiDataset(4, data_options).ValueOrDie();
  DetectorOptions options = FastOptions();
  auto reused = BagStreamDetector::Create(options).MoveValueUnsafe();
  ASSERT_TRUE(reused->Run(ds.bags).ok());
  const std::vector<StepResult> again = reused->Run(ds.bags).ValueOrDie();
  const std::vector<StepResult> fresh = BagStreamDetector::Create(options)
                                            .MoveValueUnsafe()
                                            ->Run(ds.bags)
                                            .ValueOrDie();
  ASSERT_EQ(again.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(again[i].score, fresh[i].score);
    EXPECT_EQ(again[i].ci_lo, fresh[i].ci_lo);
    EXPECT_EQ(again[i].ci_up, fresh[i].ci_up);
    EXPECT_EQ(again[i].alarm, fresh[i].alarm);
  }
}

TEST(DetectorTest, LrScoreTypeRuns) {
  CiDatasetOptions data_options;
  data_options.seed = 46;
  LabeledBagSequence ds = MakeCiDataset(4, data_options).ValueOrDie();
  DetectorOptions options = FastOptions();
  options.score_type = ScoreType::kLogLikelihoodRatio;
  auto detector_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& detector = *detector_owner;
  Result<std::vector<StepResult>> results = detector.Run(ds.bags);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->empty());
}

TEST(DetectorTest, DiscountedWeightsRun) {
  CiDatasetOptions data_options;
  data_options.seed = 47;
  LabeledBagSequence ds = MakeCiDataset(4, data_options).ValueOrDie();
  DetectorOptions options = FastOptions();
  options.weight_scheme = WeightScheme::kDiscounted;
  auto detector_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& detector = *detector_owner;
  Result<std::vector<StepResult>> results = detector.Run(ds.bags);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->empty());
}

TEST(DetectorTest, EachWindowPairSolvedExactlyOnce) {
  DetectorOptions options = FastOptions();
  options.bootstrap.replicates = 50;
  auto detector_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& detector = *detector_owner;
  Rng rng(9);
  const GaussianMixture mix = GaussianMixture::Isotropic({0.0}, 1.0);
  for (int t = 0; t < 15; ++t) {
    ASSERT_TRUE(detector.Push(mix.SampleBag(20, &rng)).ok());
  }
  // Each step after warm-up adds (tau + tau' - 1) = 9 fresh EMDs; the first
  // full window costs C(10, 2) = 45. 15 pushes => 6 scored steps:
  // 45 + 5 * 9 = 90 transportation solves, never more: the rolling log table
  // keeps every overlapping pair's log-distance.
  EXPECT_EQ(detector.emd_solve_count(), 90u);
}

TEST(DetectorTest, AlarmRequiresHistory) {
  // xi_t is undefined (NaN) for the first tau' scored steps.
  DetectorOptions options = FastOptions();
  options.bootstrap.replicates = 60;
  auto detector_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& detector = *detector_owner;
  Rng rng(10);
  const GaussianMixture mix = GaussianMixture::Isotropic({0.0}, 1.0);
  BagSequence bags;
  for (int t = 0; t < 16; ++t) bags.push_back(mix.SampleBag(20, &rng));
  std::vector<StepResult> results = detector.Run(bags).ValueOrDie();
  ASSERT_GE(results.size(), options.tau_prime + 1);
  for (std::size_t i = 0; i < options.tau_prime; ++i) {
    EXPECT_TRUE(std::isnan(results[i].xi));
    EXPECT_FALSE(results[i].alarm);
  }
  EXPECT_FALSE(std::isnan(results[options.tau_prime].xi));
}

TEST(DetectorTest, NormalizedSignaturesAlsoDetect) {
  // normalize = true switches every EMD to balanced transport (and, for 1-d
  // bags, onto the exact sweep fast path); detection must be unaffected.
  CiDatasetOptions data_options;
  data_options.seed = 48;
  LabeledBagSequence ds = MakeCiDataset(4, data_options).ValueOrDie();
  DetectorOptions options = FastOptions();
  options.signature.normalize = true;
  options.seed = 7;
  auto detector_owner = BagStreamDetector::Create(options).MoveValueUnsafe();
  BagStreamDetector& detector = *detector_owner;
  std::vector<StepResult> results = detector.Run(ds.bags).ValueOrDie();
  std::vector<std::uint64_t> alarms = AlarmTimes(results);
  ASSERT_FALSE(alarms.empty());
  for (std::uint64_t a : alarms) {
    EXPECT_GE(a, 9u);
    EXPECT_LE(a, 13u);
  }
}

TEST(DetectorTest, PushRejectsRaggedBag) {
  auto detector_owner = BagStreamDetector::Create(FastOptions()).MoveValueUnsafe();
  BagStreamDetector& detector = *detector_owner;
  EXPECT_FALSE(detector.Push({{1.0, 2.0}, {3.0}}).ok());
}

TEST(DetectorTest, PushRejectsHistogramIndexOutsideInt64) {
  DetectorOptions options = FastOptions();
  options.signature.method = SignatureMethod::kHistogram;
  options.signature.bin_width = 1.0;
  auto detector = BagStreamDetector::Create(options).MoveValueUnsafe();
  ASSERT_TRUE(detector->Push({{0.25}, {0.5}}).ok());
  const Result<std::optional<StepResult>> pushed =
      detector->Push({{1e300}, {0.5}});
  ASSERT_FALSE(pushed.ok());
  EXPECT_EQ(pushed.status().code(), StatusCode::kInvalidArgument);
  // The failed push consumed nothing.
  EXPECT_EQ(detector->pushed_count(), 1u);
}

TEST(DetectorTest, OverflowingEmdFailsEveryLaterPush) {
  // Single-centroid signatures of two-point bags at -0.8e308 and +0.8e308:
  // the Manhattan distance between them is finite, but moving both units of
  // mass overflows. The push that fills the window solves that pair and
  // fails, and so does every push after it until Reset().
  DetectorOptions options = FastOptions();
  options.tau = 2;
  options.tau_prime = 2;
  options.signature.method = SignatureMethod::kCentroid;
  options.ground = GroundDistance::kManhattan;
  auto detector = BagStreamDetector::Create(options).MoveValueUnsafe();
  const Bag near = {{0.0, 0.0}, {1.0, 0.0}};
  ASSERT_TRUE(detector->Push(Bag{{-0.8e308, 0.0}, {-0.8e308, 0.0}}).ok());
  ASSERT_TRUE(detector->Push(near).ok());
  ASSERT_TRUE(detector->Push(near).ok());
  const Result<std::optional<StepResult>> pushed =
      detector->Push(Bag{{0.8e308, 0.0}, {0.8e308, 0.0}});
  ASSERT_FALSE(pushed.ok());
  EXPECT_EQ(pushed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(pushed.status().message().find("overflowed"), std::string::npos)
      << pushed.status();
  EXPECT_EQ(detector->Push(near).status(), pushed.status());
  detector->Reset();
  EXPECT_TRUE(detector->Push(near).ok());
}

TEST(DetectorTest, WeightSchemeNames) {
  EXPECT_STREQ(WeightSchemeName(WeightScheme::kUniform), "uniform");
  EXPECT_STREQ(WeightSchemeName(WeightScheme::kDiscounted), "discounted");
}

}  // namespace
}  // namespace bagcpd

#include "bagcpd/info/estimators.h"

#include <cmath>

#include <gtest/gtest.h>

#include "bagcpd/emd/emd.h"

namespace bagcpd {
namespace {

Signature PointMass(double x) {
  return Signature::FromCenters({{x}}, {1.0});
}

WeightedSignatureSet UniformSet(std::vector<double> positions) {
  SignatureSet sigs;
  for (double x : positions) EXPECT_TRUE(sigs.Append(PointMass(x)).ok());
  return WeightedSignatureSet::Uniform(std::move(sigs));
}

TEST(WeightedSetTest, UniformConstruction) {
  WeightedSignatureSet set = UniformSet({0.0, 1.0, 2.0, 3.0});
  EXPECT_TRUE(set.Validate().ok());
  EXPECT_DOUBLE_EQ(set.weights[0], 0.25);
}

TEST(WeightedSetTest, ValidateRejectsBadWeights) {
  WeightedSignatureSet set = UniformSet({0.0, 1.0});
  set.weights = {0.7, 0.7};
  EXPECT_FALSE(set.Validate().ok());
  set.weights = {-0.5, 1.5};
  EXPECT_FALSE(set.Validate().ok());
  set.weights = {0.5};
  EXPECT_FALSE(set.Validate().ok());
}

TEST(WeightedSetTest, DiscountWeightsShape) {
  // toward_end = true: newest (closest to t) last => weights increase.
  std::vector<double> ref = DiscountWeights(4, true);
  EXPECT_LT(ref[0], ref[3]);
  // toward_end = false: newest first => weights decrease.
  std::vector<double> test = DiscountWeights(4, false);
  EXPECT_GT(test[0], test[3]);
  double total = 0.0;
  for (double w : ref) total += w;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Hyperbolic profile: 1, 1/2, 1/3, 1/4 normalized.
  const double z = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
  EXPECT_NEAR(test[0], 1.0 / z, 1e-12);
  EXPECT_NEAR(test[2], (1.0 / 3.0) / z, 1e-12);
}

TEST(EstimatorsTest, InformationContentHandValue) {
  // S at x=0; S' = {x=1 (gamma 0.5), x=e (gamma 0.5)}.
  // I = 0.5 log(1) + 0.5 log(e) = 0.5.
  Signature s = PointMass(0.0);
  WeightedSignatureSet sp = UniformSet({1.0, std::exp(1.0)});
  Result<double> info = InformationContent(s, sp);
  ASSERT_TRUE(info.ok());
  EXPECT_NEAR(info.ValueOrDie(), 0.5, 1e-9);
}

TEST(EstimatorsTest, InformationContentScalesWithD) {
  Signature s = PointMass(0.0);
  WeightedSignatureSet sp = UniformSet({std::exp(1.0), std::exp(1.0)});
  InfoEstimatorOptions options;
  options.c = 2.0;
  options.d = 3.0;
  Result<double> info =
      InformationContent(s, sp, GroundDistance::kEuclidean, options);
  ASSERT_TRUE(info.ok());
  EXPECT_NEAR(info.ValueOrDie(), 2.0 + 3.0 * 1.0, 1e-9);
}

TEST(EstimatorsTest, AutoEntropyHandValue) {
  // Three point masses at 0, 1, 3 with uniform weights 1/3.
  // H = sum_i (gamma_i / (1 - gamma_i)) sum_{j != i} gamma_j log d_ij
  //   = (1/3)/(2/3) * (1/3) * [sum over ordered pairs of log d_ij]
  // Ordered pairs: (0,1):0, (0,3):log3, (1,0):0, (1,3):log2, (3,0):log3,
  // (3,1):log2 => total = 2 log 3 + 2 log 2.
  WeightedSignatureSet set = UniformSet({0.0, 1.0, 3.0});
  Result<double> h = AutoEntropy(set);
  ASSERT_TRUE(h.ok());
  const double expected = 0.5 * (1.0 / 3.0) * (2.0 * std::log(3.0) +
                                               2.0 * std::log(2.0));
  EXPECT_NEAR(h.ValueOrDie(), expected, 1e-9);
}

TEST(EstimatorsTest, AutoEntropyNeedsTwoElements) {
  WeightedSignatureSet set = UniformSet({0.0});
  EXPECT_FALSE(AutoEntropy(set).ok());
}

TEST(EstimatorsTest, CrossEntropyHandValue) {
  // S = {0} (gamma 1 is disallowed by auto-entropy but fine for cross):
  // use S = {0, 0.0} ... simpler: S = {0, 4} uniform; S' = {1, 2} uniform.
  // H(S,S') = 1/4 [log1 + log2 + log3 + log2] = 1/4 log 12.
  WeightedSignatureSet s = UniformSet({0.0, 4.0});
  WeightedSignatureSet sp = UniformSet({1.0, 2.0});
  Result<double> h = CrossEntropy(s, sp);
  ASSERT_TRUE(h.ok());
  EXPECT_NEAR(h.ValueOrDie(), 0.25 * std::log(12.0), 1e-9);
}

TEST(EstimatorsTest, CrossEntropyIsSymmetric) {
  WeightedSignatureSet s = UniformSet({0.0, 1.5, 4.0});
  WeightedSignatureSet sp = UniformSet({2.0, 3.0});
  EXPECT_NEAR(CrossEntropy(s, sp).ValueOrDie(),
              CrossEntropy(sp, s).ValueOrDie(), 1e-10);
}

TEST(EstimatorsTest, SymmetrizedKlDiscriminates) {
  // Two similar sets vs two different sets: KL should be larger across the
  // genuinely different pair.
  WeightedSignatureSet near_a = UniformSet({0.0, 0.5, 1.0});
  WeightedSignatureSet near_b = UniformSet({0.1, 0.6, 1.1});
  WeightedSignatureSet far = UniformSet({10.0, 10.5, 11.0});
  const double kl_near = SymmetrizedKl(near_a, near_b).ValueOrDie();
  const double kl_far = SymmetrizedKl(near_a, far).ValueOrDie();
  EXPECT_GT(kl_far, kl_near);
}

TEST(EstimatorsTest, LogDistancesAppliesFloor) {
  Matrix d(2, 2, 0.0);
  d(0, 1) = 1.0;
  d(1, 0) = 1.0;
  Matrix logd = LogDistances(d, 1e-6);
  EXPECT_NEAR(logd(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(logd(0, 0), std::log(1e-6), 1e-9);
}

TEST(EstimatorsTest, MatrixLevelPrimitivesMatchConveniences) {
  WeightedSignatureSet s = UniformSet({0.0, 2.0, 5.0});
  WeightedSignatureSet sp = UniformSet({1.0, 3.0});
  // Matrix-level.
  Matrix cross(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      cross(i, j) = ComputeEmd(s.signatures[i], sp.signatures[j]).ValueOrDie();
    }
  }
  const double h_matrix =
      CrossEntropyFromLog(LogDistances(cross), s.weights, sp.weights);
  const double h_direct = CrossEntropy(s, sp).ValueOrDie();
  EXPECT_NEAR(h_matrix, h_direct, 1e-10);
}

TEST(EstimatorsTest, UniformKeepsInvalidMembersForRecoverableValidate) {
  // Uniform must not abort on invalid member signatures (stored through
  // SignatureSet::AppendUnchecked): the estimators report them through
  // Status, as they always have. Mixed dimensions never get this far —
  // SignatureSet's append rejects them (signature_set_test).
  SignatureSet sigs;
  ASSERT_TRUE(sigs.AppendUnchecked(PointMass(0.0)).ok());
  ASSERT_TRUE(  // Zero weight.
      sigs.AppendUnchecked(Signature::FromFlat({1.0}, 1, {0.0})).ok());
  WeightedSignatureSet set = WeightedSignatureSet::Uniform(std::move(sigs));
  EXPECT_FALSE(set.Validate().ok());
  EXPECT_FALSE(AutoEntropy(set).ok());
}

TEST(EstimatorsTest, InformationContentIsSingletonCrossEntropy) {
  // I(S; S') equals H(S'', S') with S'' the singleton weighted set {(S, 1)}
  // — a consistency identity between the two estimators.
  Signature s = PointMass(0.7);
  WeightedSignatureSet sp = UniformSet({1.5, 3.0, 6.0});
  WeightedSignatureSet singleton;
  ASSERT_TRUE(singleton.signatures.Append(s).ok());
  singleton.weights = {1.0};
  const double info = InformationContent(s, sp).ValueOrDie();
  const double cross = CrossEntropy(singleton, sp).ValueOrDie();
  EXPECT_NEAR(info, cross, 1e-10);
}

// I(S; S') from the log-distance column that CrossDistanceMatrix solves for
// S' against the singleton {S}: the transportation solve for every pair.
double InformationContentViaCrossDistances(const Signature& s,
                                           const WeightedSignatureSet& sp) {
  SignatureSet single;
  EXPECT_TRUE(single.Append(s).ok());
  const Matrix logs =
      LogDistances(CrossDistanceMatrix(sp.signatures, single).ValueOrDie());
  std::vector<double> column(sp.size());
  for (std::size_t j = 0; j < sp.size(); ++j) column[j] = logs(j, 0);
  return InformationContentFromLog(column, sp.weights);
}

TEST(EstimatorsTest, InformationContentIsBitwiseTheTransportSolve) {
  // The hex goldens are what a per-pair transportation solve gives. 1-d,
  // unit-mass signatures: ComputeEmd runs the same transportation solve on
  // them, so a value routed through it agrees bitwise.
  const Signature s = Signature::FromCenters({{0.5}, {-1.8}, {1.4}},
                                             {2.0 / 6, 3.0 / 6, 1.0 / 6});
  SignatureSet sp1d;
  ASSERT_TRUE(sp1d.Append(Signature::FromCenters({{-1.7}, {-0.5}},
                                                 {4.0 / 5, 1.0 / 5}))
                  .ok());
  ASSERT_TRUE(sp1d.Append(Signature::FromCenters({{-1.6}, {1.8}, {2.2}},
                                                 {1.0 / 7, 2.0 / 7, 4.0 / 7}))
                  .ok());
  ASSERT_TRUE(sp1d.Append(Signature::FromCenters(
                              {{1.9}, {2.4}, {-1.3}, {-1.2}},
                              {2.0 / 11, 2.0 / 11, 4.0 / 11, 3.0 / 11}))
                  .ok());
  const WeightedSignatureSet w1d = WeightedSignatureSet::Uniform(sp1d);
  const double info1d = InformationContent(s, w1d).ValueOrDie();
  EXPECT_EQ(info1d, 0x1.e9267d3059e88p-3);
  EXPECT_EQ(info1d, InformationContentViaCrossDistances(s, w1d));
  std::vector<double> pair_logs;
  for (std::size_t j = 0; j < w1d.size(); ++j) {
    pair_logs.push_back(
        std::log(ComputeEmd(w1d.signatures.view(j), s).ValueOrDie()));
  }
  EXPECT_EQ(info1d, InformationContentFromLog(pair_logs, w1d.weights));

  // 2-d, every ground distance through the same batch.
  const Signature s2 = Signature::FromCenters(
      {{0.1, 1.0}, {0.7, -0.3}, {1.9, 0.4}}, {0.2, 0.5, 0.3});
  SignatureSet sp2d;
  ASSERT_TRUE(sp2d.Append(Signature::FromCenters({{0.3, 0.2}, {1.1, -1.0}},
                                                 {0.6, 0.4}))
                  .ok());
  ASSERT_TRUE(
      sp2d.Append(Signature::FromCenters(
                      {{-0.4, 0.5}, {0.9, 0.9}, {2.3, -0.2}, {3.1, 1.4}},
                      {0.1, 0.3, 0.4, 0.2}))
          .ok());
  ASSERT_TRUE(sp2d.Append(Signature::FromCenters(
                              {{1.7, 0.0}, {0.2, 0.6}, {0.8, -0.8}},
                              {0.3, 0.3, 0.4}))
                  .ok());
  const WeightedSignatureSet w2d = WeightedSignatureSet::Uniform(sp2d);
  const double info2d = InformationContent(s2, w2d).ValueOrDie();
  EXPECT_EQ(info2d, -0x1.25fc71c216fe2p-3);
  EXPECT_EQ(info2d, InformationContentViaCrossDistances(s2, w2d));
  EXPECT_EQ(InformationContent(s2, w2d, GroundDistance::kManhattan)
                .ValueOrDie(),
            0x1.4ab32838ad4a6p-4);
  EXPECT_EQ(InformationContent(s2, w2d, GroundDistance::kSquaredEuclidean)
                .ValueOrDie(),
            -0x1.5d69eaecefaf2p-3);
}

TEST(EstimatorsTest, EstimatorsAreWeightLinear) {
  // Cross-entropy is bilinear in the weight vectors: doubling one element's
  // weight (and renormalizing) interpolates the per-row contributions.
  WeightedSignatureSet s = UniformSet({0.0, 4.0});
  WeightedSignatureSet sp = UniformSet({1.0, 2.0});
  const double base = CrossEntropy(s, sp).ValueOrDie();
  WeightedSignatureSet skewed = s;
  skewed.weights = {1.0, 0.0};
  const double row0 = CrossEntropy(skewed, sp).ValueOrDie();
  skewed.weights = {0.0, 1.0};
  const double row1 = CrossEntropy(skewed, sp).ValueOrDie();
  EXPECT_NEAR(base, 0.5 * row0 + 0.5 * row1, 1e-10);
}

TEST(EstimatorsTest, AutoEntropySkipsDegenerateGamma) {
  // gamma = (1, 0): the i = 0 term has denominator 0 and must be skipped
  // without producing inf/nan.
  Matrix logd(2, 2, 0.0);
  logd(0, 1) = 1.0;
  logd(1, 0) = 1.0;
  const double h = AutoEntropyFromLog(logd, {1.0, 0.0});
  EXPECT_TRUE(std::isfinite(h));
}

}  // namespace
}  // namespace bagcpd

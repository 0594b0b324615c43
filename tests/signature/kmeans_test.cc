#include "bagcpd/signature/kmeans.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/rng.h"

namespace bagcpd {
namespace {

FlatBag Flat(const Bag& bag) { return FlatBag::FromBag(bag).ValueOrDie(); }

// Three tight, well-separated clusters around (0,0), (10,0), (0,10).
FlatBag MakeThreeClusters(std::size_t per_cluster, std::uint64_t seed) {
  Rng rng(seed);
  Bag bag;
  const std::vector<Point> centers = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (const Point& c : centers) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      bag.push_back(rng.MultivariateGaussianIso(c, 0.3));
    }
  }
  return Flat(bag);
}

TEST(KMeansTest, RecoversSeparatedClusters) {
  const FlatBag bag = MakeThreeClusters(40, 1);
  KMeansOptions options;
  options.k = 3;
  options.seed = 42;
  Result<KMeansResult> res = KMeansQuantize(bag, options);
  ASSERT_TRUE(res.ok());
  const Signature& sig = res->signature;
  ASSERT_EQ(sig.size(), 3u);
  // Each recovered center lies close to one true center.
  const std::vector<Point> truth = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (const Point& t : truth) {
    double best = 1e9;
    for (const PointView c : sig.centers()) {
      best = std::min(best, EuclideanDistance(t, c));
    }
    EXPECT_LT(best, 0.5);
  }
  // Balanced weights.
  for (double w : sig.weights()) EXPECT_NEAR(w, 40.0, 2.0);
}

TEST(KMeansTest, WeightsSumToBagSize) {
  const FlatBag bag = MakeThreeClusters(30, 2);
  KMeansOptions options;
  options.k = 5;
  Result<KMeansResult> res = KMeansQuantize(bag, options);
  ASSERT_TRUE(res.ok());
  EXPECT_DOUBLE_EQ(res->signature.TotalWeight(), 90.0);
}

TEST(KMeansTest, AssignmentsMatchWeights) {
  const FlatBag bag = MakeThreeClusters(20, 3);
  KMeansOptions options;
  options.k = 3;
  Result<KMeansResult> res = KMeansQuantize(bag, options);
  ASSERT_TRUE(res.ok());
  std::vector<double> counted(res->signature.size(), 0.0);
  for (std::size_t a : res->assignment) {
    ASSERT_LT(a, counted.size());
    counted[a] += 1.0;
  }
  for (std::size_t c = 0; c < counted.size(); ++c) {
    EXPECT_DOUBLE_EQ(counted[c], res->signature.weight(c));
  }
}

TEST(KMeansTest, KClampedToBagSize) {
  const FlatBag bag = Flat({{0.0}, {1.0}, {2.0}});
  KMeansOptions options;
  options.k = 10;
  Result<KMeansResult> res = KMeansQuantize(bag, options);
  ASSERT_TRUE(res.ok());
  EXPECT_LE(res->signature.size(), 3u);
  EXPECT_DOUBLE_EQ(res->signature.TotalWeight(), 3.0);
}

TEST(KMeansTest, DeterministicForSeed) {
  const FlatBag bag = MakeThreeClusters(25, 4);
  KMeansOptions options;
  options.k = 4;
  options.seed = 99;
  Result<KMeansResult> a = KMeansQuantize(bag, options);
  Result<KMeansResult> b = KMeansQuantize(bag, options);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->signature.size(), b->signature.size());
  EXPECT_EQ(a->signature.flat_centers(), b->signature.flat_centers());
  for (std::size_t c = 0; c < a->signature.size(); ++c) {
    EXPECT_EQ(a->signature.weight(c), b->signature.weight(c));
  }
}

TEST(KMeansTest, DuplicatePointsHandled) {
  const FlatBag bag = Flat(Bag(10, Point{1.0, 1.0}));  // All identical.
  KMeansOptions options;
  options.k = 3;
  Result<KMeansResult> res = KMeansQuantize(bag, options);
  ASSERT_TRUE(res.ok());
  EXPECT_DOUBLE_EQ(res->signature.TotalWeight(), 10.0);
  EXPECT_NEAR(res->inertia, 0.0, 1e-12);
}

TEST(KMeansTest, RejectsEmptyBag) {
  EXPECT_FALSE(KMeansQuantize(BagView(), KMeansOptions{}).ok());
}

TEST(KMeansTest, RejectsZeroK) {
  KMeansOptions options;
  options.k = 0;
  EXPECT_FALSE(KMeansQuantize(Flat({{1.0}}), options).ok());
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  const FlatBag bag = MakeThreeClusters(30, 5);
  double prev = 1e18;
  for (std::size_t k : {1u, 2u, 3u, 6u}) {
    KMeansOptions options;
    options.k = k;
    options.seed = 7;
    Result<KMeansResult> res = KMeansQuantize(bag, options);
    ASSERT_TRUE(res.ok());
    EXPECT_LE(res->inertia, prev + 1e-9);
    prev = res->inertia;
  }
}

// Property sweep: every k produces a structurally valid signature whose
// weights add up to the bag size.
class KMeansParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KMeansParamTest, ProducesValidSignature) {
  const FlatBag bag = MakeThreeClusters(15, 6);
  KMeansOptions options;
  options.k = GetParam();
  options.seed = 11;
  Result<KMeansResult> res = KMeansQuantize(bag, options);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->signature.Validate().ok());
  EXPECT_DOUBLE_EQ(res->signature.TotalWeight(), 45.0);
  EXPECT_LE(res->signature.size(), options.k);
}

INSTANTIATE_TEST_SUITE_P(KSweep, KMeansParamTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 45));

}  // namespace
}  // namespace bagcpd

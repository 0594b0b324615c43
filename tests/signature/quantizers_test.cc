#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/signature/builder.h"
#include "bagcpd/signature/histogram.h"
#include "bagcpd/signature/kmedoids.h"
#include "bagcpd/signature/lvq.h"

namespace bagcpd {
namespace {

FlatBag Flat(const Bag& bag) { return FlatBag::FromBag(bag).ValueOrDie(); }

Bag MakeTwoClusters(std::size_t per_cluster, std::uint64_t seed) {
  Rng rng(seed);
  Bag bag;
  for (std::size_t i = 0; i < per_cluster; ++i) {
    bag.push_back(rng.MultivariateGaussianIso({0.0, 0.0}, 0.2));
  }
  for (std::size_t i = 0; i < per_cluster; ++i) {
    bag.push_back(rng.MultivariateGaussianIso({8.0, 8.0}, 0.2));
  }
  return bag;
}

TEST(KMedoidsTest, MedoidsAreBagPoints) {
  Bag bag = MakeTwoClusters(20, 1);
  KMedoidsOptions options;
  options.k = 2;
  Result<KMedoidsResult> res = KMedoidsQuantize(Flat(bag), options);
  ASSERT_TRUE(res.ok());
  for (std::size_t m = 0; m < res->signature.size(); ++m) {
    const Point center = res->signature.center(m).ToPoint();
    const bool is_bag_point =
        std::any_of(bag.begin(), bag.end(),
                    [&](const Point& x) { return x == center; });
    EXPECT_TRUE(is_bag_point);
  }
}

TEST(KMedoidsTest, SeparatesClusters) {
  Bag bag = MakeTwoClusters(25, 2);
  KMedoidsOptions options;
  options.k = 2;
  options.seed = 3;
  Result<KMedoidsResult> res = KMedoidsQuantize(Flat(bag), options);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->signature.size(), 2u);
  const double d = EuclideanDistance(res->signature.center(0),
                                     res->signature.center(1));
  EXPECT_GT(d, 5.0);
  EXPECT_DOUBLE_EQ(res->signature.TotalWeight(), 50.0);
}

TEST(KMedoidsTest, RejectsEmptyBagAndZeroK) {
  EXPECT_FALSE(KMedoidsQuantize(BagView(), KMedoidsOptions{}).ok());
  KMedoidsOptions zero;
  zero.k = 0;
  EXPECT_FALSE(KMedoidsQuantize(Flat({{1.0}}), zero).ok());
}

TEST(LvqTest, SeparatesClusters) {
  Bag bag = MakeTwoClusters(30, 4);
  LvqOptions options;
  options.k = 2;
  options.seed = 5;
  Result<Signature> sig = LvqQuantize(Flat(bag), options);
  ASSERT_TRUE(sig.ok());
  ASSERT_EQ(sig->size(), 2u);
  EXPECT_GT(EuclideanDistance(sig->center(0), sig->center(1)), 5.0);
  EXPECT_DOUBLE_EQ(sig->TotalWeight(), 60.0);
}

TEST(LvqTest, RejectsBadOptions) {
  LvqOptions bad_epochs;
  bad_epochs.epochs = 0;
  EXPECT_FALSE(LvqQuantize(Flat({{1.0}}), bad_epochs).ok());
}

TEST(HistogramTest, ExactCountsOnCraftedData) {
  // 1-d: values in bins [0,1), [1,2), [2,3) with widths 1.
  Bag bag = {{0.1}, {0.9}, {1.5}, {2.2}, {2.8}, {2.9}};
  HistogramOptions options;
  options.bin_width = 1.0;
  Result<Signature> sig = HistogramQuantize(Flat(bag), options);
  ASSERT_TRUE(sig.ok());
  ASSERT_EQ(sig->size(), 3u);
  // Map ordered (bin 0, 1, 2) -> counts (2, 1, 3); centers at 0.5, 1.5, 2.5.
  EXPECT_DOUBLE_EQ(sig->center(0)[0], 0.5);
  EXPECT_DOUBLE_EQ(sig->weight(0), 2.0);
  EXPECT_DOUBLE_EQ(sig->center(1)[0], 1.5);
  EXPECT_DOUBLE_EQ(sig->weight(1), 1.0);
  EXPECT_DOUBLE_EQ(sig->center(2)[0], 2.5);
  EXPECT_DOUBLE_EQ(sig->weight(2), 3.0);
}

TEST(HistogramTest, SampleMeanCenters) {
  Bag bag = {{0.0}, {0.5}};
  HistogramOptions options;
  options.bin_width = 1.0;
  options.use_bin_centers = false;
  Result<Signature> sig = HistogramQuantize(Flat(bag), options);
  ASSERT_TRUE(sig.ok());
  ASSERT_EQ(sig->size(), 1u);
  EXPECT_DOUBLE_EQ(sig->center(0)[0], 0.25);
}

TEST(HistogramTest, NegativeValuesAndOrigin) {
  Bag bag = {{-0.5}, {-1.5}};
  HistogramOptions options;
  options.bin_width = 1.0;
  Result<Signature> sig = HistogramQuantize(Flat(bag), options);
  ASSERT_TRUE(sig.ok());
  ASSERT_EQ(sig->size(), 2u);
  EXPECT_DOUBLE_EQ(sig->center(0)[0], -1.5);
  EXPECT_DOUBLE_EQ(sig->center(1)[0], -0.5);
}

TEST(HistogramTest, MultiDimensionalBins) {
  Bag bag = {{0.2, 0.2}, {0.8, 0.8}, {1.2, 0.3}};
  HistogramOptions options;
  options.bin_width = 1.0;
  Result<Signature> sig = HistogramQuantize(Flat(bag), options);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->size(), 2u);  // (0,0) bin holds two points; (1,0) one.
  EXPECT_DOUBLE_EQ(sig->TotalWeight(), 3.0);
}

TEST(HistogramTest, OriginShiftByBinWidthIsNeutral) {
  // Shifting the grid origin by exactly one bin width relabels the bins but
  // produces identical centers and counts.
  Bag bag = {{0.2}, {0.8}, {1.7}, {2.4}};
  HistogramOptions base;
  base.bin_width = 1.0;
  base.origin = 0.0;
  HistogramOptions shifted = base;
  shifted.origin = -1.0;
  Signature s1 = HistogramQuantize(Flat(bag), base).ValueOrDie();
  Signature s2 = HistogramQuantize(Flat(bag), shifted).ValueOrDie();
  ASSERT_EQ(s1.size(), s2.size());
  EXPECT_EQ(s1.flat_centers(), s2.flat_centers());
  EXPECT_EQ(s1.weights(), s2.weights());
}

TEST(BuilderTest, NormalizeOptionYieldsUnitMass) {
  Bag bag = MakeTwoClusters(20, 8);
  SignatureBuilderOptions options;
  options.method = SignatureMethod::kKMeans;
  options.k = 4;
  options.normalize = true;
  SignatureBuilder builder(options);
  Signature sig = builder.Build(Flat(bag), 0).ValueOrDie();
  EXPECT_NEAR(sig.TotalWeight(), 1.0, 1e-12);
}

TEST(SignatureTest, NormalizedIsIdempotent) {
  Bag bag = {{0.0}, {1.0}, {1.0}};
  Signature sig = CentroidSignature(Flat(bag)).Normalized();
  Signature twice = sig.Normalized();
  EXPECT_EQ(sig.weights(), twice.weights());
}

TEST(HistogramTest, RejectsNonPositiveWidth) {
  HistogramOptions options;
  options.bin_width = 0.0;
  EXPECT_FALSE(HistogramQuantize(Flat({{1.0}}), options).ok());
}

TEST(HistogramTest, RejectsBinIndexOutsideInt64) {
  // floor(1e300 / 1) has no int64 value; casting it would be undefined.
  HistogramOptions options;
  options.bin_width = 1.0;
  for (const double far : {1e300, -1e300, 0x1p63}) {
    const Result<Signature> sig = HistogramQuantize(Flat({{far}, {0.5}}),
                                                    options);
    ASSERT_FALSE(sig.ok()) << far;
    EXPECT_EQ(sig.status().code(), StatusCode::kInvalidArgument) << far;
    EXPECT_NE(sig.status().message().find("int64"), std::string::npos);
  }
  // The last representable bins still quantize.
  const Result<Signature> edge =
      HistogramQuantize(Flat({{-0x1p63}, {0x1p62}}), options);
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge->size(), 2u);
}

TEST(BuilderTest, DispatchesAllMethods) {
  Bag bag = MakeTwoClusters(20, 6);
  for (SignatureMethod method :
       {SignatureMethod::kKMeans, SignatureMethod::kKMedoids,
        SignatureMethod::kLvq, SignatureMethod::kHistogram,
        SignatureMethod::kCentroid}) {
    SignatureBuilderOptions options;
    options.method = method;
    options.k = 4;
    options.bin_width = 2.0;
    SignatureBuilder builder(options);
    Result<Signature> sig = builder.Build(Flat(bag), 0);
    ASSERT_TRUE(sig.ok()) << SignatureMethodName(method) << ": "
                          << sig.status().ToString();
    EXPECT_TRUE(sig->Validate().ok());
    EXPECT_NEAR(sig->TotalWeight(), 40.0, 1e-9);
    if (method == SignatureMethod::kCentroid) {
      EXPECT_EQ(sig->size(), 1u);
    }
  }
}

TEST(BuilderTest, DeterministicPerBagIndex) {
  Bag bag = MakeTwoClusters(15, 7);
  SignatureBuilderOptions options;
  options.method = SignatureMethod::kKMeans;
  options.k = 3;
  options.seed = 21;
  SignatureBuilder builder(options);
  Result<Signature> a = builder.Build(Flat(bag), 5);
  Result<Signature> b = builder.Build(Flat(bag), 5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->flat_centers(), b->flat_centers());
  EXPECT_EQ(a->weights(), b->weights());
}

TEST(BuilderTest, MethodNames) {
  EXPECT_STREQ(SignatureMethodName(SignatureMethod::kKMeans), "kmeans");
  EXPECT_STREQ(SignatureMethodName(SignatureMethod::kHistogram), "histogram");
  EXPECT_STREQ(SignatureMethodName(SignatureMethod::kCentroid), "centroid");
}

}  // namespace
}  // namespace bagcpd

#include "bagcpd/signature/signature.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/flat_bag.h"

namespace bagcpd {
namespace {

Signature MakeSimple() {
  return Signature::FromCenters({{0.0, 0.0}, {2.0, 0.0}}, {1.0, 3.0});
}

TEST(SignatureTest, BasicAccessors) {
  Signature s = MakeSimple();
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.dim(), 2u);
  EXPECT_DOUBLE_EQ(s.TotalWeight(), 4.0);
}

TEST(SignatureTest, Normalized) {
  Signature n = MakeSimple().Normalized();
  EXPECT_DOUBLE_EQ(n.TotalWeight(), 1.0);
  EXPECT_DOUBLE_EQ(n.weight(0), 0.25);
  EXPECT_DOUBLE_EQ(n.weight(1), 0.75);
  // Centers untouched.
  EXPECT_DOUBLE_EQ(n.center(1)[0], 2.0);
}

TEST(SignatureTest, NormalizeInPlaceMatchesNormalized) {
  Signature copy = MakeSimple().Normalized();
  Signature in_place = MakeSimple();
  in_place.NormalizeInPlace();
  EXPECT_EQ(copy.weights(), in_place.weights());
  EXPECT_EQ(copy.flat_centers(), in_place.flat_centers());
}

TEST(SignatureTest, Centroid) {
  Point c = MakeSimple().Centroid();
  EXPECT_DOUBLE_EQ(c[0], 1.5);
  EXPECT_DOUBLE_EQ(c[1], 0.0);
}

TEST(SignatureTest, ValidateAcceptsGood) {
  EXPECT_TRUE(MakeSimple().Validate().ok());
}

TEST(SignatureTest, ValidateRejectsEmpty) {
  Signature s;
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SignatureTest, ValidateRejectsNonPositiveWeight) {
  // The packed layout makes center/weight count mismatches unrepresentable;
  // the remaining recoverable inconsistency is a non-positive weight.
  Signature s = MakeSimple();
  s.set_weight(0, 0.0);
  EXPECT_FALSE(s.Validate().ok());
  s.set_weight(0, -1.0);
  EXPECT_FALSE(s.Validate().ok());
  s.set_weight(0, 1.0);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(SignatureTest, ValidateRejectsNonFiniteWeight) {
  Signature s = MakeSimple();
  s.set_weight(1, std::numeric_limits<double>::infinity());
  EXPECT_FALSE(s.Validate().ok());
  s.set_weight(1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(s.Validate().ok());
  s.set_weight(1, std::numeric_limits<double>::max());
  EXPECT_TRUE(s.Validate().ok());
}

TEST(SignatureTest, PackedBufferIsCentersThenWeights) {
  // One contiguous (K*d + K) allocation: centers block then weight block.
  Signature s = MakeSimple();
  const std::vector<double> expected = {0.0, 0.0, 2.0, 0.0, 1.0, 3.0};
  EXPECT_EQ(s.packed(), expected);
  EXPECT_EQ(s.weights().data(), s.packed().data() + 4);
}

TEST(SignatureTest, AddCenterAliasingOwnStorageIsSafe) {
  // AddCenter must survive a view into the signature's own packed buffer
  // even when the append reallocates and shifts the weight block.
  Signature s = MakeSimple();
  for (int i = 0; i < 6; ++i) s.AddCenter(s.center(0), 0.5);
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_EQ(s.size(), 8u);
  for (std::size_t k = 2; k < 8; ++k) {
    EXPECT_DOUBLE_EQ(s.center(k)[0], 0.0);
    EXPECT_DOUBLE_EQ(s.weight(k), 0.5);
  }
  EXPECT_DOUBLE_EQ(s.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(s.weight(1), 3.0);
}

TEST(SignatureTest, FlatCentersAreContiguousRowMajor) {
  Signature s = MakeSimple();
  const std::vector<double> expected = {0.0, 0.0, 2.0, 0.0};
  EXPECT_EQ(s.flat_centers(), expected);
  EXPECT_EQ(s.center(1).data(), s.packed().data() + 2);
  EXPECT_EQ(s.centers().size(), 2u);
  EXPECT_EQ(s.centers().dim(), 2u);
}

TEST(SignatureTest, FromFlatAdoptsBuffer) {
  Signature s = Signature::FromFlat({0.0, 0.0, 2.0, 0.0}, 2, {1.0, 3.0});
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.dim(), 2u);
  EXPECT_DOUBLE_EQ(s.center(1)[0], 2.0);
  EXPECT_EQ(s.flat_centers(), MakeSimple().flat_centers());
}

TEST(SignatureTest, MutableCenterWritesThrough) {
  Signature s = MakeSimple();
  s.mutable_center(0)[1] = 7.0;
  EXPECT_DOUBLE_EQ(s.center(0)[1], 7.0);
}

TEST(SignatureTest, CentroidSignatureCollapsesBag) {
  const FlatBag bag = FlatBag::FromBag({{0.0, 0.0}, {4.0, 2.0}}).ValueOrDie();
  Signature s = CentroidSignature(bag);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.center(0)[0], 2.0);
  EXPECT_DOUBLE_EQ(s.center(0)[1], 1.0);
  EXPECT_DOUBLE_EQ(s.weight(0), 2.0);
}

TEST(SignatureTest, ToStringIsNonEmpty) {
  EXPECT_FALSE(MakeSimple().ToString().empty());
}

TEST(SignatureTest, MovedFromSignatureIsEmptyAndReusable) {
  Signature s = MakeSimple();
  Signature stolen = std::move(s);
  EXPECT_EQ(stolen.size(), 2u);
  // The moved-from signature must degrade to a valid empty one: no stale
  // k/dim over the cleared buffer.
  EXPECT_EQ(s.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(s.dim(), 0u);
  EXPECT_FALSE(s.Validate().ok());
  s.AddCenter(Point{5.0, 6.0, 7.0}, 2.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.dim(), 3u);
  EXPECT_TRUE(s.Validate().ok());
}

}  // namespace
}  // namespace bagcpd

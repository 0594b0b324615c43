// SignatureBuilder's two entry points must agree: BuildInto, which assembles
// straight into a SignatureRing slot, leaves the ring exactly as Build()
// followed by SignatureRing::PushBack would. Every method runs against
// normalize on/off and bags with k < n and k >= n in one and three
// dimensions.

#include "bagcpd/signature/builder.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/signature/signature_set.h"

namespace bagcpd {
namespace {

// Two Gaussian blobs, so the clustering quantizers have structure to find
// and the histogram spans several bins.
FlatBag MakeBag(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  FlatBag bag(d);
  for (std::size_t i = 0; i < n; ++i) {
    Point x(d);
    const double offset = (i % 2 == 0) ? 0.0 : 3.0;
    for (double& v : x) v = offset + rng.Gaussian(0.0, 0.8);
    EXPECT_TRUE(bag.Append(x).ok());
  }
  return bag;
}

bool SameBits(const double* a, const double* b, std::size_t count) {
  return count == 0 || std::memcmp(a, b, count * sizeof(double)) == 0;
}

void ExpectSameRing(const SignatureRing& want, const SignatureRing& got) {
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(want.dim(), got.dim());
  EXPECT_EQ(want.memory_bytes(), got.memory_bytes());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const SignatureView w = want.view(i);
    const SignatureView g = got.view(i);
    ASSERT_EQ(w.size(), g.size()) << "slot " << i;
    ASSERT_EQ(w.dim(), g.dim()) << "slot " << i;
    EXPECT_TRUE(SameBits(w.centers_data(), g.centers_data(),
                         w.size() * w.dim()))
        << "centers of slot " << i;
    EXPECT_TRUE(SameBits(w.weights_data(), g.weights_data(), w.size()))
        << "weights of slot " << i;
  }
}

struct Shape {
  std::size_t n, k, d;
};

TEST(SignatureBuilderTest, BuildIntoMatchesBuildPlusPushBack) {
  // k < n and k >= n, in one and three dimensions. Bag sizes alternate
  // between n and n + 1 so later slots can widen the ring's stride.
  const Shape shapes[] = {{30, 4, 1}, {30, 4, 3}, {5, 8, 1}, {5, 8, 3}};
  for (SignatureMethod method : AllSignatureMethods()) {
    for (bool normalize : {false, true}) {
      for (const Shape& shape : shapes) {
        SCOPED_TRACE(std::string(SignatureMethodName(method)) +
                     " normalize=" + std::to_string(normalize) +
                     " n=" + std::to_string(shape.n) +
                     " k=" + std::to_string(shape.k) +
                     " d=" + std::to_string(shape.d));
        SignatureBuilderOptions options;
        options.method = method;
        options.k = shape.k;
        options.bin_width = 1.5;
        options.normalize = normalize;
        options.seed = 17;
        const SignatureBuilder builder(options);

        // Capacity 3 over 6 bags: the ring wraps and slots are reused.
        SignatureRing built(3);
        SignatureRing borrowed(3);
        for (std::uint64_t t = 0; t < 6; ++t) {
          const FlatBag bag =
              MakeBag(shape.n + t % 2, shape.d, 100 * shape.d + t);
          if (built.full()) {
            built.PopFront();
            borrowed.PopFront();
          }
          Result<Signature> sig = builder.Build(bag.view(), t);
          ASSERT_TRUE(sig.ok()) << sig.status().ToString();
          built.PushBack(*sig);
          const Status into = builder.BuildInto(bag.view(), t, &borrowed);
          ASSERT_TRUE(into.ok()) << into.ToString();
          ExpectSameRing(built, borrowed);
        }
      }
    }
  }
}

TEST(SignatureBuilderTest, FailedBuildIntoLeavesRingUnchanged) {
  for (SignatureMethod method : AllSignatureMethods()) {
    SCOPED_TRACE(SignatureMethodName(method));
    SignatureBuilderOptions options;
    options.method = method;
    const SignatureBuilder builder(options);
    SignatureRing ring(2);
    ASSERT_TRUE(builder.BuildInto(MakeBag(10, 2, 1).view(), 0, &ring).ok());
    const std::size_t bytes = ring.memory_bytes();
    EXPECT_FALSE(builder.BuildInto(BagView(), 1, &ring).ok());
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.memory_bytes(), bytes);
    // The ring still accepts the next build.
    EXPECT_TRUE(builder.BuildInto(MakeBag(10, 2, 2).view(), 1, &ring).ok());
    EXPECT_EQ(ring.size(), 2u);
  }
}

TEST(SignatureBuilderTest, HistogramIndexOverflowLeavesRingUnchanged) {
  SignatureBuilderOptions options;
  options.method = SignatureMethod::kHistogram;
  options.bin_width = 1.0;
  const SignatureBuilder builder(options);
  SignatureRing ring(2);
  ASSERT_TRUE(builder.BuildInto(MakeBag(10, 1, 1).view(), 0, &ring).ok());
  const std::size_t bytes = ring.memory_bytes();
  const std::vector<double> before(
      ring.view(0).centers_data(),
      ring.view(0).centers_data() + ring.view(0).size());
  FlatBag far(1);
  ASSERT_TRUE(far.Append(Point{1e300}).ok());
  ASSERT_TRUE(far.Append(Point{0.5}).ok());
  const Status status = builder.BuildInto(far.view(), 1, &ring);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.memory_bytes(), bytes);
  EXPECT_TRUE(SameBits(before.data(), ring.view(0).centers_data(),
                       before.size()));
}

}  // namespace
}  // namespace bagcpd

// Bit-exact pins of the quantizers, as %a hex literals: every center
// coordinate, then every weight. The seeded ones (k-means, k-medoids, LVQ)
// were captured before they moved from Rng to LazyMt19937_64 streams, and
// hold because both engines yield the same words; histogram and centroid
// were captured before every quantizer emitted through one assembler path.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/signature/histogram.h"
#include "bagcpd/signature/kmeans.h"
#include "bagcpd/signature/kmedoids.h"
#include "bagcpd/signature/lvq.h"

namespace bagcpd {
namespace {

// n points in d dimensions built from integer hashes only, so the bag is
// bit-identical on every platform. Point i repeats point i % distinct, which
// lets a case force the quantizers' all-points-coincide branches; the
// distinct points fall into three offset blobs.
FlatBag PinBag(std::size_t n, std::size_t d, std::size_t distinct,
           std::uint64_t salt) {
  Bag bag;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = i % distinct;
    Point x(d);
    for (std::size_t j = 0; j < d; ++j) {
      const std::uint64_t h = Rng::MixSeed64(salt * 1000003 + p * 131 + j);
      x[j] = static_cast<double>(h >> 11) * 0x1p-53 * 2.0 +
             4.0 * static_cast<double>((p % 3 + j) % 3);
    }
    bag.push_back(x);
  }
  return FlatBag::FromBag(bag).ValueOrDie();
}

// Center block (row-major), then the weight block.
std::vector<double> Packed(const Signature& s) {
  std::vector<double> out;
  for (std::size_t k = 0; k < s.size(); ++k) {
    for (double v : s.center(k)) out.push_back(v);
  }
  for (std::size_t k = 0; k < s.size(); ++k) out.push_back(s.weight(k));
  return out;
}

void ExpectPinned(const std::vector<double>& got,
                  const std::vector<double>& want) {
  bool same = got.size() == want.size();
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "entry " << i;
    same = same && got[i] == want[i];
  }
  if (!same) {
    std::string dump;
    char buf[32];
    for (double v : got) {
      std::snprintf(buf, sizeof(buf), "%a, ", v);
      dump += buf;
    }
    ADD_FAILURE() << "actual: {" << dump << "}";
  }
}

struct PinCase {
  std::size_t n, d, distinct, k;
  std::uint64_t salt, seed;
  std::vector<double> expected;
};

TEST(QuantizerGoldenTest, KMeansSignaturesAreBitExact) {
  const PinCase cases[] = {
      {50, 2, 50, 8, 1, 11,
       {0x1.1c20b1f6e2341p+3, 0x1.883b6b75cf2ebp+0, 0x1.d10178c819f8p-1,
        0x1.186638f7bbf4bp+2, 0x1.3542d588f0f3bp+2, 0x1.0c74688731ab3p+3,
        0x1.107fecbe91c8ap+2, 0x1.29f7950ef9224p+3, 0x1.31588e74a48b1p+3,
        0x1.70828416d58a5p+0, 0x1.0e513c2db4e7ep+3, 0x1.952e6e02963abp-1,
        0x1.d355524c5779ep-2, 0x1.4b24f1af0ea3bp+2, 0x1.6708d4ed074f1p+2,
        0x1.1b4fb19da7d57p+3, 0x1p+2, 0x1.4p+3, 0x1.4p+2, 0x1.8p+2, 0x1.4p+2,
        0x1.cp+2, 0x1.cp+2, 0x1.8p+2}},
      {23, 3, 23, 5, 2, 0,
       {0x1.f01a93d6581dfp-1, 0x1.39232c703e7p+2, 0x1.12ef5384e4c8ap+3,
        0x1.24384c5943d9cp+2, 0x1.25d7818dd3896p+3, 0x1.8632e4f61983dp-2,
        0x1.194d153ede04ep+3, 0x1.db3dfc93de4d4p-1, 0x1.472bf43468b09p+2,
        0x1.26f05e3c6858cp+2, 0x1.18002bf37e18bp+3, 0x1.7b60d9633cb39p+0,
        0x1.28599f1e4b249p+3, 0x1.9bc421867e048p+0, 0x1.1124782453adep+2,
        0x1p+3, 0x1.8p+1, 0x1p+2, 0x1.4p+2, 0x1.8p+1}},
      // K-means++ runs out of distinct points.
      {12, 2, 3, 5, 3, 7,
       {0x1.84cbb34ac8dcp-5, 0x1.3bb254975fc9ap+2, 0x1.23540d4cf723ap+3,
        0x1.29ecd0e0c2ecap+0, 0x1.5fdcf4e175421p+2, 0x1.0d0b2efa521c7p+3,
        0x1p+2, 0x1p+2, 0x1p+2}},
  };
  for (const PinCase& c : cases) {
    SCOPED_TRACE("salt " + std::to_string(c.salt));
    KMeansOptions options;
    options.k = c.k;
    options.seed = c.seed;
    Result<KMeansResult> res =
        KMeansQuantize(PinBag(c.n, c.d, c.distinct, c.salt), options);
    ASSERT_TRUE(res.ok());
    ExpectPinned(Packed(res->signature), c.expected);
  }
}

TEST(QuantizerGoldenTest, KMedoidsSignaturesAreBitExact) {
  const PinCase cases[] = {
      {50, 2, 50, 6, 4, 5,
       {0x1.e63aad9e7673p-1, 0x1.5ae2bd70c64d6p+2, 0x1.33846dbfb68f4p-1,
        0x1.1d585d1bd4d48p+2, 0x1.171c5ac0a01dep+3, 0x1.9972cd036a39ep+0,
        0x1.5b75290b0531ap+2, 0x1.2c2ae62ef9495p+3, 0x1.17f1016f9e3a8p+3,
        0x1.88f0f30e5fc2p-3, 0x1.2d72608103b6p+2, 0x1.17161319e3cc7p+3,
        0x1.4p+3, 0x1.cp+2, 0x1.cp+2, 0x1.2p+3, 0x1.2p+3, 0x1p+3}},
      // More points than SWAP candidates.
      {80, 2, 80, 4, 5, 9,
       {0x1.20205d93e6389p+3, 0x1.736913d9cdb6cp+0, 0x1.3f41a6ac65712p+2,
        0x1.24795c44b4b4bp+3, 0x1.a5262277ed348p-3, 0x1.5e30b829c714cp+2,
        0x1.7ede04b737893p+0, 0x1.4d59c91998cb3p+2, 0x1.ap+4, 0x1.bp+4,
        0x1.6p+3, 0x1p+4}},
      // Seeding runs out of distinct points.
      {12, 3, 2, 4, 6, 1,
       {0x1.49743a8cc7f4dp+2, 0x1.1e8a5aa085b49p+3, 0x1.aa09fc515cf84p+0,
        0x1.80c8427d2755p-2, 0x1.797ddd82729b6p+2, 0x1.0e2ec4bcfb118p+3,
        0x1.8p+2, 0x1.8p+2}},
  };
  for (const PinCase& c : cases) {
    SCOPED_TRACE("salt " + std::to_string(c.salt));
    KMedoidsOptions options;
    options.k = c.k;
    options.seed = c.seed;
    Result<KMedoidsResult> res =
        KMedoidsQuantize(PinBag(c.n, c.d, c.distinct, c.salt), options);
    ASSERT_TRUE(res.ok());
    ExpectPinned(Packed(res->signature), c.expected);
  }
}

TEST(QuantizerGoldenTest, LvqSignaturesAreBitExact) {
  const PinCase cases[] = {
      {50, 2, 50, 8, 7, 3,
       {0x1.566a9730b6615p+2, 0x1.07c468aeb3b32p+3, 0x1.c04764f823413p-1,
        0x1.5305d264b30b9p+2, 0x1.aafde16fd35b9p+0, 0x1.3efbce732fbc1p+2,
        0x1.50fc0e164325bp-1, 0x1.16cdd951eda41p+2, 0x1.1131dc01f6044p+3,
        0x1.009620abb2866p+0, 0x1.4e8e3a3941bb1p+2, 0x1.1ae025ab95d1dp+3,
        0x1.35f7189c7743dp+3, 0x1.016d23addaa4fp+0, 0x1.0f7cbcc1d8b37p+2,
        0x1.23021870fbc29p+3, 0x1.8p+1, 0x1.cp+2, 0x1.4p+2, 0x1.4p+2, 0x1.cp+2,
        0x1p+2, 0x1.2p+3, 0x1.4p+3}},
      {30, 3, 30, 4, 8, 0,
       {0x1.c3fbb09edfc91p-1, 0x1.3d99e833ff427p+2, 0x1.1db02f9bb7df6p+3,
        0x1.1b7c7952c1c9ep+2, 0x1.2cc14a23c87a7p+3, 0x1.bc17e0824686bp-2,
        0x1.532ab5ebf3599p+2, 0x1.1b2085ab49877p+3, 0x1.1bc06681b2f89p+0,
        0x1.1ee29392ec6e7p+3, 0x1.4d1b1d72df858p+0, 0x1.33c288bc01ccep+2,
        0x1.4p+3, 0x1.4p+2, 0x1.4p+2, 0x1.4p+3}},
  };
  for (const PinCase& c : cases) {
    SCOPED_TRACE("salt " + std::to_string(c.salt));
    LvqOptions options;
    options.k = c.k;
    options.seed = c.seed;
    Result<Signature> res =
        LvqQuantize(PinBag(c.n, c.d, c.distinct, c.salt), options);
    ASSERT_TRUE(res.ok());
    ExpectPinned(Packed(*res), c.expected);
  }
}

TEST(QuantizerGoldenTest, HistogramSignaturesAreBitExact) {
  struct HistogramCase {
    std::size_t n, d, distinct;
    std::uint64_t salt;
    double bin_width, origin;
    bool use_bin_centers;
    std::vector<double> expected;
  };
  const HistogramCase cases[] = {
      {40, 1, 40, 21, 1.5, 0.0, true,
       {0x1.8p-1, 0x1.2p+1, 0x1.ep+1, 0x1.5p+2, 0x1.08p+3, 0x1.38p+3,
        0x1.6p+3, 0x1.8p+1, 0x1.8p+1, 0x1.4p+3, 0x1p+2, 0x1.2p+3}},
      {40, 2, 40, 22, 2.0, -0.25, true,
       {0x1.8p-1, 0x1.3p+2, 0x1.8p-1, 0x1.bp+2, 0x1.6p+1, 0x1.3p+2, 0x1.3p+2,
        0x1.18p+3, 0x1.3p+2, 0x1.58p+3, 0x1.bp+2, 0x1.58p+3, 0x1.18p+3,
        0x1.8p-1, 0x1.18p+3, 0x1.6p+1, 0x1.58p+3, 0x1.8p-1, 0x1.2p+3,
        0x1.8p+1, 0x1p+1, 0x1.2p+3, 0x1.8p+1, 0x1p+0, 0x1.6p+3, 0x1p+0,
        0x1p+0}},
      // Sample-mean centers.
      {30, 3, 30, 23, 3.0, 0.5, false,
       {0x1.7116bf88047bp-4, 0x1.2cf96c36948e4p+2, 0x1.316606ab8b156p+3,
        0x1.4e8d32f067d7ep+0, 0x1.42a43ca7f8922p+2, 0x1.19881381df91cp+3,
        0x1.ca58bc32fb692p-1, 0x1.6a6c946c39188p+2, 0x1.348af8f85d651p+3,
        0x1.1dc05287e020ap+2, 0x1.0adb59043a91ap+3, 0x1.8b9955a0063f8p-3,
        0x1.464815ce3eb8ap+2, 0x1.168ea40eff00dp+3, 0x1.81102c45a95c5p+0,
        0x1.065d574273698p+2, 0x1.37956a8d7cc5cp+3, 0x1.0e836e61f7afcp-3,
        0x1.66a87f4b363fcp+2, 0x1.37c8e9a94d021p+3, 0x1.92b8d4991c3fap+0,
        0x1.18cf38c5e61a8p+3, 0x1.1a43e560092d9p-2, 0x1.2779d0e29e518p+2,
        0x1.164400b2d07a6p+3, 0x1.3fb3b6d9fa235p+0, 0x1.4aa28d3c0464dp+2,
        0x1.3afd258641c7ap+3, 0x1.50317468819fcp-1, 0x1.30517cfbc44c4p+2,
        0x1p+0, 0x1p+3, 0x1p+0, 0x1p+1, 0x1.4p+2, 0x1p+1, 0x1p+0, 0x1p+2,
        0x1.4p+2, 0x1p+0}},
      // Repeated points pile into few bins.
      {12, 2, 3, 24, 0.75, 0.0, false,
       {0x1.80613a61a4e69p+0, 0x1.4722692a62c44p+2, 0x1.3dc346b4f3444p+2,
        0x1.0ae0fcc946485p+3, 0x1.307ea6f933f9ep+3, 0x1.54337e4d2f39ap-1,
        0x1p+2, 0x1p+2, 0x1p+2}},
  };
  for (const HistogramCase& c : cases) {
    SCOPED_TRACE("salt " + std::to_string(c.salt));
    HistogramOptions options;
    options.bin_width = c.bin_width;
    options.origin = c.origin;
    options.use_bin_centers = c.use_bin_centers;
    Result<Signature> res =
        HistogramQuantize(PinBag(c.n, c.d, c.distinct, c.salt), options);
    ASSERT_TRUE(res.ok());
    ExpectPinned(Packed(*res), c.expected);
  }
}

TEST(QuantizerGoldenTest, CentroidSignaturesAreBitExact) {
  const PinCase cases[] = {
      {50, 2, 50, 0, 31, 0,
       {0x1.38ad67664f4e6p+2, 0x1.43fb38ee9fabfp+2, 0x1.9p+5}},
      {17, 3, 17, 0, 32, 0,
       {0x1.2aa6e79063ebcp+2, 0x1.51c9c2788974bp+2, 0x1.44efa832a192ep+2,
        0x1.1p+4}},
      // Two distinct points, repeated.
      {9, 1, 2, 0, 33, 0, {0x1.833153a128491p+1, 0x1.2p+3}},
  };
  for (const PinCase& c : cases) {
    SCOPED_TRACE("salt " + std::to_string(c.salt));
    ExpectPinned(
        Packed(CentroidSignature(PinBag(c.n, c.d, c.distinct, c.salt))),
        c.expected);
  }
}

}  // namespace
}  // namespace bagcpd


// Property-based tests of EMD's metric behaviour over randomly generated
// signatures. For signatures of equal total weight and a metric ground
// distance, EMD is a metric (Rubner et al. 2000): we verify identity,
// symmetry, non-negativity, the triangle inequality, and the invariances
// (translation of all centers; common scaling of all weights).

#include <cmath>

#include <gtest/gtest.h>

#include "bagcpd/common/point.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/emd/emd.h"

namespace bagcpd {
namespace {

Signature RandomSignature(Rng* rng, std::size_t k, std::size_t dim,
                          bool normalize) {
  Signature s;
  for (std::size_t i = 0; i < k; ++i) {
    Point c(dim);
    for (double& v : c) v = rng->Uniform(-5.0, 5.0);
    s.AddCenter(c, rng->Uniform(0.1, 3.0));
  }
  return normalize ? s.Normalized() : s;
}

struct PropertyCase {
  std::uint64_t seed;
  std::size_t k1, k2, k3;
  std::size_t dim;
};

class EmdMetricPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(EmdMetricPropertyTest, NonNegativityAndSymmetry) {
  const PropertyCase& pc = GetParam();
  Rng rng(pc.seed);
  Signature a = RandomSignature(&rng, pc.k1, pc.dim, true);
  Signature b = RandomSignature(&rng, pc.k2, pc.dim, true);
  const double dab = ComputeEmd(a, b).ValueOrDie();
  const double dba = ComputeEmd(b, a).ValueOrDie();
  EXPECT_GE(dab, 0.0);
  EXPECT_NEAR(dab, dba, 1e-9);
}

TEST_P(EmdMetricPropertyTest, IdentityOfIndiscernibles) {
  const PropertyCase& pc = GetParam();
  Rng rng(pc.seed + 1);
  Signature a = RandomSignature(&rng, pc.k1, pc.dim, true);
  EXPECT_NEAR(ComputeEmd(a, a).ValueOrDie(), 0.0, 1e-10);
}

TEST_P(EmdMetricPropertyTest, TriangleInequalityForEqualMass) {
  const PropertyCase& pc = GetParam();
  Rng rng(pc.seed + 2);
  Signature a = RandomSignature(&rng, pc.k1, pc.dim, true);
  Signature b = RandomSignature(&rng, pc.k2, pc.dim, true);
  Signature c = RandomSignature(&rng, pc.k3, pc.dim, true);
  const double dab = ComputeEmd(a, b).ValueOrDie();
  const double dbc = ComputeEmd(b, c).ValueOrDie();
  const double dac = ComputeEmd(a, c).ValueOrDie();
  EXPECT_LE(dac, dab + dbc + 1e-8);
}

TEST_P(EmdMetricPropertyTest, TranslationInvariance) {
  const PropertyCase& pc = GetParam();
  Rng rng(pc.seed + 3);
  Signature a = RandomSignature(&rng, pc.k1, pc.dim, true);
  Signature b = RandomSignature(&rng, pc.k2, pc.dim, true);
  const double before = ComputeEmd(a, b).ValueOrDie();
  Point shift(pc.dim);
  for (double& v : shift) v = rng.Uniform(-10.0, 10.0);
  for (std::size_t k = 0; k < a.size(); ++k) {
    double* c = a.mutable_center(k);
    for (std::size_t j = 0; j < pc.dim; ++j) c[j] += shift[j];
  }
  for (std::size_t k = 0; k < b.size(); ++k) {
    double* c = b.mutable_center(k);
    for (std::size_t j = 0; j < pc.dim; ++j) c[j] += shift[j];
  }
  EXPECT_NEAR(ComputeEmd(a, b).ValueOrDie(), before, 1e-8);
}

TEST_P(EmdMetricPropertyTest, CommonWeightScaleInvariance) {
  const PropertyCase& pc = GetParam();
  Rng rng(pc.seed + 4);
  Signature a = RandomSignature(&rng, pc.k1, pc.dim, false);
  Signature b = RandomSignature(&rng, pc.k2, pc.dim, false);
  const double before = ComputeEmd(a, b).ValueOrDie();
  for (std::size_t i = 0; i < a.size(); ++i) a.mutable_weights()[i] *= 7.5;
  for (std::size_t i = 0; i < b.size(); ++i) b.mutable_weights()[i] *= 7.5;
  EXPECT_NEAR(ComputeEmd(a, b).ValueOrDie(), before, 1e-8);
}

TEST_P(EmdMetricPropertyTest, MergingCoincidentCentersIsNeutral) {
  const PropertyCase& pc = GetParam();
  Rng rng(pc.seed + 5);
  Signature a = RandomSignature(&rng, pc.k1, pc.dim, true);
  Signature b = RandomSignature(&rng, pc.k2, pc.dim, true);
  const double before = ComputeEmd(a, b).ValueOrDie();
  // Split a's first cluster into two half-weight copies.
  Signature a_split = a;
  a_split.mutable_weights()[0] /= 2.0;
  a_split.AddCenter(a.center(0), a_split.weight(0));
  EXPECT_NEAR(ComputeEmd(a_split, b).ValueOrDie(), before, 1e-8);
}

TEST_P(EmdMetricPropertyTest, FlowMatrixIsConsistent) {
  // The detailed solution must satisfy all the paper's constraints: flows
  // non-negative (Eq. 8), marginals bounded by the weights (Eqs. 9-10), the
  // moved mass equal to min of the totals (Eq. 11), and the reported cost and
  // EMD consistent with the flow matrix (Eq. 12).
  const PropertyCase& pc = GetParam();
  Rng rng(pc.seed + 6);
  Signature a = RandomSignature(&rng, pc.k1, pc.dim, false);
  Signature b = RandomSignature(&rng, pc.k2, pc.dim, false);
  EmdSolution sol =
      ComputeEmdDetailed(a, b, GroundDistance::kEuclidean).ValueOrDie();

  double recomputed_cost = 0.0;
  double recomputed_flow = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      EXPECT_GE(sol.flow(i, j), -1e-9);  // Eq. 8.
      row += sol.flow(i, j);
      recomputed_cost +=
          sol.flow(i, j) * EuclideanDistance(a.center(i), b.center(j));
      recomputed_flow += sol.flow(i, j);
    }
    EXPECT_LE(row, a.weight(i) + 1e-8);  // Eq. 9.
  }
  for (std::size_t j = 0; j < b.size(); ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) col += sol.flow(i, j);
    EXPECT_LE(col, b.weight(j) + 1e-8);  // Eq. 10.
  }
  const double expected_flow = std::min(a.TotalWeight(), b.TotalWeight());
  EXPECT_NEAR(recomputed_flow, expected_flow, 1e-7);       // Eq. 11.
  EXPECT_NEAR(sol.total_flow, expected_flow, 1e-7);
  EXPECT_NEAR(recomputed_cost, sol.cost, 1e-7);
  EXPECT_NEAR(sol.emd, sol.cost / sol.total_flow, 1e-9);   // Eq. 12.
}

TEST_P(EmdMetricPropertyTest, SolverAgreesWithItselfUnderArgumentSwap) {
  const PropertyCase& pc = GetParam();
  Rng rng(pc.seed + 7);
  Signature a = RandomSignature(&rng, pc.k1, pc.dim, false);
  Signature b = RandomSignature(&rng, pc.k2, pc.dim, false);
  EmdSolution ab =
      ComputeEmdDetailed(a, b, GroundDistance::kEuclidean).ValueOrDie();
  EmdSolution ba =
      ComputeEmdDetailed(b, a, GroundDistance::kEuclidean).ValueOrDie();
  EXPECT_NEAR(ab.emd, ba.emd, 1e-8);
  EXPECT_NEAR(ab.cost, ba.cost, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSignatures, EmdMetricPropertyTest,
    ::testing::Values(PropertyCase{11, 1, 1, 1, 1}, PropertyCase{12, 2, 3, 2, 1},
                      PropertyCase{13, 3, 3, 3, 2}, PropertyCase{14, 5, 4, 6, 2},
                      PropertyCase{15, 8, 8, 8, 3}, PropertyCase{16, 4, 7, 2, 4},
                      PropertyCase{17, 6, 2, 5, 5},
                      PropertyCase{18, 10, 10, 10, 2}));

}  // namespace
}  // namespace bagcpd

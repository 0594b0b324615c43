#include "bagcpd/emd/emd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/rng.h"
#include "bagcpd/emd/transport_solver.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {
namespace {

Signature Sig(const std::vector<Point>& centers, std::vector<double> weights) {
  return Signature::FromCenters(centers, std::move(weights));
}

TEST(EmdTest, IdenticalSignaturesHaveZeroDistance) {
  Signature s = Sig({{0.0, 0.0}, {1.0, 1.0}}, {2.0, 3.0});
  Result<double> d = ComputeEmd(s, s);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.ValueOrDie(), 0.0, 1e-12);
  Signature line = Sig({{0.0}, {5.0}}, {1.0, 2.0});
  EXPECT_NEAR(ComputeEmd(line, line).ValueOrDie(), 0.0, 1e-12);
}

TEST(EmdTest, SingleClusterPairIsGroundDistance) {
  Signature a = Sig({{0.0, 0.0}}, {5.0});
  Signature b = Sig({{3.0, 4.0}}, {5.0});
  EXPECT_NEAR(ComputeEmd(a, b).ValueOrDie(), 5.0, 1e-12);
  // Total-weight scale of both signatures does not matter.
  Signature b2 = Sig({{3.0, 4.0}}, {50.0});
  EXPECT_NEAR(ComputeEmd(a, b2).ValueOrDie(), 5.0, 1e-12);
  // Point masses on the line: the distance between them.
  EXPECT_NEAR(ComputeEmd(Sig({{0.0}}, {1.0}), Sig({{3.5}}, {1.0})).ValueOrDie(),
              3.5, 1e-12);
}

TEST(EmdTest, HandComputedTwoToOne) {
  // Two supply clusters at x=0 (w=1) and x=2 (w=1); one demand at x=1 (w=2).
  // All mass moves distance 1 => EMD = 1.
  Signature a = Sig({{0.0}, {2.0}}, {1.0, 1.0});
  Signature b = Sig({{1.0}}, {2.0});
  EXPECT_NEAR(ComputeEmd(a, b).ValueOrDie(), 1.0, 1e-12);
  // Unsorted centers: on the line the sorted matching (0->1, 2->2, 5->6)
  // is optimal, so each unit moves 1, 0 and 1.
  Signature c = Sig({{5.0}, {0.0}, {2.0}}, {1.0, 1.0, 1.0});
  Signature d = Sig({{1.0}, {6.0}, {2.0}}, {1.0, 1.0, 1.0});
  EXPECT_NEAR(ComputeEmd(c, d).ValueOrDie(), 2.0 / 3.0, 1e-12);
}

// The closed form of balanced 1-d transport under |x - y|: the integral of
// |F_a - F_b| over the line.
double CdfDistance(const Signature& a, const Signature& b) {
  std::vector<std::pair<double, double>> events;
  for (std::size_t i = 0; i < a.size(); ++i) {
    events.push_back({a.center(i)[0], a.weight(i) / a.TotalWeight()});
  }
  for (std::size_t j = 0; j < b.size(); ++j) {
    events.push_back({b.center(j)[0], -b.weight(j) / b.TotalWeight()});
  }
  std::sort(events.begin(), events.end());
  double cdf = 0.0;
  double area = 0.0;
  for (std::size_t e = 0; e + 1 < events.size(); ++e) {
    cdf += events[e].second;
    area += std::abs(cdf) * (events[e + 1].first - events[e].first);
  }
  return area;
}

TEST(EmdTest, OneDimensionalBalancedPairsMatchTheCdfFormula) {
  // Random balanced 1-d pairs: ComputeEmd is the transportation solve, so it
  // equals ComputeEmdDetailed bitwise, and both equal the closed form.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t k = static_cast<std::size_t>(rng.UniformInt(1, 12));
      const std::size_t l = static_cast<std::size_t>(rng.UniformInt(1, 12));
      Signature a, b;
      for (std::size_t i = 0; i < k; ++i) {
        const double x = rng.Uniform(-10.0, 10.0);
        a.AddCenter(Point{x}, rng.Uniform(0.1, 2.0));
      }
      for (std::size_t j = 0; j < l; ++j) {
        const double x = rng.Uniform(-10.0, 10.0);
        b.AddCenter(Point{x}, rng.Uniform(0.1, 2.0));
      }
      a = a.Normalized();
      b = b.Normalized();
      for (GroundDistance ground :
           {GroundDistance::kEuclidean, GroundDistance::kManhattan}) {
        const double emd = ComputeEmd(a, b, ground).ValueOrDie();
        EXPECT_EQ(emd, ComputeEmdDetailed(a, b, ground).ValueOrDie().emd)
            << seed << "/" << trial;
        EXPECT_NEAR(emd, CdfDistance(a, b), 1e-8) << seed << "/" << trial;
      }
    }
  }
}

TEST(EmdTest, HandComputedAsymmetricWeights) {
  // Supplies: x=0 w=3, x=4 w=1. Demands: x=0 w=1, x=4 w=3.
  // Move 2 units from 0 to 4 (distance 4); 2 units stay => cost 8, flow 4.
  Signature a = Sig({{0.0}, {4.0}}, {3.0, 1.0});
  Signature b = Sig({{0.0}, {4.0}}, {1.0, 3.0});
  EXPECT_NEAR(ComputeEmd(a, b).ValueOrDie(), 8.0 / 4.0, 1e-12);
}

TEST(EmdTest, PartialMatchingUnequalTotals) {
  // Supply 2 at x=0; demands 1 at x=1 and 1 at x=10. Only min(2, 2) = 2 total
  // but make totals differ: supply 1 at x=0, demands 1 at x=1, 1 at x=10.
  // Flow = min(1, 2) = 1, all to the near demand => EMD = 1.
  Signature a = Sig({{0.0}}, {1.0});
  Signature b = Sig({{1.0}, {10.0}}, {1.0, 1.0});
  Result<EmdSolution> sol =
      ComputeEmdDetailed(a, b, GroundDistance::kEuclidean);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->total_flow, 1.0, 1e-12);
  EXPECT_NEAR(sol->emd, 1.0, 1e-12);
  EXPECT_NEAR(sol->flow(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(sol->flow(0, 1), 0.0, 1e-12);
}

TEST(EmdTest, FlowMatrixRespectsMarginals) {
  Signature a = Sig({{0.0}, {5.0}, {9.0}}, {2.0, 1.0, 1.5});
  Signature b = Sig({{1.0}, {6.0}}, {2.5, 2.0});
  Result<EmdSolution> sol =
      ComputeEmdDetailed(a, b, GroundDistance::kEuclidean);
  ASSERT_TRUE(sol.ok());
  // Row sums <= supply weights; column sums <= demand weights (Eqs. 9-10).
  for (std::size_t i = 0; i < a.size(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < b.size(); ++j) row += sol->flow(i, j);
    EXPECT_LE(row, a.weight(i) + 1e-9);
  }
  for (std::size_t j = 0; j < b.size(); ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) col += sol->flow(i, j);
    EXPECT_LE(col, b.weight(j) + 1e-9);
  }
  // Eq. 11: total flow = min of total weights.
  EXPECT_NEAR(sol->total_flow, 4.5, 1e-9);
}

TEST(EmdTest, SymmetricInArguments) {
  Signature a = Sig({{0.0, 0.0}, {2.0, 1.0}}, {1.0, 2.0});
  Signature b = Sig({{1.0, 1.0}, {3.0, 0.0}, {0.5, 2.0}}, {1.5, 1.0, 0.5});
  EXPECT_NEAR(ComputeEmd(a, b).ValueOrDie(), ComputeEmd(b, a).ValueOrDie(),
              1e-10);
}

TEST(EmdTest, ManhattanGroundDistance) {
  Signature a = Sig({{0.0, 0.0}}, {1.0});
  Signature b = Sig({{3.0, 4.0}}, {1.0});
  EXPECT_NEAR(ComputeEmd(a, b, GroundDistance::kManhattan).ValueOrDie(), 7.0,
              1e-12);
  EXPECT_NEAR(
      ComputeEmd(a, b, GroundDistance::kSquaredEuclidean).ValueOrDie(), 25.0,
      1e-12);
}

TEST(EmdTest, RejectsDimensionMismatch) {
  Signature a = Sig({{0.0}}, {1.0});
  Signature b = Sig({{0.0, 0.0}}, {1.0});
  EXPECT_FALSE(ComputeEmd(a, b).ok());
}

TEST(EmdTest, RejectsInvalidSignature) {
  Signature a = Sig({{0.0}}, {0.0});  // Zero weight.
  Signature b = Sig({{1.0}}, {1.0});
  EXPECT_FALSE(ComputeEmd(a, b).ok());
}

TEST(EmdTest, RejectsInfiniteWeights) {
  // An inf weight on both sides used to pass validation and come back as
  // OK(-nan) from the transportation solve.
  const double inf = std::numeric_limits<double>::infinity();
  Signature a = Sig({{0.0, 0.0}, {1.0, 0.0}}, {1.0, inf});
  Signature b = Sig({{0.0, 1.0}, {2.0, 2.0}}, {inf, 1.0});
  EXPECT_FALSE(ComputeEmd(a, b).ok());
  EXPECT_FALSE(ComputeEmdDetailed(a, b).ok());
  EXPECT_FALSE(EmdWorkspace().Compute(a, b, GroundDistance::kEuclidean).ok());
}

TEST(EmdTest, PairwiseMatrixIsSymmetricWithZeroDiagonal) {
  SignatureSet sigs;
  for (double x : {0.0, 2.0, 5.0}) {
    ASSERT_TRUE(sigs.Append(Sig({{x}}, {1.0})).ok());
  }
  Result<Matrix> m = PairwiseEmdMatrix(sigs);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ((*m)(0, 0), 0.0);
  EXPECT_NEAR((*m)(0, 1), 2.0, 1e-12);
  EXPECT_NEAR((*m)(1, 2), 3.0, 1e-12);
  EXPECT_NEAR((*m)(0, 2), 5.0, 1e-12);
  EXPECT_DOUBLE_EQ((*m)(2, 0), (*m)(0, 2));
}

// `count` random 2-d signatures of `k` centers each, in one set.
SignatureSet RandomSet(Rng* rng, std::size_t count, std::size_t k,
                       double x_shift) {
  SignatureSet set;
  for (std::size_t s = 0; s < count; ++s) {
    std::vector<Point> centers;
    std::vector<double> weights;
    for (std::size_t c = 0; c < k; ++c) {
      centers.push_back({rng->Uniform() * 4.0 + x_shift, rng->Uniform() * 4.0});
      weights.push_back(0.5 + rng->Uniform());
    }
    EXPECT_TRUE(set.Append(Sig(centers, std::move(weights))).ok());
  }
  return set;
}

void ExpectBitwiseEqual(const Matrix& want, const Matrix& got,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      EXPECT_EQ(got(i, j), want(i, j)) << what << " @ (" << i << ", " << j << ")";
    }
  }
}

constexpr std::size_t kPoolSizes[] = {0, 1, 2, 8};

TEST(EmdTest, ParallelPairwiseMatrixBitwiseEqualsSerial) {
  // The pooled fill must reproduce the serial matrix bit for bit for any
  // pool size, from sets with no pair at all to odd sizes whose row segments
  // are split across chunk boundaries.
  Rng rng(31);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{13}}) {
    const SignatureSet set = RandomSet(&rng, n, 3, 0.0);
    const Matrix serial = PairwiseEmdMatrix(set).ValueOrDie();
    for (std::size_t threads : kPoolSizes) {
      ThreadPool pool(threads);
      ExpectBitwiseEqual(
          serial,
          PairwiseEmdMatrix(set, GroundDistance::kEuclidean, &pool)
              .ValueOrDie(),
          "n=" + std::to_string(n) + ", " + std::to_string(threads) +
              " threads");
    }
  }
}

TEST(EmdTest, ParallelCrossDistanceMatrixBitwiseEqualsSerial) {
  // The pooled cross-distance fill (deterministic row chunking over
  // per-thread workspaces) must reproduce the serial matrix bit for bit for
  // any pool size, including ragged shapes that split unevenly across rows.
  Rng rng(47);
  const SignatureSet b = RandomSet(&rng, 11, 4, -2.0);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{13}}) {
    const SignatureSet a = RandomSet(&rng, n, 3, 0.0);
    const Matrix serial = CrossDistanceMatrix(a, b).ValueOrDie();
    for (std::size_t threads : kPoolSizes) {
      ThreadPool pool(threads);
      ExpectBitwiseEqual(
          serial,
          CrossDistanceMatrix(a, b, GroundDistance::kEuclidean, &pool)
              .ValueOrDie(),
          "n=" + std::to_string(n) + ", " + std::to_string(threads) +
              " threads");
    }
  }
}

TEST(EmdTest, PooledMatrixFillsReturnTheSerialError) {
  // Two bad members of 13: one with a non-finite center at index 2 and an
  // empty one at index 11. As rows of a cross-distance fill they fall in
  // different chunks at pool size 2 (rows [0, 5), [5, 9), [9, 13)), and
  // pairwise row 0 splits across chunks at pool size 8. Every fill must
  // fail with the serial call's error: the lowest failing pair's in
  // row-major order, here the non-finite cost of pair (0, 2).
  Rng rng(59);
  const SignatureSet good = RandomSet(&rng, 13, 3, 0.0);
  SignatureSet bad;
  for (std::size_t i = 0; i < good.size(); ++i) {
    if (i == 2) {
      Signature s = good.view(i).ToSignature();
      s.mutable_center(1)[0] = std::numeric_limits<double>::infinity();
      ASSERT_TRUE(bad.AppendUnchecked(s).ok());
    } else if (i == 11) {
      ASSERT_TRUE(bad.AppendUnchecked(SignatureView()).ok());
    } else {
      ASSERT_TRUE(bad.AppendUnchecked(good.view(i)).ok());
    }
  }
  const GroundDistance ground = GroundDistance::kEuclidean;
  const Status pairwise = PairwiseEmdMatrix(bad).status();
  const Status rows = CrossDistanceMatrix(bad, good).status();
  const Status cols = CrossDistanceMatrix(good, bad).status();
  for (const Status& serial : {pairwise, rows, cols}) {
    EXPECT_NE(serial.message().find("non-finite"), std::string::npos)
        << serial;
  }
  for (std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    EXPECT_EQ(PairwiseEmdMatrix(bad, ground, &pool).status().ToString(),
              pairwise.ToString())
        << threads << " threads";
    EXPECT_EQ(CrossDistanceMatrix(bad, good, ground, &pool).status().ToString(),
              rows.ToString())
        << threads << " threads";
    EXPECT_EQ(CrossDistanceMatrix(good, bad, ground, &pool).status().ToString(),
              cols.ToString())
        << threads << " threads";
  }
}

TEST(EmdTest, RubnerStyleExample) {
  // A classic small instance: supplies {(1,0):0.4, (0,1):0.6} vs demands
  // {(0,0):0.5, (1,1):0.5}. Optimal cost is 1.0 * (all unit distances):
  // every pairwise ground distance here is 1, so EMD = 1 regardless of flow.
  Signature a = Sig({{1.0, 0.0}, {0.0, 1.0}}, {0.4, 0.6});
  Signature b = Sig({{0.0, 0.0}, {1.0, 1.0}}, {0.5, 0.5});
  EXPECT_NEAR(ComputeEmd(a, b).ValueOrDie(), 1.0, 1e-9);
}

}  // namespace
}  // namespace bagcpd

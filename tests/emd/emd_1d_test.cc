#include "bagcpd/emd/emd_1d.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "bagcpd/common/rng.h"
#include "bagcpd/emd/approx/emd_solver.h"
#include "bagcpd/emd/emd.h"
#include "bagcpd/emd/transport_solver.h"

namespace bagcpd {
namespace {

Signature Sig1d(const std::vector<double>& positions,
                const std::vector<double>& weights) {
  Signature s;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    s.AddCenter(Point{positions[i]}, weights[i]);
  }
  return s;
}

// The general solver: ComputeEmdDetailed never takes the 1-d sweep.
double SolverEmd(const Signature& a, const Signature& b) {
  return ComputeEmdDetailed(a, b, GroundDistance::kEuclidean).ValueOrDie().emd;
}

TEST(Emd1dTest, ApplicabilityConditions) {
  Signature a = Sig1d({0.0, 1.0}, {1.0, 1.0});
  Signature b = Sig1d({2.0}, {2.0});
  EXPECT_TRUE(Emd1dApplicable(a, b));
  Signature unequal = Sig1d({2.0}, {3.0});
  EXPECT_FALSE(Emd1dApplicable(a, unequal));
  Signature twod = Signature::FromCenters({{0.0, 0.0}}, {2.0});
  EXPECT_FALSE(Emd1dApplicable(a, twod));
  EXPECT_FALSE(ComputeEmd1d(a, unequal).ok());
}

TEST(Emd1dTest, HandValues) {
  // Point masses: distance between them.
  EXPECT_NEAR(
      ComputeEmd1d(Sig1d({0.0}, {1.0}), Sig1d({3.5}, {1.0})).ValueOrDie(),
      3.5, 1e-12);
  // Two-to-one merge: both units travel 1.
  EXPECT_NEAR(ComputeEmd1d(Sig1d({0.0, 2.0}, {1.0, 1.0}),
                           Sig1d({1.0}, {2.0}))
                  .ValueOrDie(),
              1.0, 1e-12);
  // Identical signatures: zero.
  Signature s = Sig1d({0.0, 5.0}, {1.0, 2.0});
  EXPECT_NEAR(ComputeEmd1d(s, s).ValueOrDie(), 0.0, 1e-12);
}

TEST(Emd1dTest, UnsortedCentersHandled) {
  Signature a = Sig1d({5.0, 0.0, 2.0}, {1.0, 1.0, 1.0});
  Signature b = Sig1d({1.0, 6.0, 2.0}, {1.0, 1.0, 1.0});
  EXPECT_NEAR(ComputeEmd1d(a, b).ValueOrDie(), SolverEmd(a, b), 1e-9);
}

// Property: the sweep matches the min-cost-flow solver exactly on random
// balanced 1-d instances.
class Emd1dEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Emd1dEquivalenceTest, MatchesTransportationSolver) {
  Rng rng(GetParam());
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
    // Balance the totals.
    a = a.Normalized();
    b = b.Normalized();
    ASSERT_TRUE(Emd1dApplicable(a, b));
    EXPECT_NEAR(ComputeEmd1d(a, b).ValueOrDie(), SolverEmd(a, b), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Emd1dEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Emd1dTest, ComputeEmdDispatchesAutomatically) {
  // Normalized 1-d signatures: ComputeEmd must agree with the fast path
  // bit-for-bit (it IS the fast path) and with the solver numerically.
  Signature a = Sig1d({0.0, 1.0, 4.0}, {0.2, 0.3, 0.5});
  Signature b = Sig1d({2.0, 3.0}, {0.6, 0.4});
  const double via_dispatch = ComputeEmd(a, b).ValueOrDie();
  const double via_fast = ComputeEmd1d(a, b).ValueOrDie();
  EXPECT_DOUBLE_EQ(via_dispatch, via_fast);
  EXPECT_NEAR(via_dispatch, SolverEmd(a, b), 1e-9);
}

TEST(Emd1dTest, SquaredEuclideanStillUsesSolver) {
  // The fast path is only valid for |x - y|; squared ground distance must
  // fall through to the solver (values differ).
  Signature a = Sig1d({0.0, 4.0}, {0.5, 0.5});
  Signature b = Sig1d({1.0, 2.0}, {0.5, 0.5});
  const double abs_emd = ComputeEmd(a, b).ValueOrDie();
  const double sq_emd =
      ComputeEmd(a, b, GroundDistance::kSquaredEuclidean).ValueOrDie();
  EXPECT_NE(abs_emd, sq_emd);
}

TEST(Emd1dTest, TranslationInvariance) {
  Signature a = Sig1d({0.0, 1.0}, {0.5, 0.5});
  Signature b = Sig1d({2.0, 5.0}, {0.7, 0.3});
  const double before = ComputeEmd1d(a, b).ValueOrDie();
  for (std::size_t k = 0; k < a.size(); ++k) a.mutable_center(k)[0] += 100.0;
  for (std::size_t k = 0; k < b.size(); ++k) b.mutable_center(k)[0] += 100.0;
  EXPECT_NEAR(ComputeEmd1d(a, b).ValueOrDie(), before, 1e-9);
}

TEST(Emd1dTest, NonFiniteCentersFailLikeTheTransportSolve) {
  // A balanced 1-d pair with an inf or NaN center: the sweep must fail with
  // the transportation solve's error, never return inf or NaN as a value.
  const Signature b = Sig1d({1.0, 2.0}, {1.0, 1.0});
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    const Signature a = Sig1d({0.0, bad}, {1.0, 1.0});
    ASSERT_TRUE(Emd1dApplicable(a, b));
    const Status solve =
        EmdWorkspace().Compute(a, b, GroundDistance::kEuclidean).status();
    ASSERT_FALSE(solve.ok());
    for (const Status& got : {ComputeEmd1d(a, b).status(),
                              ComputeEmd(a, b).status(),
                              ComputeEmd(b, a).status()}) {
      EXPECT_FALSE(got.ok()) << bad;
      EXPECT_EQ(got.code(), solve.code()) << bad;
      EXPECT_EQ(got.message(), solve.message()) << bad;
    }
  }
}

TEST(Emd1dTest, OverflowingCostFailsInsteadOfReturningInf) {
  // Finite centers whose transport cost overflows a double.
  const Signature a = Sig1d({-1e308, 1e308}, {1.0, 1.0});
  const Signature b = Sig1d({0.0, 0.5}, {1.0, 1.0});
  ASSERT_TRUE(Emd1dApplicable(a, b));
  EXPECT_FALSE(ComputeEmd1d(a, b).ok());
  EXPECT_FALSE(ComputeEmd(a, b).ok());

  // A finite sweep cost whose Euclidean ground distance is not finite: the
  // transport fill squares each difference, 2e300^2 overflows, and the solve
  // rejects the pair. The sweep, ComputeEmd and the solver a detector scores
  // on must fail the same way; Manhattan squares nothing and solves it.
  const Signature wide = Sig1d({-1e300, 1e300}, {1.0, 1.0});
  ASSERT_TRUE(Emd1dApplicable(wide, b));
  const Status solve =
      ComputeEmdDetailed(wide, b, GroundDistance::kEuclidean).status();
  ASSERT_FALSE(solve.ok());
  EXPECT_NE(solve.message().find("non-finite"), std::string::npos) << solve;
  const SignatureView left(wide);
  double emd = -1.0;
  const Status detector_solve = EmdSolver().ComputeBatch(
      &left, 1, b, GroundDistance::kEuclidean, &emd);
  for (const Status& got :
       {ComputeEmd1d(wide, b).status(), ComputeEmd1d(b, wide).status(),
        ComputeEmd(wide, b).status(), ComputeEmd(b, wide).status(),
        detector_solve}) {
    EXPECT_EQ(got, solve);
  }
  const Result<double> manhattan =
      ComputeEmd(wide, b, GroundDistance::kManhattan);
  ASSERT_TRUE(manhattan.ok()) << manhattan.status();
  EXPECT_EQ(manhattan.ValueOrDie(),
            ComputeEmd1d(wide, b, GroundDistance::kManhattan).ValueOrDie());
}

}  // namespace
}  // namespace bagcpd

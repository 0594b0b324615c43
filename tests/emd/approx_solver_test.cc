// Approximate-EMD solver contract tests: convergence properties (sinkhorn ->
// exact as eps -> 0; sliced exact in d = 1 and Cauchy-stable in d > 1),
// bitwise parity of the SSE2 Sinkhorn kernel with a scalar reference (every
// shape up to 17 x 17, the error paths, armed fault drills, golden pins),
// degenerate instances, exact-kind bitwise parity with EmdWorkspace,
// zero-steady-state-allocation reuse, and end-to-end determinism of
// approximate detectors across pool sizes and engine shard counts.

#include "bagcpd/emd/approx/emd_solver.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/emd/approx/options.h"
#include "bagcpd/emd/approx/sinkhorn.h"
#include "bagcpd/emd/approx/sliced.h"
#include "bagcpd/emd/transport_solver.h"
#include "bagcpd/fault/fault_injector.h"
#include "bagcpd/runtime/stream_engine.h"
#include "bagcpd/runtime/thread_pool.h"
#include "bagcpd/signature/builder.h"

namespace bagcpd {
namespace {

Signature RandomNormalizedSignature(Rng* rng, std::size_t k, std::size_t dim) {
  Signature s;
  for (std::size_t i = 0; i < k; ++i) {
    Point c(dim);
    for (double& v : c) v = rng->Uniform(-5.0, 5.0);
    s.AddCenter(c, rng->Uniform(0.5, 3.0));
  }
  s.NormalizeInPlace();
  return s;
}

EmdSolverOptions SinkhornOptions(double eps, std::size_t iters = 2000,
                                 double tol = 1e-12) {
  EmdSolverOptions o;
  o.kind = EmdSolverKind::kSinkhorn;
  o.sinkhorn_eps = eps;
  o.sinkhorn_max_iters = iters;
  o.sinkhorn_tolerance = tol;
  return o;
}

EmdSolverOptions SlicedOptions(std::size_t n) {
  EmdSolverOptions o;
  o.kind = EmdSolverKind::kSliced;
  o.sliced_projections = n;
  return o;
}

TEST(SinkhornEmdTest, ConvergesToExactFromAboveAsEpsShrinks) {
  Rng rng(71);
  EmdSolver solver;
  double prev_mean_err = std::numeric_limits<double>::infinity();
  double first_mean_err = 0.0, last_mean_err = 0.0;
  const std::vector<double> eps_ladder = {0.8, 0.4, 0.2, 0.1, 0.05};
  for (std::size_t e = 0; e < eps_ladder.size(); ++e) {
    double mean_err = 0.0;
    Rng pair_rng(202);  // Same pairs at every eps.
    const int kPairs = 12;
    for (int p = 0; p < kPairs; ++p) {
      const Signature a = RandomNormalizedSignature(&pair_rng, 6, 2);
      const Signature b = RandomNormalizedSignature(&pair_rng, 5, 2);
      const double exact =
          solver.workspace()
              .Compute(a, b, GroundDistance::kSquaredEuclidean)
              .ValueOrDie();
      const double approx =
          solver
              .Compute(a, b, GroundDistance::kSquaredEuclidean,
                       SinkhornOptions(eps_ladder[e]))
              .ValueOrDie();
      // The entropic plan is a feasible transport plan, so its cost can dip
      // below exact only by the (tolerance-bounded) marginal violation.
      EXPECT_GE(approx, exact - 1e-6)
          << "pair " << p << " eps " << eps_ladder[e];
      mean_err += std::abs(approx - exact);
    }
    mean_err /= kPairs;
    if (e == 0) first_mean_err = mean_err;
    last_mean_err = mean_err;
    // Monotone improvement down the ladder (deterministic inputs).
    EXPECT_LE(mean_err, prev_mean_err + 1e-12) << "eps " << eps_ladder[e];
    prev_mean_err = mean_err;
  }
  // And the improvement is substantial, not vacuous.
  EXPECT_LT(last_mean_err, 0.25 * first_mean_err);
}

TEST(SinkhornEmdTest, RejectsUnderflowingEpsInsteadOfReturningNoise) {
  Rng rng(5);
  const Signature a = RandomNormalizedSignature(&rng, 4, 2);
  const Signature b = RandomNormalizedSignature(&rng, 4, 2);
  EmdSolver solver;
  Result<double> r = solver.Compute(a, b, GroundDistance::kSquaredEuclidean,
                                    SinkhornOptions(1e-6));
  ASSERT_FALSE(r.ok());
}

// --- Scalar reference: bitwise parity of the SSE2 scaling loop -----------

// How a reference solve ended.
enum class RefExit {
  kZeroCost,
  kTolerance,
  kCap,
  kFault,
  kKvUnderflow,
  kKtuUnderflow,
  kNonFinite,
};

// The fully scalar SinkhornEmd the row/column-pair kernel replaced, kept as
// the oracle: the same body with local buffers instead of SinkhornScratch,
// plus a report of how the solve ended. The production kernel must match its
// value bits, its Status text and the fault points it consults.
Result<double> ReferenceSinkhorn(const double* cost, std::size_t k,
                                 std::size_t l, const double* wa,
                                 const double* wb,
                                 const EmdSolverOptions& options,
                                 RefExit* exit) {
  constexpr double kUnderflowFloor = 1e-290;
  std::vector<double> kernel(k * l), p(k), q(l), u(k), v(l), kv(k), ktu(l);

  double total_a = 0.0;
  for (std::size_t i = 0; i < k; ++i) total_a += wa[i];
  double total_b = 0.0;
  for (std::size_t j = 0; j < l; ++j) total_b += wb[j];
  for (std::size_t i = 0; i < k; ++i) p[i] = wa[i] / total_a;
  for (std::size_t j = 0; j < l; ++j) q[j] = wb[j] / total_b;

  double cost_sum = 0.0;
  for (std::size_t e = 0; e < k * l; ++e) cost_sum += cost[e];
  const double mean_cost = cost_sum / static_cast<double>(k * l);
  if (mean_cost == 0.0) {
    *exit = RefExit::kZeroCost;
    return 0.0;
  }
  const double eps_abs = options.sinkhorn_eps * mean_cost;

  const double inv_eps = 1.0 / eps_abs;
  for (std::size_t e = 0; e < k * l; ++e) {
    kernel[e] = std::exp(-cost[e] * inv_eps);
  }

  for (std::size_t j = 0; j < l; ++j) v[j] = 1.0;

  *exit = RefExit::kCap;
  for (std::size_t iter = 0; iter < options.sinkhorn_max_iters; ++iter) {
    if (fault::FaultFires(fault::FaultPoint::kSinkhornIterate,
                          options.fault_scope, iter + 1)) {
      *exit = RefExit::kFault;
      return Status::Invalid(
          "fault-injected: sinkhorn.iterate (simulated scaling underflow)");
    }
    for (std::size_t i = 0; i < k; ++i) {
      const double* row = kernel.data() + i * l;
      double acc = 0.0;
      for (std::size_t j = 0; j < l; ++j) acc += row[j] * v[j];
      kv[i] = acc;
    }
    for (std::size_t i = 0; i < k; ++i) {
      if (!(kv[i] > kUnderflowFloor)) {
        *exit = RefExit::kKvUnderflow;
        return Status::Invalid(
            "sinkhorn scaling underflowed: eps is too small for the cost "
            "spread of this pair (increase sinkhorn eps)");
      }
      u[i] = p[i] / kv[i];
    }
    for (std::size_t j = 0; j < l; ++j) ktu[j] = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double* row = kernel.data() + i * l;
      const double ui = u[i];
      for (std::size_t j = 0; j < l; ++j) ktu[j] += row[j] * ui;
    }
    double err = 0.0;
    for (std::size_t j = 0; j < l; ++j) {
      err += std::abs(v[j] * ktu[j] - q[j]);
    }
    if (err <= options.sinkhorn_tolerance) {
      *exit = RefExit::kTolerance;
      break;
    }
    for (std::size_t j = 0; j < l; ++j) {
      if (!(ktu[j] > kUnderflowFloor)) {
        *exit = RefExit::kKtuUnderflow;
        return Status::Invalid(
            "sinkhorn scaling underflowed: eps is too small for the cost "
            "spread of this pair (increase sinkhorn eps)");
      }
      v[j] = q[j] / ktu[j];
    }
  }

  double transport = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double* krow = kernel.data() + i * l;
    const double* crow = cost + i * l;
    double acc = 0.0;
    for (std::size_t j = 0; j < l; ++j) acc += krow[j] * v[j] * crow[j];
    transport += u[i] * acc;
  }
  if (!std::isfinite(transport)) {
    *exit = RefExit::kNonFinite;
    return Status::Invalid(
        "sinkhorn transport cost is non-finite (eps too small for this "
        "pair)");
  }
  return transport;
}

std::uint64_t Bits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Same outcome bit for bit: both ok with equal value bits, or both failed
// with equal Status code and message.
void ExpectSameOutcome(const Result<double>& got, const Result<double>& want,
                       const std::string& where) {
  ASSERT_EQ(got.ok(), want.ok()) << where;
  if (want.ok()) {
    EXPECT_EQ(Bits(got.ValueOrDie()), Bits(want.ValueOrDie()))
        << where << ": " << got.ValueOrDie() << " vs " << want.ValueOrDie();
  } else {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << where;
  }
}

// One weighted pair and its prepared cost matrix.
struct PreparedPair {
  std::vector<double> cost;
  std::vector<double> wa, wb;
  std::size_t k = 0, l = 0;
};

PreparedPair Prepare(const Signature& a, const Signature& b,
                     GroundDistance ground) {
  EmdWorkspace workspace;
  EXPECT_TRUE(workspace.PrepareCost(a, b, ground).ok());
  PreparedPair pair;
  pair.k = workspace.cost_rows();
  pair.l = workspace.cost_cols();
  pair.cost.assign(workspace.cost_matrix(),
                   workspace.cost_matrix() + pair.k * pair.l);
  for (std::size_t i = 0; i < a.size(); ++i) pair.wa.push_back(a.weight(i));
  for (std::size_t j = 0; j < b.size(); ++j) pair.wb.push_back(b.weight(j));
  return pair;
}

PreparedPair FromCost(std::vector<double> cost, std::size_t k, std::size_t l) {
  PreparedPair pair;
  pair.cost = std::move(cost);
  pair.k = k;
  pair.l = l;
  for (std::size_t i = 0; i < k; ++i) pair.wa.push_back(1.0 + 0.25 * i);
  for (std::size_t j = 0; j < l; ++j) pair.wb.push_back(2.0 - 0.1 * j);
  return pair;
}

Result<double> Solve(const PreparedPair& pair, const EmdSolverOptions& options,
                     SinkhornScratch* scratch) {
  return SinkhornEmd(pair.cost.data(), pair.k, pair.l, pair.wa.data(),
                     pair.wb.data(), options, scratch);
}

Result<double> SolveReference(const PreparedPair& pair,
                              const EmdSolverOptions& options, RefExit* exit) {
  return ReferenceSinkhorn(pair.cost.data(), pair.k, pair.l, pair.wa.data(),
                           pair.wb.data(), options, exit);
}

TEST(SinkhornEmdTest, MatchesScalarReferenceBitwiseOnEveryShape) {
  // Every K, L in 1..17 (1 x 1, K != L, odd row and column tails) under
  // each eps and each iteration cap, twice over: 5,202 instances through one
  // reused scratch, so stale buffer contents would show.
  SinkhornScratch scratch;
  std::map<RefExit, int> exits;
  Rng rng(1517);
  int instances = 0;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t k = 1; k <= 17; ++k) {
      for (std::size_t l = 1; l <= 17; ++l) {
        const std::size_t dim = 1 + (k + l + round) % 3;
        const PreparedPair pair =
            Prepare(RandomNormalizedSignature(&rng, k, dim),
                    RandomNormalizedSignature(&rng, l, dim),
                    round == 0 ? GroundDistance::kSquaredEuclidean
                               : GroundDistance::kEuclidean);
        for (const double eps : {0.05, 0.1, 0.5}) {
          for (const std::size_t iters :
               {std::size_t{1}, std::size_t{2}, std::size_t{100}}) {
            const EmdSolverOptions o = SinkhornOptions(eps, iters, 1e-6);
            RefExit exit;
            const Result<double> want = SolveReference(pair, o, &exit);
            ++exits[exit];
            ++instances;
            ExpectSameOutcome(Solve(pair, o, &scratch), want,
                              std::to_string(k) + "x" + std::to_string(l) +
                                  " eps " + std::to_string(eps) + " iters " +
                                  std::to_string(iters));
          }
        }
      }
    }
  }
  EXPECT_EQ(instances, 5202);
  // Both loop exits are exercised, and nothing else happened.
  EXPECT_GT(exits[RefExit::kTolerance], 100);
  EXPECT_GT(exits[RefExit::kCap], 100);
  EXPECT_EQ(exits[RefExit::kTolerance] + exits[RefExit::kCap], instances);
  EXPECT_EQ(scratch.solve_count(), static_cast<std::uint64_t>(instances));
}

TEST(SinkhornEmdTest, ErrorPathsMatchScalarReference) {
  SinkhornScratch scratch;
  RefExit exit;

  // Whole rows of the kernel underflow on the first K v product.
  Rng rng(5);
  const PreparedPair sharp =
      Prepare(RandomNormalizedSignature(&rng, 5, 2),
              RandomNormalizedSignature(&rng, 3, 2),
              GroundDistance::kSquaredEuclidean);
  const EmdSolverOptions tiny_eps = SinkhornOptions(1e-6, 100, 1e-6);
  Result<double> want = SolveReference(sharp, tiny_eps, &exit);
  EXPECT_EQ(exit, RefExit::kKvUnderflow);
  ExpectSameOutcome(Solve(sharp, tiny_eps, &scratch), want, "kv underflow");

  // One far row or column, at every lane position: SSE2 pair lanes 0 and 1,
  // a leftover pair, the scalar tail. Its kernel entries are e^-700, about
  // 1e-304: below the floor but not zero, so a missed test would divide on
  // into finite values instead of failing. Every other entry is above 0.1. A
  // far row fails the first K v test; a far column keeps K v healthy, fails
  // the tolerance test, and only then fails the K^T u test.
  struct FarCase {
    std::size_t k, l;
    bool far_row;
    std::size_t far;
  };
  for (const FarCase& c : {FarCase{2, 3, true, 1}, FarCase{4, 3, true, 0},
                           FarCase{5, 4, true, 4}, FarCase{7, 5, true, 5},
                           FarCase{3, 2, false, 1}, FarCase{3, 9, false, 0},
                           FarCase{3, 9, false, 8}, FarCase{2, 11, false, 9}}) {
    std::vector<double> cost(c.k * c.l);
    double cost_sum = 0.0;
    for (std::size_t i = 0; i < c.k; ++i) {
      for (std::size_t j = 0; j < c.l; ++j) {
        const bool far = (c.far_row ? i : j) == c.far;
        cost[i * c.l + j] = far ? 1.0 : 1e-3 * (1 + (i + j) % 3);
        cost_sum += cost[i * c.l + j];
      }
    }
    const double mean = cost_sum / static_cast<double>(c.k * c.l);
    const EmdSolverOptions o =
        SinkhornOptions(1.0 / (700.0 * mean), 100, 1e-6);
    const PreparedPair pair = FromCost(cost, c.k, c.l);
    const std::string where = std::to_string(c.k) + "x" +
                              std::to_string(c.l) +
                              (c.far_row ? " row " : " column ") +
                              std::to_string(c.far);
    want = SolveReference(pair, o, &exit);
    EXPECT_EQ(exit, c.far_row ? RefExit::kKvUnderflow : RefExit::kKtuUnderflow)
        << where;
    ExpectSameOutcome(Solve(pair, o, &scratch), want, where);
  }

  // A pair whose every ground distance is zero costs nothing.
  const PreparedPair zero = FromCost(std::vector<double>(3 * 4, 0.0), 3, 4);
  const std::uint64_t solves_before = scratch.solve_count();
  want = SolveReference(zero, SinkhornOptions(0.1), &exit);
  EXPECT_EQ(exit, RefExit::kZeroCost);
  ExpectSameOutcome(Solve(zero, SinkhornOptions(0.1), &scratch), want,
                    "zero cost");
  EXPECT_EQ(scratch.solve_count(), solves_before + 1);
}

TEST(SinkhornEmdTest, ArmedIterateFaultMatchesScalarReference) {
  // A drill fires by iteration ordinal, so it fails exactly the solves that
  // run long enough; with `emd-fallback=exact` those retry exactly. The
  // solver must fail, fall back and count like the reference, and consult
  // the fault point the same number of times.
  Rng rng(3141);
  std::vector<Signature> as, bs;
  for (int p = 0; p < 40; ++p) {
    as.push_back(RandomNormalizedSignature(&rng, 1 + p % 9, 2));
    bs.push_back(RandomNormalizedSignature(&rng, 2 + p % 8, 2));
  }
  const GroundDistance ground = GroundDistance::kSquaredEuclidean;
  for (const std::string& spec :
       {std::string("sinkhorn.iterate:every-n:9"),
        std::string("sinkhorn.iterate:seeded-p:0.05:7")}) {
    for (const bool fallback : {false, true}) {
      // Per-pair scopes, as each stream of a detector carries its own.
      const auto options_for = [fallback](std::size_t p) {
        EmdSolverOptions o = SinkhornOptions(0.1, 100, 1e-6);
        o.fallback_exact = fallback;
        o.fault_scope = 0xfeed + p;
        return o;
      };
      const std::string where =
          spec + (fallback ? " with fallback" : " without fallback");

      // The reference, with the same fallback rule as EmdSolver::Compute.
      std::vector<Result<double>> want;
      EmdWorkspace ref_workspace;
      std::uint64_t ref_solves = 0, ref_fallbacks = 0, ref_fired = 0;
      std::map<RefExit, int> exits;
      {
        fault::ScopedFault armed(spec);
        ASSERT_TRUE(armed.status().ok());
        for (std::size_t p = 0; p < as.size(); ++p) {
          RefExit exit;
          Result<double> r =
              SolveReference(Prepare(as[p], bs[p], ground), options_for(p),
                             &exit);
          ++exits[exit];
          if (r.ok()) {
            ++ref_solves;
          } else if (fallback) {
            ++ref_fallbacks;
            r = ref_workspace.Compute(as[p], bs[p], ground);
          }
          want.push_back(std::move(r));
        }
        ref_fired = armed.fired();
      }
      EXPECT_GT(exits[RefExit::kFault], 0) << where;
      EXPECT_GT(exits[RefExit::kTolerance], 0) << where;

      EmdSolver solver;
      fault::ScopedFault armed(spec);
      ASSERT_TRUE(armed.status().ok());
      for (std::size_t p = 0; p < as.size(); ++p) {
        ExpectSameOutcome(
            solver.Compute(as[p], bs[p], ground, options_for(p)), want[p],
            where + " pair " + std::to_string(p));
      }
      EXPECT_EQ(armed.fired(), ref_fired) << where;
      EXPECT_EQ(solver.fallback_count(), ref_fallbacks) << where;
      EXPECT_EQ(solver.solve_count(), ref_solves + ref_workspace.solve_count())
          << where;
    }
  }
}

// Bit-exact pins of SinkhornEmd at default options, as %a hex literals,
// captured from the fully scalar kernel before the scaling loop moved to
// SSE2 row and column pairs. The 8 x 8 pairs are k-means signatures of
// 50-point bags, as on the detector path.
Signature KMeansSignature(const GaussianMixture& mix, std::size_t k,
                          std::uint64_t seed) {
  Rng rng(seed);
  SignatureBuilderOptions options;
  options.k = k;
  options.normalize = true;
  options.seed = seed;
  const FlatBag bag = FlatBag::FromBag(mix.SampleBag(50, &rng)).ValueOrDie();
  return SignatureBuilder(options).Build(bag, 0).ValueOrDie();
}

TEST(SinkhornEmdTest, GoldenValuesAreBitExact) {
  const GaussianMixture near = GaussianMixture::Isotropic({0.0, 0.0}, 1.0);
  const GaussianMixture far = GaussianMixture::Isotropic({0.8, 0.3}, 1.0);
  struct GoldenCase {
    const char* name;
    std::size_t ka;
    std::uint64_t seed_a;
    std::size_t kb;
    std::uint64_t seed_b;
    RefExit exit;
    double expected;
  };
  const GoldenCase cases[] = {
      {"8x8 tolerance", 8, 101, 8, 201, RefExit::kTolerance,
       0x1.4ec4f2ac9500ep+0},
      {"8x8 cap", 8, 144, 8, 244, RefExit::kCap, 0x1.cc233cd60c941p-1},
      {"7x9", 7, 79, 9, 97, RefExit::kTolerance, 0x1.6a984aa34dc8ep+0},
      {"1x5", 1, 15, 5, 51, RefExit::kTolerance, 0x1.49c0c06a8af33p+0},
  };
  EmdSolver solver;
  EmdSolverOptions o;
  o.kind = EmdSolverKind::kSinkhorn;  // eps 0.1, 100 iterations, tol 1e-6.
  for (const GoldenCase& c : cases) {
    const Signature a = KMeansSignature(near, c.ka, c.seed_a);
    const Signature b = KMeansSignature(far, c.kb, c.seed_b);
    ASSERT_EQ(a.size(), c.ka) << c.name;
    ASSERT_EQ(b.size(), c.kb) << c.name;
    RefExit exit;
    SolveReference(Prepare(a, b, GroundDistance::kEuclidean), o, &exit);
    EXPECT_EQ(exit, c.exit) << c.name;
    const double got =
        solver.Compute(a, b, GroundDistance::kEuclidean, o).ValueOrDie();
    char hex[64];
    std::snprintf(hex, sizeof(hex), "%a", got);
    EXPECT_EQ(Bits(got), Bits(c.expected)) << c.name << ": got " << hex;
  }
}

TEST(SlicedEmdTest, MatchesExactInOneDimension) {
  Rng rng(17);
  EmdSolver solver;
  for (int p = 0; p < 10; ++p) {
    const Signature a = RandomNormalizedSignature(&rng, 1 + p % 7, 1);
    const Signature b = RandomNormalizedSignature(&rng, 7 - p % 6, 1);
    const double exact =
        solver.workspace()
            .Compute(a, b, GroundDistance::kEuclidean)
            .ValueOrDie();
    for (std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      const double sliced =
          solver
              .Compute(a, b, GroundDistance::kEuclidean, SlicedOptions(n))
              .ValueOrDie();
      // In d = 1 every projection is +/-x, so any n recovers the exact 1-d
      // transport, up to accumulation order.
      EXPECT_NEAR(sliced, exact, 1e-9 * (1.0 + exact)) << "pair " << p;
    }
  }
}

TEST(SlicedEmdTest, LowerBoundsExactAndStabilizesInHigherDimensions) {
  Rng rng(29);
  EmdSolver solver;
  for (int p = 0; p < 8; ++p) {
    const Signature a = RandomNormalizedSignature(&rng, 6, 3);
    const Signature b = RandomNormalizedSignature(&rng, 6, 3);
    const double exact =
        solver.workspace()
            .Compute(a, b, GroundDistance::kEuclidean)
            .ValueOrDie();
    const double s8 =
        solver.Compute(a, b, GroundDistance::kEuclidean, SlicedOptions(8))
            .ValueOrDie();
    const double s64 =
        solver.Compute(a, b, GroundDistance::kEuclidean, SlicedOptions(64))
            .ValueOrDie();
    const double s256 =
        solver.Compute(a, b, GroundDistance::kEuclidean, SlicedOptions(256))
            .ValueOrDie();
    // Projection is 1-Lipschitz: every slice (and thus the average)
    // lower-bounds the Euclidean EMD.
    EXPECT_LE(s8, exact + 1e-9) << "pair " << p;
    EXPECT_LE(s64, exact + 1e-9) << "pair " << p;
    // Cauchy stabilization as n grows (NOT convergence to exact; see
    // sliced.h). The direction sets are nested prefixes, so the estimates
    // settle toward the n -> infinity sliced value.
    EXPECT_LT(std::abs(s256 - s64), std::abs(s256 - s8) + 1e-12)
        << "pair " << p;
  }
}

TEST(ApproxEmdTest, DegenerateInstances) {
  EmdSolver solver;
  // K = 1 vs K = 1, equal centers: all solvers report zero.
  const Signature point_a = Signature::FromFlat({1.0, 2.0}, 2, {1.0});
  const Signature point_b = Signature::FromFlat({1.0, 2.0}, 2, {1.0});
  for (const EmdSolverOptions& o :
       {SinkhornOptions(0.1), SlicedOptions(4), EmdSolverOptions{}}) {
    const double v =
        solver.Compute(point_a, point_b, GroundDistance::kEuclidean, o)
            .ValueOrDie();
    EXPECT_EQ(v, 0.0) << EmdSolverSpecString(o);
  }

  // K = 1 vs K = 1, distinct centers: the plan is forced, every solver
  // returns the ground distance.
  const Signature far_b = Signature::FromFlat({4.0, 6.0}, 2, {1.0});
  const double dist =
      solver.workspace()
          .Compute(point_a, far_b, GroundDistance::kEuclidean)
          .ValueOrDie();
  EXPECT_NEAR(solver
                  .Compute(point_a, far_b, GroundDistance::kEuclidean,
                           SinkhornOptions(0.1))
                  .ValueOrDie(),
              dist, 1e-9 * dist);
  EXPECT_NEAR(solver
                  .Compute(point_a, far_b, GroundDistance::kEuclidean,
                           SlicedOptions(16))
                  .ValueOrDie(),
              dist, 0.5 * dist);  // Sliced lower-bounds in d > 1.

  // Extreme mass ratios: both approximate solvers normalize to unit mass,
  // so scaling every weight by 1e6 (or 1e-6) must not move the value.
  Rng rng(13);
  const Signature a = RandomNormalizedSignature(&rng, 5, 2);
  const Signature b = RandomNormalizedSignature(&rng, 4, 2);
  for (const double scale : {1e6, 1e-6}) {
    Signature sa = a;
    Signature sb = b;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      sa.set_weight(i, sa.weight(i) * scale);
    }
    for (std::size_t i = 0; i < sb.size(); ++i) {
      sb.set_weight(i, sb.weight(i) * scale);
    }
    for (const EmdSolverOptions& o : {SinkhornOptions(0.1), SlicedOptions(8)}) {
      const double base =
          solver.Compute(a, b, GroundDistance::kSquaredEuclidean, o)
              .ValueOrDie();
      const double scaled =
          solver.Compute(sa, sb, GroundDistance::kSquaredEuclidean, o)
              .ValueOrDie();
      EXPECT_NEAR(scaled, base, 1e-9 * (1.0 + std::abs(base)))
          << EmdSolverSpecString(o) << " scale " << scale;
    }
  }
}

TEST(ApproxEmdTest, ExactKindIsBitwiseIdenticalToWorkspace) {
  Rng rng(47);
  EmdSolver solver;  // Default options: exact.
  EmdWorkspace workspace;
  for (int p = 0; p < 10; ++p) {
    const Signature a = RandomNormalizedSignature(&rng, 2 + p % 5, 3);
    const Signature b = RandomNormalizedSignature(&rng, 6 - p % 5, 3);
    for (const GroundDistance g :
         {GroundDistance::kSquaredEuclidean, GroundDistance::kEuclidean,
          GroundDistance::kManhattan}) {
      EXPECT_EQ(solver.Compute(a, b, g).ValueOrDie(),
                workspace.Compute(a, b, g).ValueOrDie());
    }
  }
}

TEST(ApproxEmdTest, DeterministicAcrossSolverInstancesAndZeroSteadyAllocs) {
  for (const EmdSolverOptions& o : {SinkhornOptions(0.1), SlicedOptions(16)}) {
    std::vector<double> first_pass;
    EmdSolver solver(o);
    Rng rng(99);
    std::vector<Signature> as, bs;
    for (int p = 0; p < 8; ++p) {
      as.push_back(RandomNormalizedSignature(&rng, 3 + p % 4, 2));
      bs.push_back(RandomNormalizedSignature(&rng, 6 - p % 4, 2));
    }
    for (int p = 0; p < 8; ++p) {
      first_pass.push_back(
          solver.Compute(as[p], bs[p], GroundDistance::kSquaredEuclidean)
              .ValueOrDie());
    }
    // Second pass over the same shapes: the allocation counter must freeze.
    const std::uint64_t allocs_after_peak = solver.allocation_count();
    for (int round = 0; round < 3; ++round) {
      for (int p = 0; p < 8; ++p) {
        EXPECT_EQ(
            solver.Compute(as[p], bs[p], GroundDistance::kSquaredEuclidean)
                .ValueOrDie(),
            first_pass[p])
            << EmdSolverSpecString(o);
      }
    }
    EXPECT_EQ(solver.allocation_count(), allocs_after_peak)
        << EmdSolverSpecString(o);

    // A fresh solver reproduces every value bitwise.
    EmdSolver fresh(o);
    for (int p = 0; p < 8; ++p) {
      EXPECT_EQ(fresh.Compute(as[p], bs[p], GroundDistance::kSquaredEuclidean)
                    .ValueOrDie(),
                first_pass[p])
          << EmdSolverSpecString(o);
    }
  }
}

// --- End-to-end determinism: pool sizes and shard counts ------------------

BagSequence ApproxJumpStream(std::size_t length, std::size_t jump_at,
                             std::uint64_t seed) {
  Rng rng(seed);
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 0.6);
  const GaussianMixture after = GaussianMixture::Isotropic({3.0, 3.0}, 0.6);
  BagSequence bags;
  for (std::size_t t = 0; t < length; ++t) {
    const GaussianMixture& mix =
        (jump_at != 0 && t >= jump_at) ? after : before;
    bags.push_back(mix.SampleBag(20, &rng));
  }
  return bags;
}

TEST(ApproxEmdTest, DetectorResultsAreBitwiseIdenticalForAnyPoolSize) {
  const BagSequence bags = ApproxJumpStream(16, 8, 616);
  for (const std::string& spec : {std::string("sinkhorn:0.1"),
                                  std::string("sliced:8")}) {
    DetectorOptions options;
    options.tau = 4;
    options.tau_prime = 4;
    options.bootstrap.replicates = 30;
    options.signature.k = 4;
    options.signature.normalize = true;
    options.seed = 11;
    options.emd = ParseEmdSolverSpec(spec).ValueOrDie();

    std::vector<StepResult> baseline;
    for (const std::size_t threads :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      auto detector = BagStreamDetector::Create(options).MoveValueUnsafe();
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) {
        pool = std::make_unique<ThreadPool>(threads);
        detector->set_thread_pool(pool.get());
      }
      const std::vector<StepResult> results =
          detector->Run(bags).ValueOrDie();
      if (baseline.empty()) {
        baseline = results;
        ASSERT_FALSE(baseline.empty());
        continue;
      }
      ASSERT_EQ(results.size(), baseline.size()) << spec;
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].time, baseline[i].time) << spec;
        EXPECT_EQ(results[i].score, baseline[i].score)
            << spec << " @ " << threads << " threads";
        EXPECT_EQ(results[i].ci_lo, baseline[i].ci_lo) << spec;
        EXPECT_EQ(results[i].ci_up, baseline[i].ci_up) << spec;
      }
    }
  }
}

TEST(ApproxEmdTest, EngineResultsAreBitwiseIdenticalForAnyShardCount) {
  std::map<std::string, BagSequence> streams;
  for (int s = 0; s < 4; ++s) {
    streams["stream-" + std::to_string(s)] =
        ApproxJumpStream(14, (s % 2 == 0) ? 7 : 0, 800 + s);
  }
  for (const std::string& spec : {std::string("sinkhorn:0.1"),
                                  std::string("sliced:8")}) {
    StreamEngineOptions base;
    base.detector.tau = 4;
    base.detector.tau_prime = 4;
    base.detector.bootstrap.replicates = 25;
    base.detector.signature.k = 4;
    base.detector.signature.normalize = true;
    base.detector.emd = ParseEmdSolverSpec(spec).ValueOrDie();
    base.seed = 77;

    std::map<std::string, std::vector<StepResult>> baseline;
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      StreamEngineOptions options = base;
      options.num_shards = shards;
      auto engine = StreamEngine::Create(options).MoveValueUnsafe();
      for (const auto& [key, bags] : streams) {
        for (const Bag& bag : bags) {
          ASSERT_TRUE(engine->Submit(key, bag).ok());
        }
      }
      engine->Flush();
      std::map<std::string, std::vector<StepResult>> grouped;
      for (const EngineEvent& event : engine->DrainEvents()) {
        if (event.kind == EngineEvent::Kind::kStep) {
          grouped[event.stream_id].push_back(event.step);
        }
      }
      if (baseline.empty()) {
        baseline = std::move(grouped);
        ASSERT_FALSE(baseline.empty());
        continue;
      }
      ASSERT_EQ(grouped.size(), baseline.size()) << spec;
      for (const auto& [key, series] : baseline) {
        const std::vector<StepResult>& got = grouped[key];
        ASSERT_EQ(got.size(), series.size()) << spec << " " << key;
        for (std::size_t i = 0; i < series.size(); ++i) {
          EXPECT_EQ(got[i].time, series[i].time) << spec << " " << key;
          EXPECT_EQ(got[i].score, series[i].score)
              << spec << " " << key << " @ " << shards << " shards";
          EXPECT_EQ(got[i].ci_lo, series[i].ci_lo) << spec << " " << key;
          EXPECT_EQ(got[i].ci_up, series[i].ci_up) << spec << " " << key;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bagcpd

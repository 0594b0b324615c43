// EmdWorkspace contract tests: bitwise agreement with the MinCostFlow
// reference on random balanced/unbalanced instances, on the paper's own
// k-means signatures and on tie-heavy grids (dense scan and heap alike, at
// every run shape of the relaxation kernel), zero-allocation
// workspace reuse across changing problem shapes, degenerate instances, and
// a detector-level regression pinning that the rolling score tables did not
// move a single per-step output.

#include "bagcpd/emd/transport_solver.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/core/scores.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/emd/approx/emd_solver.h"
#include "bagcpd/emd/approx/options.h"
#include "bagcpd/emd/emd.h"
#include "bagcpd/emd/min_cost_flow.h"
#include "bagcpd/signature/builder.h"

namespace bagcpd {
namespace {

Signature RandomSignature(Rng* rng, std::size_t k, std::size_t dim,
                          double weight_scale = 1.0) {
  Signature s;
  for (std::size_t i = 0; i < k; ++i) {
    Point c(dim);
    for (double& v : c) v = rng->Uniform(-5.0, 5.0);
    s.AddCenter(c, weight_scale * rng->Uniform(0.5, 3.0));
  }
  return s;
}

// The pre-workspace ComputeEmdDetailed, verbatim on MinCostFlow — the
// reference implementation the workspace must reproduce bit for bit.
EmdSolution ReferenceDetailed(SignatureView a, SignatureView b,
                              const GroundDistanceFn& ground) {
  const std::size_t k = a.size();
  const std::size_t l = b.size();
  const double total_flow = std::min(a.TotalWeight(), b.TotalWeight());
  const std::size_t source = 0;
  const std::size_t sink = k + l + 1;
  MinCostFlow network(k + l + 2);
  for (std::size_t i = 0; i < k; ++i) {
    network.AddArc(source, 1 + i, a.weight(i), 0.0);
  }
  std::vector<std::vector<int>> ids(k, std::vector<int>(l));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      ids[i][j] =
          network.AddArc(1 + i, 1 + k + j, std::min(a.weight(i), b.weight(j)),
                         ground(a.center(i), b.center(j)));
    }
  }
  for (std::size_t j = 0; j < l; ++j) {
    network.AddArc(1 + k + j, sink, b.weight(j), 0.0);
  }
  FlowSolution flow = network.Solve(source, sink, total_flow).ValueOrDie();
  EmdSolution out;
  out.total_flow = flow.flow;
  out.cost = flow.cost;
  out.flow = Matrix(k, l);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      out.flow(i, j) = network.FlowOn(ids[i][j]);
    }
  }
  out.emd = out.cost / out.total_flow;
  return out;
}

void ExpectBitwiseEqual(const EmdSolution& ref, const EmdSolution& ours,
                        const std::string& what) {
  EXPECT_EQ(ref.emd, ours.emd) << what;
  EXPECT_EQ(ref.cost, ours.cost) << what;
  EXPECT_EQ(ref.total_flow, ours.total_flow) << what;
  ASSERT_EQ(ref.flow.rows(), ours.flow.rows()) << what;
  ASSERT_EQ(ref.flow.cols(), ours.flow.cols()) << what;
  for (std::size_t i = 0; i < ref.flow.rows(); ++i) {
    for (std::size_t j = 0; j < ref.flow.cols(); ++j) {
      EXPECT_EQ(ref.flow(i, j), ours.flow(i, j))
          << what << " flow(" << i << ", " << j << ")";
    }
  }
}

TEST(TransportSolverTest, AgreesWithMinCostFlowBitwiseOnRandomInstances) {
  // Balanced-ish and wildly unbalanced (one side 16x the mass) random
  // instances across sizes, every ground distance, one shared workspace.
  Rng rng(101);
  const GroundDistanceFn euclid =
      MakeGroundDistance(GroundDistance::kEuclidean);
  EmdWorkspace workspace;
  for (const auto& [k, l] : std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 2}, {3, 7}, {8, 8}, {16, 5}, {12, 12}}) {
    for (const double scale : {1.0, 16.0}) {
      const Signature a = RandomSignature(&rng, k, 3);
      const Signature b = RandomSignature(&rng, l, 3, scale);
      const EmdSolution ref = ReferenceDetailed(a, b, euclid);
      const EmdSolution ours =
          workspace.ComputeDetailed(a, b, euclid).ValueOrDie();
      ExpectBitwiseEqual(ref, ours,
                         "k=" + std::to_string(k) + " l=" + std::to_string(l) +
                             " scale=" + std::to_string(scale));
      // The enum path must agree with the fn path (same kernel, batched).
      EXPECT_EQ(ours.emd,
                workspace.Compute(a, b, GroundDistance::kEuclidean)
                    .ValueOrDie());
      // And so must the public entry points (thread-local workspace). Skip
      // dim==1 would hit the sweep; these are 3-d so always the full solve.
      EXPECT_EQ(ours.emd, ComputeEmd(a, b).ValueOrDie());
      EXPECT_EQ(ours.emd, ComputeEmd(a, b, euclid).ValueOrDie());
    }
  }
  for (GroundDistance ground :
       {GroundDistance::kSquaredEuclidean, GroundDistance::kManhattan}) {
    const Signature a = RandomSignature(&rng, 6, 2);
    const Signature b = RandomSignature(&rng, 9, 2);
    const EmdSolution ref =
        ReferenceDetailed(a, b, MakeGroundDistance(ground));
    EXPECT_EQ(ref.emd, workspace.Compute(a, b, ground).ValueOrDie())
        << GroundDistanceName(ground);
  }
}

TEST(TransportSolverTest, WorkspaceReuseAcrossGrowingAndShrinkingShapes) {
  Rng rng(202);
  const GroundDistanceFn euclid =
      MakeGroundDistance(GroundDistance::kEuclidean);
  EmdWorkspace workspace;
  // Grow, shrink, regrow: every solve must agree with a fresh reference, and
  // once the largest shape has been seen, the growth counter must freeze.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {2, 5}, {8, 8}, {3, 2}, {16, 11}, {1, 16}, {16, 16}, {2, 2}, {16, 16}};
  for (const auto& [k, l] : shapes) {
    const Signature a = RandomSignature(&rng, k, 2);
    const Signature b = RandomSignature(&rng, l, 2);
    const EmdSolution ref = ReferenceDetailed(a, b, euclid);
    EXPECT_EQ(ref.emd, workspace.Compute(a, b, euclid).ValueOrDie())
        << "k=" << k << " l=" << l;
  }
  const std::uint64_t allocs_after_peak = workspace.allocation_count();
  const std::uint64_t solves_before = workspace.solve_count();
  // Every shape fits in the grown buffers now: zero further allocations.
  for (const auto& [k, l] : shapes) {
    const Signature a = RandomSignature(&rng, k, 2);
    const Signature b = RandomSignature(&rng, l, 2);
    const EmdSolution ref = ReferenceDetailed(a, b, euclid);
    EXPECT_EQ(ref.emd,
              workspace.Compute(a, b, GroundDistance::kEuclidean)
                  .ValueOrDie());
  }
  EXPECT_EQ(workspace.allocation_count(), allocs_after_peak)
      << "steady-state solves must not grow the workspace";
  EXPECT_EQ(workspace.solve_count(), solves_before + shapes.size());
}

TEST(TransportSolverTest, DegenerateInstances) {
  const GroundDistanceFn euclid =
      MakeGroundDistance(GroundDistance::kEuclidean);
  EmdWorkspace workspace;

  // K = 1 vs L = 1: the distance between the centers, any weights.
  Signature a = Signature::FromCenters({{0.0, 0.0}}, {5.0});
  Signature b = Signature::FromCenters({{3.0, 4.0}}, {0.5});
  EXPECT_EQ(workspace.Compute(a, b, euclid).ValueOrDie(),
            ReferenceDetailed(a, b, euclid).emd);
  EXPECT_NEAR(workspace.Compute(a, b, euclid).ValueOrDie(), 5.0, 1e-12);

  // K = 1 vs L = 3 (and transposed).
  Signature c = Signature::FromCenters({{1.0, 0.0}, {9.0, 9.0}, {0.0, 1.0}},
                                       {1.0, 1.0, 1.0});
  EXPECT_EQ(workspace.Compute(a, c, euclid).ValueOrDie(),
            ReferenceDetailed(a, c, euclid).emd);
  EXPECT_EQ(workspace.Compute(c, a, euclid).ValueOrDie(),
            ReferenceDetailed(c, a, euclid).emd);

  // Equal centers on both sides: zero distance, flow along zero-cost arcs.
  Signature d = Signature::FromCenters({{1.0}, {2.0}}, {1.0, 3.0});
  Signature e = Signature::FromCenters({{1.0}, {2.0}}, {3.0, 1.0});
  const EmdSolution ref = ReferenceDetailed(d, e, euclid);
  const EmdSolution ours = workspace.ComputeDetailed(d, e, euclid).ValueOrDie();
  ExpectBitwiseEqual(ref, ours, "equal centers");

  // Extreme mass ratio (partial matching moves only the small side's mass).
  Signature tiny = Signature::FromCenters({{0.0}}, {1e-6});
  Signature huge = Signature::FromCenters({{2.0}, {4.0}}, {1e6, 1e6});
  const EmdSolution ref2 = ReferenceDetailed(tiny, huge, euclid);
  const EmdSolution ours2 =
      workspace.ComputeDetailed(tiny, huge, euclid).ValueOrDie();
  ExpectBitwiseEqual(ref2, ours2, "mass ratio");
  EXPECT_NEAR(ours2.total_flow, 1e-6, 1e-18);
}

TEST(TransportSolverTest, RejectsTheSameInstancesAsTheReferencePath) {
  EmdWorkspace workspace;
  Signature a = Signature::FromCenters({{0.0}}, {1.0});
  Signature b2d = Signature::FromCenters({{0.0, 0.0}}, {1.0});
  EXPECT_FALSE(workspace.Compute(a, b2d, GroundDistance::kEuclidean).ok());

  Signature zero_weight = Signature::FromCenters({{0.0}}, {0.0});
  EXPECT_FALSE(
      workspace.Compute(zero_weight, a, GroundDistance::kEuclidean).ok());
  EXPECT_FALSE(workspace.Compute(Signature(), a, GroundDistance::kEuclidean)
                   .ok());

  Signature c = Signature::FromCenters({{1.0}}, {1.0});
  GroundDistanceFn negative = [](PointView, PointView) { return -1.0; };
  EXPECT_FALSE(workspace.Compute(a, c, negative).ok());
  GroundDistanceFn non_finite = [](PointView, PointView) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  EXPECT_FALSE(workspace.Compute(a, c, non_finite).ok());
  // A failed solve must not poison the workspace for the next one.
  EXPECT_EQ(workspace.Compute(a, c, GroundDistance::kEuclidean).ValueOrDie(),
            1.0);
}

TEST(TransportSolverTest, DetectorStepsIdenticalToFirstPrinciplesRebuild) {
  // Detector-level regression for the rolling score tables: every per-step
  // score must equal one recomputed from scratch — signatures rebuilt
  // deterministically, every window EMD solved fresh, the three log tables
  // assembled directly, ComputeScore called on them. Any drift in the
  // rolling table's contents or block extraction shows up here.
  DetectorOptions options;
  options.tau = 4;
  options.tau_prime = 3;
  options.bootstrap.replicates = 0;  // Scores only: no RNG coupling.
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 4;
  options.seed = 9;

  Rng rng(404);
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 0.6);
  const GaussianMixture after = GaussianMixture::Isotropic({3.0, 3.0}, 0.6);
  BagSequence bags;
  for (std::size_t t = 0; t < 22; ++t) {
    bags.push_back((t < 11 ? before : after).SampleBag(18, &rng));
  }

  auto detector = BagStreamDetector::Create(options).MoveValueUnsafe();
  const std::vector<StepResult> steps = detector->Run(bags).ValueOrDie();
  ASSERT_EQ(steps.size(),
            bags.size() - (options.tau + options.tau_prime) + 1);

  // Rebuild the signatures exactly as the detector does (same builder
  // options, same per-index build), then score each inspection point from
  // first principles.
  SignatureBuilder builder(options.signature);
  std::vector<Signature> sigs;
  for (std::size_t t = 0; t < bags.size(); ++t) {
    const FlatBag bag = FlatBag::FromBag(bags[t]).ValueOrDie();
    sigs.push_back(builder.Build(bag, t).ValueOrDie());
  }
  EmdWorkspace workspace;
  const std::vector<double> pi_ref(
      options.tau, 1.0 / static_cast<double>(options.tau));
  const std::vector<double> pi_test(
      options.tau_prime, 1.0 / static_cast<double>(options.tau_prime));
  const double floor = options.info.distance_floor;
  auto log_emd = [&](std::size_t i, std::size_t j) {
    const double d =
        workspace.Compute(sigs[i], sigs[j], options.ground).ValueOrDie();
    return std::log(std::max(d, floor));
  };
  for (const StepResult& step : steps) {
    const std::size_t t = static_cast<std::size_t>(step.time);
    ScoreContext ctx;
    ctx.info = options.info;
    ctx.log_ref_ref = Matrix(options.tau, options.tau, 0.0);
    ctx.log_test_test = Matrix(options.tau_prime, options.tau_prime, 0.0);
    ctx.log_ref_test = Matrix(options.tau, options.tau_prime, 0.0);
    const std::size_t ref_start = t - options.tau;
    for (std::size_t i = 0; i < options.tau; ++i) {
      for (std::size_t j = i + 1; j < options.tau; ++j) {
        const double v = log_emd(ref_start + i, ref_start + j);
        ctx.log_ref_ref(i, j) = v;
        ctx.log_ref_ref(j, i) = v;
      }
    }
    for (std::size_t i = 0; i < options.tau_prime; ++i) {
      for (std::size_t j = i + 1; j < options.tau_prime; ++j) {
        const double v = log_emd(t + i, t + j);
        ctx.log_test_test(i, j) = v;
        ctx.log_test_test(j, i) = v;
      }
    }
    for (std::size_t i = 0; i < options.tau; ++i) {
      for (std::size_t j = 0; j < options.tau_prime; ++j) {
        ctx.log_ref_test(i, j) = log_emd(ref_start + i, t + j);
      }
    }
    const double expected =
        ComputeScore(options.score_type, ctx, pi_ref, pi_test).ValueOrDie();
    EXPECT_EQ(step.score, expected) << "inspection time " << t;
  }
}

TEST(TransportSolverTest, AllocationCounterFreezesOnRepeatedShapes) {
  // Regression pin for the zero-steady-state-allocation contract: after one
  // warm-up pass over a set of problem shapes, replaying those shapes (in any
  // order, any number of times) must not move allocation_count() at all.
  Rng rng(1234);
  std::vector<std::pair<Signature, Signature>> pairs;
  for (const std::size_t k : {std::size_t{2}, std::size_t{7}, std::size_t{16}}) {
    pairs.emplace_back(RandomSignature(&rng, k, 3),
                       RandomSignature(&rng, 17 - k, 3));
  }
  EmdWorkspace workspace;
  std::vector<double> warm;
  for (const auto& [a, b] : pairs) {
    warm.push_back(
        workspace.Compute(a, b, GroundDistance::kSquaredEuclidean)
            .ValueOrDie());
  }
  const std::uint64_t pinned = workspace.allocation_count();
  for (int round = 0; round < 4; ++round) {
    for (std::size_t p = pairs.size(); p-- > 0;) {  // Reverse order too.
      EXPECT_EQ(workspace
                    .Compute(pairs[p].first, pairs[p].second,
                             GroundDistance::kSquaredEuclidean)
                    .ValueOrDie(),
                warm[p]);
    }
  }
  EXPECT_EQ(workspace.allocation_count(), pinned);
}

TEST(TransportSolverTest, RetainedByteCeilingPolicy) {
  Rng rng(555);
  const Signature a = RandomSignature(&rng, 32, 3);
  const Signature b = RandomSignature(&rng, 32, 3);
  EmdWorkspace workspace;
  const double value =
      workspace.Compute(a, b, GroundDistance::kEuclidean).ValueOrDie();
  const std::size_t footprint = workspace.retained_bytes();
  ASSERT_GT(footprint, 0u);

  // Default ceiling 0 = never shrink.
  EXPECT_EQ(workspace.retained_byte_ceiling(), 0u);
  workspace.ShrinkToCeiling();
  EXPECT_EQ(workspace.retained_bytes(), footprint);

  // A ceiling at or above the footprint is also a no-op.
  workspace.set_retained_byte_ceiling(footprint);
  workspace.ShrinkToCeiling();
  EXPECT_EQ(workspace.retained_bytes(), footprint);

  // Below the footprint, ALL scratch is released (no partial trim — the
  // buffers are one working set), and the next solve regrows to the same
  // value with the growth visible in allocation_count().
  workspace.set_retained_byte_ceiling(footprint - 1);
  workspace.ShrinkToCeiling();
  EXPECT_EQ(workspace.retained_bytes(), 0u);
  const std::uint64_t allocs = workspace.allocation_count();
  EXPECT_EQ(workspace.Compute(a, b, GroundDistance::kEuclidean).ValueOrDie(),
            value);
  EXPECT_GT(workspace.allocation_count(), allocs);
  EXPECT_EQ(workspace.retained_bytes(), footprint);
}

TEST(TransportSolverTest, HeapDijkstraMatchesDenseBitwise) {
  // The 4-ary-heap Dijkstra (forced via threshold 1) against the dense scan
  // (threshold 0): every augmentation must pop the same (dist, node)
  // sequence, so EMD, cost, total flow, AND the full flow matrix must agree
  // to the last bit on balanced, unbalanced, and rectangular instances
  // (K = 70 spans two words of the heap path's live-arc bitmask).
  Rng rng(808);
  const GroundDistanceFn euclid =
      MakeGroundDistance(GroundDistance::kEuclidean);
  EmdWorkspace dense;
  dense.set_heap_threshold(0);
  EmdWorkspace heap;
  heap.set_heap_threshold(1);
  for (const auto& [k, l] : std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 2}, {3, 7}, {16, 5}, {24, 24}, {40, 17}, {33, 64}, {70, 66}}) {
    for (const double scale : {1.0, 16.0}) {
      const Signature a = RandomSignature(&rng, k, 3);
      const Signature b = RandomSignature(&rng, l, 3, scale);
      const EmdSolution d = dense.ComputeDetailed(a, b, euclid).ValueOrDie();
      const EmdSolution h = heap.ComputeDetailed(a, b, euclid).ValueOrDie();
      ExpectBitwiseEqual(d, h,
                         "k=" + std::to_string(k) + " l=" + std::to_string(l) +
                             " scale=" + std::to_string(scale));
    }
  }
}

// Solves a vs b with the dense scan forced (heap_at = 0) and with the heap
// forced (heap_at = 1), each on a fresh workspace, through the enum-dispatched
// hot path, and pins both to the MinCostFlow reference bit for bit.
void ExpectBothStrategiesMatchReference(SignatureView a, SignatureView b,
                                        GroundDistance ground,
                                        const std::string& what) {
  const EmdSolution ref = ReferenceDetailed(a, b, MakeGroundDistance(ground));
  for (const std::size_t heap_at : {std::size_t{0}, std::size_t{1}}) {
    EmdWorkspace workspace;
    workspace.set_heap_threshold(heap_at);
    ExpectBitwiseEqual(ref,
                       workspace.ComputeDetailed(a, b, ground).ValueOrDie(),
                       what + " heap_at=" + std::to_string(heap_at));
  }
}

// The run shapes of the relaxation kernel: every node's arcs form runs of
// length K, L and 1, so these cover empty, single-arc, odd and even runs.
const std::vector<std::pair<std::size_t, std::size_t>>& KernelShapes() {
  static const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {1, 9}, {9, 1}, {7, 3}, {8, 8}, {15, 16}};
  return shapes;
}

TEST(TransportSolverTest, PaperRegimeSignaturesMatchReferenceBitwise) {
  // The detector's own inputs: k-means signatures of 50-point 2-d bags. With
  // raw integer count weights both sides carry mass 50, so the transport is
  // balanced and degenerate: augmentations saturate several arcs at once and
  // leave many residual arcs at exactly zero capacity, which the kernel must
  // skip exactly as the reference does. Normalized weights give the
  // mass-1 variant.
  Rng rng(2016);
  for (const auto& [k, l] : KernelShapes()) {
    for (const bool normalize : {false, true}) {
      for (std::uint64_t trial = 0; trial < 4; ++trial) {
        SignatureBuilderOptions options;
        options.normalize = normalize;
        options.seed = 31;
        options.k = k;
        const GaussianMixture ref_bags =
            GaussianMixture::Isotropic({0.0, 0.0}, 1.0);
        const FlatBag ref_bag =
            FlatBag::FromBag(ref_bags.SampleBag(50, &rng)).ValueOrDie();
        const Signature a =
            SignatureBuilder(options).Build(ref_bag, trial).ValueOrDie();
        options.k = l;
        const GaussianMixture test_bags = GaussianMixture::Isotropic(
            {0.5 * static_cast<double>(trial), 0.0}, 1.0);
        const FlatBag test_bag =
            FlatBag::FromBag(test_bags.SampleBag(50, &rng)).ValueOrDie();
        const Signature b =
            SignatureBuilder(options).Build(test_bag, 100 + trial).ValueOrDie();
        ASSERT_EQ(a.size(), k);
        ASSERT_EQ(b.size(), l);
        if (!normalize) {
          ASSERT_EQ(a.TotalWeight(), 50.0);
          ASSERT_EQ(b.TotalWeight(), 50.0);
        }
        ExpectBothStrategiesMatchReference(
            a, b, GroundDistance::kEuclidean,
            "k=" + std::to_string(k) + " l=" + std::to_string(l) +
                " normalize=" + std::to_string(normalize) +
                " trial=" + std::to_string(trial));
      }
    }
  }
}

TEST(TransportSolverTest, HeapDijkstraMatchesDenseOnTieHeavyInstances) {
  // Centers drawn from a tiny integer grid under Manhattan distance: most
  // arcs share one of a handful of exact costs, so Dijkstra hits equal-dist
  // ties on nearly every pop. The dense scan resolves them lowest-index-
  // first (strict < over the linear sweep); the heap's (dist, node) keys
  // must reproduce that order exactly, or some flow lands on a different
  // equal-cost arc and the flow matrix diverges. Unit and small integer
  // weights make augmentations tie on their bottlenecks too. Both
  // strategies are pinned to the reference, at every kernel run shape and
  // at sizes where the heap has several levels.
  Rng rng(818);
  auto grid_signature = [&rng](std::size_t n, bool unit_weights) {
    Signature s;
    for (std::size_t i = 0; i < n; ++i) {
      Point c(2);
      for (double& v : c) v = std::floor(rng.Uniform(0.0, 3.0));  // {0,1,2}
      const double weight =
          unit_weights ? 1.0 : std::floor(rng.Uniform(1.0, 4.0));  // {1,2,3}
      s.AddCenter(c, weight);
    }
    return s;
  };
  std::vector<std::pair<std::size_t, std::size_t>> shapes = KernelShapes();
  for (const std::size_t n :
       {std::size_t{4}, std::size_t{12}, std::size_t{30}}) {
    shapes.emplace_back(n, n + 3);
  }
  for (const auto& [k, l] : shapes) {
    for (const bool unit_weights : {true, false}) {
      for (int trial = 0; trial < 3; ++trial) {
        const Signature a = grid_signature(k, unit_weights);
        const Signature b = grid_signature(l, unit_weights);
        ExpectBothStrategiesMatchReference(
            a, b, GroundDistance::kManhattan,
            "tie-heavy k=" + std::to_string(k) + " l=" + std::to_string(l) +
                " unit_weights=" + std::to_string(unit_weights) +
                " trial=" + std::to_string(trial));
      }
    }
  }
}

TEST(TransportSolverTest, HeapPathAllocationCounterFreezes) {
  // The heap arrays are part of the workspace working set: after one warm-up
  // solve per shape on the forced-heap path, replaying the shapes must not
  // move allocation_count() at all.
  Rng rng(828);
  std::vector<std::pair<Signature, Signature>> pairs;
  for (const std::size_t k :
       {std::size_t{3}, std::size_t{11}, std::size_t{26}}) {
    pairs.emplace_back(RandomSignature(&rng, k, 2),
                       RandomSignature(&rng, 29 - k, 2));
  }
  EmdWorkspace workspace;
  workspace.set_heap_threshold(1);  // Every solve through the heap.
  std::vector<double> warm;
  for (const auto& [a, b] : pairs) {
    warm.push_back(
        workspace.Compute(a, b, GroundDistance::kEuclidean).ValueOrDie());
  }
  const std::uint64_t pinned = workspace.allocation_count();
  for (int round = 0; round < 4; ++round) {
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_EQ(workspace
                    .Compute(pairs[p].first, pairs[p].second,
                             GroundDistance::kEuclidean)
                    .ValueOrDie(),
                warm[p]);
    }
  }
  EXPECT_EQ(workspace.allocation_count(), pinned);
}

TEST(TransportSolverTest, ComputeBatchMatchesPerPairBitwise) {
  // Both batch forms against the per-pair loop, on every ground distance.
  Rng rng(838);
  EmdWorkspace workspace;
  EmdWorkspace reference;
  for (const GroundDistance ground :
       {GroundDistance::kEuclidean, GroundDistance::kSquaredEuclidean,
        GroundDistance::kManhattan}) {
    // Varying shapes on both sides: every (a, b) pair of the two stores.
    std::vector<Signature> a_store;
    std::vector<Signature> b_store;
    for (const std::size_t k :
         {std::size_t{2}, std::size_t{5}, std::size_t{9}, std::size_t{17}}) {
      a_store.push_back(RandomSignature(&rng, k, 2));
      b_store.push_back(RandomSignature(&rng, 19 - k, 2, 4.0));
    }
    std::vector<SignatureView> as(a_store.begin(), a_store.end());
    std::vector<SignatureView> bs(b_store.begin(), b_store.end());
    std::vector<double> batch(as.size());
    for (const SignatureView& b : bs) {
      ASSERT_TRUE(
          workspace.ComputeBatch(as.data(), as.size(), b, ground, batch.data())
              .ok());
      for (std::size_t p = 0; p < as.size(); ++p) {
        EXPECT_EQ(batch[p], reference.Compute(as[p], b, ground).ValueOrDie())
            << "varying shapes p=" << p << " L=" << b.size();
      }
    }

    // Shared left: one row of a cross-distance matrix.
    const Signature shared = RandomSignature(&rng, 7, 2);
    ASSERT_TRUE(workspace
                    .ComputeBatch(SignatureView(shared), bs.data(), bs.size(),
                                  ground, batch.data())
                    .ok());
    for (std::size_t p = 0; p < bs.size(); ++p) {
      EXPECT_EQ(batch[p],
                reference.Compute(shared, bs[p], ground).ValueOrDie())
          << "shared-left p=" << p;
    }

    // Shared right: the detector's rolling-step shape (olders vs newest).
    ASSERT_TRUE(workspace
                    .ComputeBatch(as.data(), as.size(), SignatureView(shared),
                                  ground, batch.data())
                    .ok());
    for (std::size_t p = 0; p < as.size(); ++p) {
      EXPECT_EQ(batch[p],
                reference.Compute(as[p], shared, ground).ValueOrDie())
          << "shared-right p=" << p;
    }
  }
}

TEST(TransportSolverTest, ComputeBatchSteadyStateAllocationsFreeze) {
  // After one warm batch per shape, replaying the same batches (and their
  // per-pair equivalents) must not grow the workspace: the flat cost block
  // and offset table are sized once to the largest batch.
  Rng rng(848);
  const Signature newest = RandomSignature(&rng, 12, 2);
  std::vector<Signature> older_store;
  for (std::size_t p = 0; p < 9; ++p) {
    older_store.push_back(RandomSignature(&rng, 12, 2));
  }
  std::vector<SignatureView> olders(older_store.begin(), older_store.end());
  std::vector<double> out(olders.size());
  EmdWorkspace workspace;
  ASSERT_TRUE(workspace
                  .ComputeBatch(olders.data(), olders.size(),
                                SignatureView(newest),
                                GroundDistance::kEuclidean, out.data())
                  .ok());
  const std::vector<double> warm = out;
  const std::uint64_t pinned = workspace.allocation_count();
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(workspace
                    .ComputeBatch(olders.data(), olders.size(),
                                  SignatureView(newest),
                                  GroundDistance::kEuclidean, out.data())
                    .ok());
    EXPECT_EQ(out, warm);
  }
  EXPECT_EQ(workspace.allocation_count(), pinned);
}

TEST(TransportSolverTest, ComputeBatchErrorCases) {
  Rng rng(858);
  EmdWorkspace workspace;
  const Signature good = RandomSignature(&rng, 4, 2);
  const Signature also_good = RandomSignature(&rng, 3, 2);
  const Signature wrong_dim = RandomSignature(&rng, 4, 3);
  const Signature empty;

  // An empty batch is a no-op success.
  EXPECT_TRUE(workspace
                  .ComputeBatch(nullptr, 0, SignatureView(good),
                                GroundDistance::kEuclidean, nullptr)
                  .ok());

  // A bad pair anywhere in the span fails the batch: dimension mismatch and
  // empty signature.
  std::vector<SignatureView> as = {good, good, wrong_dim};
  std::vector<double> out(as.size(), -1.0);
  EXPECT_FALSE(workspace
                   .ComputeBatch(as.data(), as.size(), SignatureView(also_good),
                                 GroundDistance::kEuclidean, out.data())
                   .ok());
  std::vector<SignatureView> with_empty = {good, empty};
  EXPECT_FALSE(workspace
                   .ComputeBatch(with_empty.data(), 2, SignatureView(good),
                                 GroundDistance::kEuclidean, out.data())
                   .ok());
  // A failed batch must not poison the workspace.
  EXPECT_EQ(workspace.Compute(good, also_good, GroundDistance::kEuclidean)
                .ValueOrDie(),
            EmdWorkspace()
                .Compute(good, also_good, GroundDistance::kEuclidean)
                .ValueOrDie());
}

TEST(TransportSolverTest, ComputeBatchSurfacesThePerPairLoopsFirstError) {
  // An earlier pair whose cost block is non-finite fails before a later pair
  // with no centers, in both batch forms, exactly as the per-pair Compute
  // loop does; the pairs before the failure are still solved.
  Rng rng(859);
  const Signature good = RandomSignature(&rng, 4, 2);
  const Signature also_good = RandomSignature(&rng, 3, 2);
  Signature non_finite = RandomSignature(&rng, 3, 2);
  non_finite.mutable_center(1)[0] = std::numeric_limits<double>::infinity();
  SignatureSet set;
  for (SignatureView s : {SignatureView(good), SignatureView(non_finite),
                          SignatureView(), SignatureView(also_good)}) {
    ASSERT_TRUE(set.AppendUnchecked(s).ok());
  }
  std::vector<SignatureView> views;
  for (std::size_t i = 0; i < set.size(); ++i) views.push_back(set.view(i));
  EmdWorkspace reference;
  Status first;
  for (const SignatureView& v : views) {
    first = reference.Compute(v, good, GroundDistance::kEuclidean).status();
    if (!first.ok()) break;
  }
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.message().find("non-finite"), std::string::npos) << first;
  EmdWorkspace workspace;
  std::vector<double> out(views.size(), -1.0);
  EXPECT_EQ(workspace.ComputeBatch(views.data(), views.size(),
                                   SignatureView(good),
                                   GroundDistance::kEuclidean, out.data()),
            first);
  EXPECT_EQ(out[0], reference.Compute(good, good, GroundDistance::kEuclidean)
                        .ValueOrDie());
  EXPECT_EQ(workspace.ComputeBatch(SignatureView(good), views.data(),
                                   views.size(), GroundDistance::kEuclidean,
                                   out.data()),
            first);
  // The same batch without the non-finite member fails on the empty one.
  std::vector<SignatureView> no_non_finite = {views[0], views[2], views[3]};
  const Status empty = workspace.ComputeBatch(
      no_non_finite.data(), no_non_finite.size(), SignatureView(good),
      GroundDistance::kEuclidean, out.data());
  EXPECT_EQ(empty, SignatureView().Validate());
}

TEST(TransportSolverTest, EmdSolverComputeBatchMatchesComputeForEveryKind) {
  // EmdSolver::ComputeBatch must be value-identical to its per-pair Compute
  // for the exact kind AND every approximate kind (which batch via the
  // per-pair fallback) — normalized signatures so sinkhorn's balanced
  // assumption holds.
  Rng rng(868);
  Signature newest = RandomSignature(&rng, 8, 2);
  newest.NormalizeInPlace();
  std::vector<Signature> older_store;
  for (std::size_t p = 0; p < 5; ++p) {
    Signature s = RandomSignature(&rng, 8, 2);
    s.NormalizeInPlace();
    older_store.push_back(std::move(s));
  }
  std::vector<SignatureView> olders(older_store.begin(), older_store.end());
  for (const char* spec : {"exact", "sinkhorn:0.1", "sliced:16"}) {
    const EmdSolverOptions options = ParseEmdSolverSpec(spec).ValueOrDie();
    EmdSolver solver(options);
    EmdSolver reference(options);
    std::vector<double> batch(olders.size());
    ASSERT_TRUE(solver
                    .ComputeBatch(olders.data(), olders.size(),
                                  SignatureView(newest),
                                  GroundDistance::kSquaredEuclidean,
                                  batch.data())
                    .ok())
        << spec;
    for (std::size_t p = 0; p < olders.size(); ++p) {
      EXPECT_EQ(batch[p],
                reference
                    .Compute(olders[p], newest,
                             GroundDistance::kSquaredEuclidean)
                    .ValueOrDie())
          << spec << " p=" << p;
    }
    // A default solver given the options by set_options (a pooled chunk's
    // thread-local solver) batches the same values.
    EmdSolver pooled;
    pooled.set_options(options);
    std::vector<double> batch2(olders.size());
    ASSERT_TRUE(pooled
                    .ComputeBatch(olders.data(), olders.size(),
                                  SignatureView(newest),
                                  GroundDistance::kSquaredEuclidean,
                                  batch2.data())
                    .ok())
        << spec;
    EXPECT_EQ(batch, batch2) << spec;
  }
}

TEST(TransportSolverTest, DetectorIdenticalAcrossHeapThresholds) {
  // emd-heap-at is a pure performance knob: forced-dense (0), forced-heap
  // (1), and the default crossover must produce bitwise-identical per-step
  // results on the same stream, bootstrap CIs included.
  Rng rng(878);
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 0.7);
  const GaussianMixture after = GaussianMixture::Isotropic({2.5, 2.5}, 0.7);
  BagSequence bags;
  for (std::size_t t = 0; t < 18; ++t) {
    bags.push_back((t < 9 ? before : after).SampleBag(16, &rng));
  }
  auto run_with = [&bags](std::size_t heap_at) {
    DetectorOptions options;
    options.tau = 3;
    options.tau_prime = 3;
    options.bootstrap.replicates = 40;
    options.signature.method = SignatureMethod::kKMeans;
    options.signature.k = 4;
    options.seed = 31;
    options.emd.heap_at = heap_at;
    auto detector = BagStreamDetector::Create(options).MoveValueUnsafe();
    return detector->Run(bags).ValueOrDie();
  };
  const std::vector<StepResult> dense = run_with(0);
  const std::vector<StepResult> heap = run_with(1);
  const std::vector<StepResult> preset = run_with(kDefaultEmdHeapAt);
  ASSERT_EQ(dense.size(), heap.size());
  ASSERT_EQ(dense.size(), preset.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    for (const std::vector<StepResult>* other : {&heap, &preset}) {
      EXPECT_EQ(dense[i].score, (*other)[i].score) << i;
      EXPECT_EQ(dense[i].ci_lo, (*other)[i].ci_lo) << i;
      EXPECT_EQ(dense[i].ci_up, (*other)[i].ci_up) << i;
      EXPECT_EQ(dense[i].alarm, (*other)[i].alarm) << i;
    }
  }
}

TEST(TransportSolverTest, DetectorRollingTablesSurviveReset) {
  // Reset() must rewind the rolling table, its base slot, and the cache to a
  // fresh state: re-running the same stream on the SAME detector yields
  // bitwise-identical scores (bootstrap off — the detector's RNG, like
  // before, is deliberately not rewound by Reset).
  DetectorOptions options;
  options.tau = 3;
  options.tau_prime = 3;
  options.bootstrap.replicates = 0;
  options.signature.k = 3;
  options.seed = 5;
  Rng rng(77);
  const GaussianMixture mix = GaussianMixture::Isotropic({0.0}, 1.0);
  BagSequence bags;
  for (int t = 0; t < 14; ++t) bags.push_back(mix.SampleBag(15, &rng));

  auto detector = BagStreamDetector::Create(options).MoveValueUnsafe();
  const std::vector<StepResult> first = detector->Run(bags).ValueOrDie();
  const std::vector<StepResult> second = detector->Run(bags).ValueOrDie();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].score, second[i].score) << i;
    EXPECT_EQ(first[i].time, second[i].time) << i;
  }
}

}  // namespace
}  // namespace bagcpd

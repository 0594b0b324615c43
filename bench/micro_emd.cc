// EMD transport-solver microbenchmark: the workspace-backed dense solver
// (emd/transport_solver.h) against the generic min-cost-flow reference path
// it replaced (tests/reference/min_cost_flow.h) — per-solve latency at
// K = 4 / 8 / 16 / 64 (K = 8 is the paper default and the dense-scan
// regime; only K = 16 is gated), steady-state allocations per solve (the
// workspace growth counter), and pairwise-matrix throughput.
// Both paths must agree bitwise on every instance; the harness aborts if a
// single solve diverges. A second sweep (K = 4..256) races the approximate
// solvers (emd/approx: sinkhorn, sliced) against the exact workspace, and a
// fidelity section replays fig07/fig11-style detector scenarios under each
// solver to report max |delta score| and the detection-delay shift of the
// argmax step. A large-K sweep (K = 64..512) races the exact solver's dense
// Dijkstra scan against its 4-ary-heap specialization (bitwise-identical by
// construction; the harness verifies anyway), and a rolling-step section
// times the detector's per-push batch — the (W - 1) shared-right solves of
// UpdateRollingTable — as one ComputeBatch call against the pre-batch
// per-pair dense loop. Emits BENCH_emd.json in the working directory, which
// tools/check_perf_gate.py hard-gates (>= 1.3x at K = 16 for the exact
// rows; --emd-approx gates >= 3x at K = 64 for both approximate solvers,
// zero steady-state allocations, and the fidelity ceilings; --emd-large
// gates the heap >= 1.5x at K = 256 and the batched rolling step >= 1.2x at
// K = 64, zero steady-state allocations on both).
//
//   micro_emd [repeats]   (default 50; scales the iteration counts)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/pamap_simulator.h"
#include "bagcpd/emd/approx/emd_solver.h"
#include "bagcpd/emd/approx/options.h"
#include "bagcpd/emd/emd.h"
#include "bagcpd/emd/transport_solver.h"
#include "bagcpd/graph/enron_simulator.h"
#include "bagcpd/graph/features.h"
#include "bagcpd/signature/signature_set.h"
#include "bench_util.h"
#include "reference/min_cost_flow.h"

namespace bagcpd {
namespace {

// Interleaved best-of rounds for the rolling-step rows. The K = 64 row is the
// one CI gates (batched >= 1.2x serial); at best-of-2 its ratio sat at the
// gate's noise floor, so it takes more rounds, each of a fifth of the steps:
// its serial baseline solves 9 dense K = 64 pairs per step, and 10 steps
// (micro_emd 50) already take about 1 s.
constexpr int kBatchRounds = 2;
constexpr int kBatchRoundsK64 = 7;

Signature RandomSignature(Rng* rng, std::size_t k, std::size_t dim) {
  Signature s;
  for (std::size_t i = 0; i < k; ++i) {
    Point c(dim);
    for (double& v : c) v = rng->Uniform(-5.0, 5.0);
    s.AddCenter(c, rng->Uniform(0.5, 3.0));
  }
  return s;
}

// The pre-workspace EMD path (tests/reference/min_cost_flow.h): a fresh
// min-cost-flow network per pair (vector-of-vectors adjacency, heap Dijkstra,
// one std::function ground-distance call per transport arc), solved, with
// the full flow matrix materialized.
double ReferenceEmd(SignatureView a, SignatureView b) {
  return bench::Unwrap(ReferenceEmdDetailed(a, b, GroundDistance::kEuclidean),
                       "reference")
      .emd;
}

struct SolveRow {
  std::size_t k = 0;
  double ref_ns_per_solve = 0.0;
  double ns_per_solve = 0.0;
  double speedup = 0.0;
  double steady_state_allocs_per_solve = 0.0;
};

struct ApproxRow {
  std::size_t k = 0;
  std::string solver;
  double exact_ns_per_solve = 0.0;
  double ns_per_solve = 0.0;
  double speedup_vs_exact = 0.0;
  double steady_state_allocs_per_solve = 0.0;
};

struct FidelityRow {
  std::string scenario;
  std::string solver;
  double max_abs_score_delta = 0.0;
  // argmax(score) step of the approximate run minus the exact run's: the
  // shift in where the strongest change-point evidence lands.
  long delay_delta_steps = 0;
};

struct LargeKRow {
  std::size_t k = 0;
  double dense_ns_per_solve = 0.0;
  double heap_ns_per_solve = 0.0;
  double heap_speedup = 0.0;
  double steady_state_allocs_per_solve = 0.0;  // Heap-path workspace growth.
};

struct BatchRow {
  std::size_t k = 0;
  std::size_t pairs = 0;
  double serial_ns_per_step = 0.0;
  double batched_ns_per_step = 0.0;
  double batched_speedup = 0.0;
  double steady_state_allocs_per_step = 0.0;  // Batched-path growth.
};

// Runs the detector over `bags` with the given approximate-solver spec and
// returns the per-step scores (bootstrap off: fidelity measures the score
// path itself, not CI resampling noise on top of it).
std::vector<double> ScoreSeries(const BagSequence& bags,
                                const DetectorOptions& base,
                                const std::string& emd_spec) {
  DetectorOptions options = base;
  options.bootstrap.replicates = 0;
  options.emd =
      bench::Unwrap(ParseEmdSolverSpec(emd_spec), "emd spec");
  auto detector =
      bench::Unwrap(BagStreamDetector::Create(options), "fidelity detector");
  const std::vector<StepResult> results =
      bench::Unwrap(detector->Run(bags), "fidelity run");
  std::vector<double> scores;
  scores.reserve(results.size());
  for (const StepResult& r : results) scores.push_back(r.score);
  return scores;
}

std::size_t ArgMax(const std::vector<double>& v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

// One fidelity scenario: exact vs each approximate solver on the same stream.
void RunFidelityScenario(const char* name, const BagSequence& bags,
                         const DetectorOptions& base,
                         std::vector<FidelityRow>* rows) {
  const std::vector<double> exact = ScoreSeries(bags, base, "exact");
  const std::size_t exact_peak = ArgMax(exact);
  for (const char* spec : {"sinkhorn:0.1", "sliced:16"}) {
    const std::vector<double> approx = ScoreSeries(bags, base, spec);
    FidelityRow row;
    row.scenario = name;
    row.solver = spec;
    for (std::size_t i = 0; i < exact.size() && i < approx.size(); ++i) {
      row.max_abs_score_delta =
          std::max(row.max_abs_score_delta, std::abs(approx[i] - exact[i]));
    }
    row.delay_delta_steps = static_cast<long>(ArgMax(approx)) -
                            static_cast<long>(exact_peak);
    rows->push_back(row);
    std::printf(
        "fidelity %-12s %-14s max|dScore| %.4f   delay shift %+ld steps\n",
        name, spec, row.max_abs_score_delta, row.delay_delta_steps);
  }
}

int Main(int argc, char** argv) {
  const int repeats = argc > 1 ? std::atoi(argv[1]) : 50;

  bench::PrintHeader(
      "micro_emd: workspace transport solver vs min-cost-flow reference",
      "per-solve latency, steady-state allocations, matrix throughput");
  std::printf("repeats=%d\n\n", repeats);

  std::vector<SolveRow> rows;
  for (const std::size_t k : {std::size_t{4}, std::size_t{8}, std::size_t{16},
                              std::size_t{64}}) {
    // A fixed pool of instances, cycled by both paths in the same order.
    Rng rng(1000 + k);
    const std::size_t pool_size = 16;
    std::vector<Signature> left;
    std::vector<Signature> right;
    for (std::size_t p = 0; p < pool_size; ++p) {
      left.push_back(RandomSignature(&rng, k, 2));
      right.push_back(RandomSignature(&rng, k, 2));
    }

    EmdWorkspace workspace;
    // Bitwise agreement on every instance before any timing.
    for (std::size_t p = 0; p < pool_size; ++p) {
      const double ref = ReferenceEmd(left[p], right[p]);
      const double ours =
          bench::Unwrap(workspace.Compute(left[p], right[p],
                                          GroundDistance::kEuclidean),
                        "workspace solve");
      if (ref != ours) {
        std::fprintf(stderr,
                     "FATAL: solver diverged from reference at k=%zu p=%zu "
                     "(%.17g vs %.17g)\n",
                     k, p, ref, ours);
        return 1;
      }
    }

    // Iteration count scaled so each pass stays well under a second.
    const int iterations =
        std::max(64, repeats * static_cast<int>(6400 / (k * k)));
    const std::uint64_t allocs_before = workspace.allocation_count();
    std::uint64_t timed_solves = 0;

    double ref_sink = 0.0;
    double ours_sink = 0.0;
    const std::pair<double, double> timed = bench::BestSecondsPerCallInterleaved(
        3, iterations, &ref_sink, &ours_sink,
        [&](int it) {
          const std::size_t p = static_cast<std::size_t>(it) % pool_size;
          return ReferenceEmd(left[p], right[p]);
        },
        [&](int it) {
          const std::size_t p = static_cast<std::size_t>(it) % pool_size;
          ++timed_solves;
          return bench::Unwrap(
              workspace.Compute(left[p], right[p], GroundDistance::kEuclidean),
              "workspace solve");
        });
    // Same instances in the same order: the sums must match bitwise (the
    // verification pass again, but over the timed loops themselves).
    if (ref_sink != ours_sink) {
      std::fprintf(stderr, "FATAL: timed-loop checksums diverged at k=%zu\n",
                   k);
      return 1;
    }

    SolveRow row;
    row.k = k;
    row.ref_ns_per_solve = timed.first * 1e9;
    row.ns_per_solve = timed.second * 1e9;
    row.speedup = row.ref_ns_per_solve / row.ns_per_solve;
    // The verification pass already saw this (K, L), so the timed loops run
    // against warm buffers: any growth here is a steady-state allocation.
    row.steady_state_allocs_per_solve =
        timed_solves == 0
            ? 0.0
            : static_cast<double>(workspace.allocation_count() -
                                  allocs_before) /
                  static_cast<double>(timed_solves);
    rows.push_back(row);
    std::printf(
        "emd_solve k=%-3zu reference %9.0f ns/solve   workspace %9.0f "
        "ns/solve   speedup %.2fx   steady-state allocs/solve %.4f\n",
        k, row.ref_ns_per_solve, row.ns_per_solve, row.speedup,
        row.steady_state_allocs_per_solve);
  }

  // Pairwise-matrix throughput: the fig06/MDS batch shape.
  const std::size_t pairwise_n = 24;
  const std::size_t pairwise_k = 8;
  double pairwise_seconds = 0.0;
  double pairwise_solves_per_second = 0.0;
  {
    Rng rng(6);
    SignatureSet set;
    for (std::size_t i = 0; i < pairwise_n; ++i) {
      bench::UnwrapStatus(set.Append(RandomSignature(&rng, pairwise_k, 2)),
                          "append");
    }
    const int matrix_repeats = std::max(3, repeats / 5);
    double matrix_sink = 0.0;
    pairwise_seconds =
        bench::BestSecondsPerCall(3, matrix_repeats, &matrix_sink, [&](int) {
          return bench::Unwrap(PairwiseEmdMatrix(set), "pairwise")(0, 1);
        });
    const double solves =
        static_cast<double>(pairwise_n * (pairwise_n - 1) / 2);
    pairwise_solves_per_second = solves / pairwise_seconds;
    std::printf(
        "\npairwise_matrix n=%zu k=%zu: %.4fs per matrix, %.0f solves/s\n",
        pairwise_n, pairwise_k, pairwise_seconds, pairwise_solves_per_second);
  }

  // --- Large-K sweep: dense Dijkstra scan vs 4-ary-heap specialization ----
  std::printf("\nlarge-K sweep (dense scan vs 4-ary-heap Dijkstra):\n");
  std::vector<LargeKRow> large_k_rows;
  for (const std::size_t k : {std::size_t{64}, std::size_t{128},
                              std::size_t{256}, std::size_t{512}}) {
    Rng rng(4000 + k);
    const std::size_t pool_size = k >= 256 ? 4 : 8;
    std::vector<Signature> left;
    std::vector<Signature> right;
    for (std::size_t p = 0; p < pool_size; ++p) {
      left.push_back(RandomSignature(&rng, k, 2));
      right.push_back(RandomSignature(&rng, k, 2));
    }

    EmdWorkspace dense;
    dense.set_heap_threshold(0);  // Always the dense scan (pre-heap path).
    EmdWorkspace heap;
    heap.set_heap_threshold(1);  // Always the heap.

    // Bitwise agreement on every instance before any timing (this also warms
    // both workspaces, so the timed loops measure steady state).
    for (std::size_t p = 0; p < pool_size; ++p) {
      const double d = bench::Unwrap(
          dense.Compute(left[p], right[p], GroundDistance::kEuclidean),
          "dense solve");
      const double h = bench::Unwrap(
          heap.Compute(left[p], right[p], GroundDistance::kEuclidean),
          "heap solve");
      if (d != h) {
        std::fprintf(stderr,
                     "FATAL: heap diverged from dense at k=%zu p=%zu "
                     "(%.17g vs %.17g)\n",
                     k, p, d, h);
        return 1;
      }
    }

    // The dense solve is ~K augmentations x O(K^2) scans apiece; scale the
    // budget so K = 512 stays bounded while K = 64 still amortizes the timer.
    const int iterations =
        std::max(2, repeats * static_cast<int>(65536 / (k * k)));
    const std::uint64_t allocs_before = heap.allocation_count();
    std::uint64_t timed_solves = 0;
    double dense_sink = 0.0;
    double heap_sink = 0.0;
    const std::pair<double, double> timed =
        bench::BestSecondsPerCallInterleaved(
            2, iterations, &dense_sink, &heap_sink,
            [&](int it) {
              const std::size_t p = static_cast<std::size_t>(it) % pool_size;
              return bench::Unwrap(
                  dense.Compute(left[p], right[p], GroundDistance::kEuclidean),
                  "dense solve");
            },
            [&](int it) {
              const std::size_t p = static_cast<std::size_t>(it) % pool_size;
              ++timed_solves;
              return bench::Unwrap(
                  heap.Compute(left[p], right[p], GroundDistance::kEuclidean),
                  "heap solve");
            });
    if (dense_sink != heap_sink) {
      std::fprintf(stderr,
                   "FATAL: large-K timed-loop checksums diverged at k=%zu\n",
                   k);
      return 1;
    }

    LargeKRow row;
    row.k = k;
    row.dense_ns_per_solve = timed.first * 1e9;
    row.heap_ns_per_solve = timed.second * 1e9;
    row.heap_speedup = row.dense_ns_per_solve / row.heap_ns_per_solve;
    row.steady_state_allocs_per_solve =
        timed_solves == 0
            ? 0.0
            : static_cast<double>(heap.allocation_count() - allocs_before) /
                  static_cast<double>(timed_solves);
    large_k_rows.push_back(row);
    std::printf(
        "emd_large k=%-3zu dense %10.0f ns/solve   heap %10.0f ns/solve   "
        "speedup %.2fx   steady-state allocs/solve %.4f\n",
        k, row.dense_ns_per_solve, row.heap_ns_per_solve, row.heap_speedup,
        row.steady_state_allocs_per_solve);
  }

  // --- Rolling-step batch: (W - 1) shared-right solves per detector push --
  std::printf(
      "\nrolling-step batch (W - 1 = 9 shared-right pairs per step):\n");
  std::vector<BatchRow> batch_rows;
  for (const std::size_t k : {std::size_t{16}, std::size_t{64}}) {
    Rng rng(7000 + k);
    const std::size_t pairs = 9;  // tau = tau' = 5 => W - 1 = 9 new pairs.
    const std::size_t pool_size = 4;
    // pool_size detector "steps": each has `pairs` older window signatures
    // and the one newest signature they all pair with.
    std::vector<std::vector<Signature>> olders(pool_size);
    std::vector<Signature> newest;
    for (std::size_t s = 0; s < pool_size; ++s) {
      for (std::size_t p = 0; p < pairs; ++p) {
        olders[s].push_back(RandomSignature(&rng, k, 2));
      }
      newest.push_back(RandomSignature(&rng, k, 2));
    }
    std::vector<std::vector<SignatureView>> older_views(pool_size);
    for (std::size_t s = 0; s < pool_size; ++s) {
      for (const Signature& sig : olders[s]) older_views[s].push_back(sig);
    }

    // Serial baseline = the pre-batch rolling-table inner loop: one dense
    // per-pair solve per (older, newest) pair. Batched = one shared-right
    // ComputeBatch per step at the default heap crossover — exactly what
    // UpdateRollingTable runs now. Same solves either way, so the two timed
    // loops must agree bitwise.
    EmdWorkspace serial;
    serial.set_heap_threshold(0);
    EmdWorkspace batched;  // Default crossover: the heap engages at
                           // K + L >= kDefaultEmdHeapAt.
    std::vector<double> out(pairs);

    // Warm both paths over every step and verify agreement.
    for (std::size_t s = 0; s < pool_size; ++s) {
      bench::UnwrapStatus(
          batched.ComputeBatch(older_views[s].data(), pairs, newest[s],
                               GroundDistance::kEuclidean, out.data()),
          "batched step");
      for (std::size_t p = 0; p < pairs; ++p) {
        const double d = bench::Unwrap(
            serial.Compute(older_views[s][p], newest[s],
                           GroundDistance::kEuclidean),
            "serial solve");
        if (d != out[p]) {
          std::fprintf(stderr,
                       "FATAL: batched rolling step diverged at k=%zu s=%zu "
                       "p=%zu (%.17g vs %.17g)\n",
                       k, s, p, d, out[p]);
          return 1;
        }
      }
    }

    const int steps = std::max(4, repeats * static_cast<int>(4096 / (k * k)));
    const int iterations = k == 64 ? std::max(4, steps / 5) : steps;
    const std::uint64_t allocs_before = batched.allocation_count();
    std::uint64_t timed_steps = 0;
    double serial_sink = 0.0;
    double batched_sink = 0.0;
    const std::pair<double, double> timed =
        bench::BestSecondsPerCallInterleaved(
            k == 64 ? kBatchRoundsK64 : kBatchRounds, iterations, &serial_sink,
            &batched_sink,
            [&](int it) {
              const std::size_t s = static_cast<std::size_t>(it) % pool_size;
              double sum = 0.0;
              for (std::size_t p = 0; p < pairs; ++p) {
                sum += bench::Unwrap(
                    serial.Compute(older_views[s][p], newest[s],
                                   GroundDistance::kEuclidean),
                    "serial solve");
              }
              return sum;
            },
            [&](int it) {
              const std::size_t s = static_cast<std::size_t>(it) % pool_size;
              ++timed_steps;
              bench::UnwrapStatus(
                  batched.ComputeBatch(older_views[s].data(), pairs,
                                       newest[s], GroundDistance::kEuclidean,
                                       out.data()),
                  "batched step");
              double sum = 0.0;
              for (std::size_t p = 0; p < pairs; ++p) sum += out[p];
              return sum;
            });
    if (serial_sink != batched_sink) {
      std::fprintf(stderr,
                   "FATAL: rolling-step timed-loop checksums diverged at "
                   "k=%zu\n",
                   k);
      return 1;
    }

    BatchRow row;
    row.k = k;
    row.pairs = pairs;
    row.serial_ns_per_step = timed.first * 1e9;
    row.batched_ns_per_step = timed.second * 1e9;
    row.batched_speedup = row.serial_ns_per_step / row.batched_ns_per_step;
    row.steady_state_allocs_per_step =
        timed_steps == 0
            ? 0.0
            : static_cast<double>(batched.allocation_count() - allocs_before) /
                  static_cast<double>(timed_steps);
    batch_rows.push_back(row);
    std::printf(
        "emd_batch k=%-3zu serial %10.0f ns/step   batched %10.0f ns/step   "
        "speedup %.2fx   steady-state allocs/step %.4f\n",
        k, row.serial_ns_per_step, row.batched_ns_per_step,
        row.batched_speedup, row.steady_state_allocs_per_step);
  }

  // --- Approximate-solver sweep: exact vs sinkhorn vs sliced --------------
  std::printf("\napprox sweep (normalized signatures, squared-Euclidean):\n");
  std::vector<ApproxRow> approx_rows;
  for (const std::size_t k : {std::size_t{4}, std::size_t{16}, std::size_t{64},
                              std::size_t{256}}) {
    Rng rng(9000 + k);
    const std::size_t pool_size = 8;
    std::vector<Signature> left;
    std::vector<Signature> right;
    for (std::size_t p = 0; p < pool_size; ++p) {
      Signature a = RandomSignature(&rng, k, 2);
      Signature b = RandomSignature(&rng, k, 2);
      a.NormalizeInPlace();
      b.NormalizeInPlace();
      left.push_back(std::move(a));
      right.push_back(std::move(b));
    }
    // The exact dense solve is O(K^3)-ish; keep the iteration budget sane at
    // K = 256 while still amortizing timer noise at small K.
    const int iterations = std::max(
        2, repeats * static_cast<int>(6400 / (k * k)) / 2 + (k <= 64 ? 8 : 0));

    EmdSolver exact_solver;  // kind = exact
    EmdSolver sinkhorn_solver(
        bench::Unwrap(ParseEmdSolverSpec("sinkhorn:0.1"), "sinkhorn spec"));
    EmdSolver sliced_solver(
        bench::Unwrap(ParseEmdSolverSpec("sliced:16"), "sliced spec"));
    struct Contender {
      const char* name;
      EmdSolver* solver;
    };
    const Contender contenders[] = {{"sinkhorn:0.1", &sinkhorn_solver},
                                    {"sliced:16", &sliced_solver}};

    double sink = 0.0;
    // Warm every solver over the whole pool so the timed loops measure
    // steady state (any later growth is a steady-state allocation).
    for (std::size_t p = 0; p < pool_size; ++p) {
      sink += bench::Unwrap(
          exact_solver.Compute(left[p], right[p],
                               GroundDistance::kSquaredEuclidean),
          "exact warmup");
      for (const Contender& c : contenders) {
        sink += bench::Unwrap(
            c.solver->Compute(left[p], right[p],
                              GroundDistance::kSquaredEuclidean),
            "approx warmup");
      }
    }

    const double exact_seconds =
        bench::BestSecondsPerCall(2, iterations, &sink, [&](int it) {
          const std::size_t p = static_cast<std::size_t>(it) % pool_size;
          return bench::Unwrap(
              exact_solver.Compute(left[p], right[p],
                                   GroundDistance::kSquaredEuclidean),
              "exact solve");
        });
    for (const Contender& c : contenders) {
      const std::uint64_t allocs_before = c.solver->allocation_count();
      std::uint64_t solves = 0;
      const double seconds =
          bench::BestSecondsPerCall(2, iterations, &sink, [&](int it) {
            const std::size_t p = static_cast<std::size_t>(it) % pool_size;
            ++solves;
            return bench::Unwrap(
                c.solver->Compute(left[p], right[p],
                                  GroundDistance::kSquaredEuclidean),
                "approx solve");
          });
      ApproxRow row;
      row.k = k;
      row.solver = c.name;
      row.exact_ns_per_solve = exact_seconds * 1e9;
      row.ns_per_solve = seconds * 1e9;
      row.speedup_vs_exact = exact_seconds / seconds;
      row.steady_state_allocs_per_solve =
          solves == 0 ? 0.0
                      : static_cast<double>(c.solver->allocation_count() -
                                            allocs_before) /
                            static_cast<double>(solves);
      approx_rows.push_back(row);
      std::printf(
          "emd_approx k=%-3zu %-14s exact %10.0f ns/solve   approx %9.0f "
          "ns/solve   speedup %6.2fx   steady-state allocs/solve %.4f\n",
          k, row.solver.c_str(), row.exact_ns_per_solve, row.ns_per_solve,
          row.speedup_vs_exact, row.steady_state_allocs_per_solve);
    }
    if (sink == 12345.678) std::printf(" ");  // Keep `sink` observable.
  }

  // --- Fidelity: fig07/fig11-style detector scenarios ---------------------
  std::printf("\nfidelity (bootstrap off; score path only):\n");
  std::vector<FidelityRow> fidelity_rows;
  {
    // fig07-style: PAMAP-like activity stream, tau = tau' = 5, k = 10.
    PamapSimulatorOptions sim;
    sim.seed = 777;
    sim.subject = 1;
    sim.sampling_hz = 20.0;
    sim.mean_bags_per_activity = 6.0;
    PamapRecording rec =
        bench::Unwrap(SimulatePamapSubject(sim), "pamap simulator");
    DetectorOptions options;
    options.tau = 5;
    options.tau_prime = 5;
    options.signature.method = SignatureMethod::kKMeans;
    options.signature.k = 10;
    options.seed = 71;
    RunFidelityScenario("fig07_pamap", rec.stream.bags, options,
                        &fidelity_rows);
  }
  {
    // fig11-style: ENRON-like weekly email graphs, destination strength,
    // tau = 5 / tau' = 3, k = 8.
    EnronSimulatorOptions sim;
    sim.seed = 2002;
    sim.weeks = 60;
    sim.node_rate = 50.0;
    sim.edge_density = 0.25;
    EnronStream stream =
        bench::Unwrap(SimulateEnronStream(sim), "enron simulator");
    BagSequence bags;
    for (const BipartiteGraph& g : stream.weekly_graphs) {
      bags.push_back(bench::Unwrap(
          ExtractGraphFeature(g, GraphFeature::kDestinationStrength),
          "feature"));
    }
    DetectorOptions options;
    options.tau = 5;
    options.tau_prime = 3;
    options.signature.method = SignatureMethod::kKMeans;
    options.signature.k = 8;
    options.seed = 116;
    RunFidelityScenario("fig11_enron", bags, options, &fidelity_rows);
  }

  std::FILE* json = std::fopen("BENCH_emd.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_emd.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"micro_emd\",\n  \"repeats\": %d,\n"
               "  \"runs\": [\n",
               repeats);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SolveRow& r = rows[i];
    std::fprintf(json,
                 "    {\"name\": \"emd_solve_k%zu\", \"k\": %zu, "
                 "\"ref_ns_per_solve\": %.1f, \"ns_per_solve\": %.1f, "
                 "\"speedup\": %.3f, "
                 "\"steady_state_allocs_per_solve\": %.6f}%s\n",
                 r.k, r.k, r.ref_ns_per_solve, r.ns_per_solve, r.speedup,
                 r.steady_state_allocs_per_solve,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"pairwise\": {\"n\": %zu, \"k\": %zu, "
               "\"seconds_per_matrix\": %.6f, \"solves_per_second\": %.1f},\n",
               pairwise_n, pairwise_k, pairwise_seconds,
               pairwise_solves_per_second);
  std::fprintf(json, "  \"large_k_runs\": [\n");
  for (std::size_t i = 0; i < large_k_rows.size(); ++i) {
    const LargeKRow& r = large_k_rows[i];
    std::fprintf(json,
                 "    {\"name\": \"emd_large_k%zu\", \"k\": %zu, "
                 "\"dense_ns_per_solve\": %.1f, \"heap_ns_per_solve\": %.1f, "
                 "\"heap_speedup\": %.3f, "
                 "\"steady_state_allocs_per_solve\": %.6f}%s\n",
                 r.k, r.k, r.dense_ns_per_solve, r.heap_ns_per_solve,
                 r.heap_speedup, r.steady_state_allocs_per_solve,
                 i + 1 < large_k_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"batch_runs\": [\n");
  for (std::size_t i = 0; i < batch_rows.size(); ++i) {
    const BatchRow& r = batch_rows[i];
    std::fprintf(json,
                 "    {\"name\": \"emd_batch_k%zu\", \"k\": %zu, "
                 "\"pairs\": %zu, \"serial_ns_per_step\": %.1f, "
                 "\"batched_ns_per_step\": %.1f, \"batched_speedup\": %.3f, "
                 "\"steady_state_allocs_per_step\": %.6f}%s\n",
                 r.k, r.k, r.pairs, r.serial_ns_per_step,
                 r.batched_ns_per_step, r.batched_speedup,
                 r.steady_state_allocs_per_step,
                 i + 1 < batch_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"approx_runs\": [\n");
  for (std::size_t i = 0; i < approx_rows.size(); ++i) {
    const ApproxRow& r = approx_rows[i];
    std::fprintf(json,
                 "    {\"name\": \"emd_approx_k%zu_%s\", \"k\": %zu, "
                 "\"solver\": \"%s\", \"exact_ns_per_solve\": %.1f, "
                 "\"ns_per_solve\": %.1f, \"speedup_vs_exact\": %.3f, "
                 "\"steady_state_allocs_per_solve\": %.6f}%s\n",
                 r.k, r.solver.c_str(), r.k, r.solver.c_str(),
                 r.exact_ns_per_solve, r.ns_per_solve, r.speedup_vs_exact,
                 r.steady_state_allocs_per_solve,
                 i + 1 < approx_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"fidelity\": [\n");
  for (std::size_t i = 0; i < fidelity_rows.size(); ++i) {
    const FidelityRow& r = fidelity_rows[i];
    std::fprintf(json,
                 "    {\"scenario\": \"%s\", \"solver\": \"%s\", "
                 "\"max_abs_score_delta\": %.6f, "
                 "\"delay_delta_steps\": %ld}%s\n",
                 r.scenario.c_str(), r.solver.c_str(), r.max_abs_score_delta,
                 r.delay_delta_steps,
                 i + 1 < fidelity_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_emd.json\n");
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main(int argc, char** argv) { return bagcpd::Main(argc, argv); }

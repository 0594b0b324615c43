// Shared helpers for the experiment harnesses: unwrap results, score AUC near
// change points, time calls and print headers. Detector runs and chart series
// come from analysis/experiments.h.

#ifndef BAGCPD_BENCH_BENCH_UTIL_H_
#define BAGCPD_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "bagcpd/analysis/metrics.h"
#include "bagcpd/core/detector.h"

namespace bagcpd {
namespace bench {

/// \brief Aborts the harness with a message if a Result failed.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return result.MoveValueUnsafe();
}

inline void UnwrapStatus(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

/// \brief AUC of the scores against a +-1-step window around each change
/// point (the sharp-peak labeling used in the integration tests).
inline double NearChangeAuc(const std::vector<StepResult>& results,
                            const std::vector<std::size_t>& change_points) {
  if (change_points.empty()) return std::nan("");
  std::vector<double> scores;
  std::vector<int> labels;
  for (const StepResult& r : results) {
    scores.push_back(r.score);
    bool near = false;
    for (std::size_t cp : change_points) {
      if (r.time + 1 >= cp && r.time <= cp + 1) near = true;
    }
    labels.push_back(near ? 1 : 0);
  }
  Result<double> auc = RocAuc(scores, labels);
  return auc.ok() ? auc.ValueOrDie() : std::nan("");
}

/// \brief Seconds between two steady_clock time points.
inline double SecondsBetween(std::chrono::steady_clock::time_point start,
                             std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

/// \brief Times `fn(it)` over `iterations` calls, best of `reps` passes;
/// returns seconds per call. Every value `fn` returns accumulates into *sink
/// so the work cannot be optimized away (and checksums stay comparable
/// across solvers).
template <typename Fn>
double BestSecondsPerCall(int reps, int iterations, double* sink, Fn&& fn) {
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int it = 0; it < iterations; ++it) *sink += fn(it);
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best, SecondsBetween(start, stop));
  }
  return best / iterations;
}

/// \brief Two-sided interleaved best-of timing for A-vs-B comparisons: each
/// rep runs a full pass of `fn_a` then a full pass of `fn_b`, and each side
/// keeps its own best pass — so a transient stall poisons at most one pass
/// of one side, never the ratio. The sinks accumulate per side; when both
/// functions solve the same instances, callers can compare *sink_a and
/// *sink_b bitwise as an end-to-end agreement check over the timed loops
/// themselves. Returns {seconds per call of A, seconds per call of B}.
template <typename FnA, typename FnB>
std::pair<double, double> BestSecondsPerCallInterleaved(
    int reps, int iterations, double* sink_a, double* sink_b, FnA&& fn_a,
    FnB&& fn_b) {
  double best_a = 1e100;
  double best_b = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (int it = 0; it < iterations; ++it) *sink_a += fn_a(it);
    auto stop = std::chrono::steady_clock::now();
    best_a = std::min(best_a, SecondsBetween(start, stop));

    start = std::chrono::steady_clock::now();
    for (int it = 0; it < iterations; ++it) *sink_b += fn_b(it);
    stop = std::chrono::steady_clock::now();
    best_b = std::min(best_b, SecondsBetween(start, stop));
  }
  return {best_a / iterations, best_b / iterations};
}

/// \brief Header printed by every harness.
inline void PrintHeader(const char* figure, const char* note) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("%s\n", note);
  std::printf("==============================================================\n\n");
}

}  // namespace bench
}  // namespace bagcpd

#endif  // BAGCPD_BENCH_BENCH_UTIL_H_

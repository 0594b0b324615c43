// The one EMD entry point the detector scoring path goes through: an
// EmdWorkspace plus the approximate-solver scratch, dispatched on
// EmdSolverOptions. `emd=exact` forwards straight to
// EmdWorkspace::Compute — the identical code path, bit for bit — while
// `emd=sinkhorn:*` reuses the workspace's packed cost buffer (one
// PrepareCost, then scaling iterations) and `emd=sliced:*` runs projected
// 1-d sweeps without touching the cost matrix at all.
//
// Ownership mirrors EmdWorkspace (see README "Performance"): a
// BagStreamDetector owns one EmdSolver for its unpooled scoring path; its
// pooled chunks run on ThreadLocalEmdSolver(), after set_options() with the
// detector's options. Not thread-safe; never share one across concurrent
// solves.

#ifndef BAGCPD_EMD_APPROX_EMD_SOLVER_H_
#define BAGCPD_EMD_APPROX_EMD_SOLVER_H_

#include <cstddef>
#include <cstdint>

#include "bagcpd/common/result.h"
#include "bagcpd/emd/approx/options.h"
#include "bagcpd/emd/approx/sinkhorn.h"
#include "bagcpd/emd/approx/sliced.h"
#include "bagcpd/emd/ground_distance.h"
#include "bagcpd/emd/transport_solver.h"
#include "bagcpd/signature/signature.h"

namespace bagcpd {

/// \brief Exact-or-approximate EMD solver with reusable scratch. Steady
/// state performs zero heap allocations for any fixed solver kind and
/// signature shape (allocation_count() pins it, bench/micro_emd gates it).
class EmdSolver {
 public:
  EmdSolver() = default;
  explicit EmdSolver(const EmdSolverOptions& options) : options_(options) {}

  EmdSolver(const EmdSolver&) = delete;
  EmdSolver& operator=(const EmdSolver&) = delete;
  EmdSolver(EmdSolver&&) = default;
  EmdSolver& operator=(EmdSolver&&) = default;

  const EmdSolverOptions& options() const { return options_; }
  void set_options(const EmdSolverOptions& options) { options_ = options; }

  /// \brief EMD between two signatures under the stored options.
  Result<double> Compute(SignatureView a, SignatureView b,
                         GroundDistance ground);

  /// \brief Same solve under explicit options (the per-pair step of the
  /// approximate kinds' batch loop).
  Result<double> Compute(SignatureView a, SignatureView b,
                         GroundDistance ground,
                         const EmdSolverOptions& options);

  /// \brief Multi-pair solve under the stored options with a shared right
  /// operand — the detector's rolling-table shape, where every new solve
  /// pairs an older window signature with the newest one. `out[p]` is
  /// bitwise-identical to `Compute(as[p], b, ground)`: the exact kind runs
  /// EmdWorkspace::ComputeBatch (hoisted transpose, scratch reuse, zero
  /// steady-state allocations), the approximate kinds run their per-pair
  /// solves in pair order.
  Status ComputeBatch(const SignatureView* as, std::size_t count,
                      SignatureView b, GroundDistance ground, double* out);

  /// \brief The exact-path workspace (also the cost-matrix provider for
  /// sinkhorn). Exposed for tests and detailed/flow computations.
  EmdWorkspace& workspace() { return workspace_; }

  /// \brief Successful solves across all three kinds.
  std::uint64_t solve_count() const {
    return workspace_.solve_count() + sinkhorn_.solve_count() +
           sliced_.solve_count();
  }

  /// \brief Pairs that fell back from an approximate solve to the exact
  /// solver under `fallback_exact` (each also counts one exact solve).
  std::uint64_t fallback_count() const { return fallback_count_; }

  /// \brief Buffer growths across the workspace and both approx scratches;
  /// freezes once the largest shape has been seen (the zero-steady-state
  /// -allocations invariant).
  std::uint64_t allocation_count() const {
    return workspace_.allocation_count() + sinkhorn_.allocation_count() +
           sliced_.allocation_count();
  }

  /// \brief Per-owner byte ceiling over ALL retained scratch (workspace +
  /// sinkhorn + sliced). 0 = unlimited. Owners trigger the release at quiet
  /// points via ShrinkToCeiling() (BagStreamDetector::Reset does).
  void set_retained_byte_ceiling(std::size_t bytes) {
    retained_byte_ceiling_ = bytes;
  }
  std::size_t retained_byte_ceiling() const { return retained_byte_ceiling_; }
  std::size_t retained_bytes() const {
    return workspace_.retained_bytes() + sinkhorn_.retained_bytes() +
           sliced_.retained_bytes();
  }

  /// \brief Releases every scratch buffer if a ceiling is set and
  /// retained_bytes() exceeds it; otherwise a no-op.
  void ShrinkToCeiling();

 private:
  EmdSolverOptions options_;
  EmdWorkspace workspace_;
  SinkhornScratch sinkhorn_;
  SlicedScratch sliced_;
  std::size_t retained_byte_ceiling_ = 0;  // 0 = never shrink.
  std::uint64_t fallback_count_ = 0;
};

/// \brief Per-thread solver for the detector's pooled chunks; one solver
/// serves every detector whose chunks run on the thread, so each chunk sets
/// its detector's options first. Same caveats as ThreadLocalEmdWorkspace —
/// never call from code that can run inside another solve.
EmdSolver& ThreadLocalEmdSolver();

}  // namespace bagcpd

#endif  // BAGCPD_EMD_APPROX_EMD_SOLVER_H_

#include "bagcpd/emd/approx/emd_solver.h"

namespace bagcpd {

Result<double> EmdSolver::Compute(SignatureView a, SignatureView b,
                                  GroundDistance ground) {
  return Compute(a, b, ground, options_);
}

Result<double> EmdSolver::Compute(SignatureView a, SignatureView b,
                                  GroundDistance ground,
                                  const EmdSolverOptions& options) {
  switch (options.kind) {
    case EmdSolverKind::kExact:
      // Applied per call: thread-local solvers serve streams with different
      // `emd-heap-at=` selections through this one workspace.
      workspace_.set_heap_threshold(options.heap_at);
      return workspace_.Compute(a, b, ground);
    case EmdSolverKind::kSinkhorn: {
      BAGCPD_RETURN_NOT_OK(workspace_.PrepareCost(a, b, ground));
      Result<double> approx = SinkhornEmd(
          workspace_.cost_matrix(), workspace_.cost_rows(),
          workspace_.cost_cols(), a.weights_data(), b.weights_data(), options,
          &sinkhorn_);
      if (!approx.ok() && options.fallback_exact) {
        // Graceful degradation (`emd-fallback=exact`): underflow at small
        // eps / non-convergence retries the SAME pair exactly. Deterministic
        // — the Sinkhorn outcome is a pure function of the pair and options.
        ++fallback_count_;
        workspace_.set_heap_threshold(options.heap_at);
        return workspace_.Compute(a, b, ground);
      }
      return approx;
    }
    case EmdSolverKind::kSliced:
      return SlicedEmd(a, b, options, &sliced_);
  }
  return Status::Invalid("unknown emd solver kind");
}

Status EmdSolver::ComputeBatch(const SignatureView* as, std::size_t count,
                               SignatureView b, GroundDistance ground,
                               double* out) {
  if (options_.kind == EmdSolverKind::kExact) {
    workspace_.set_heap_threshold(options_.heap_at);
    return workspace_.ComputeBatch(as, count, b, ground, out);
  }
  // The approximate kinds have no cross-pair structure to exploit; a serial
  // loop in pair order is already their batch-optimal form and keeps every
  // value (and the first surfaced error) identical to per-pair calls.
  for (std::size_t p = 0; p < count; ++p) {
    BAGCPD_ASSIGN_OR_RETURN(out[p], Compute(as[p], b, ground, options_));
  }
  return Status::OK();
}

void EmdSolver::ShrinkToCeiling() {
  if (retained_byte_ceiling_ == 0) return;
  if (retained_bytes() <= retained_byte_ceiling_) return;
  workspace_.ReleaseBuffers();
  sinkhorn_.Release();
  sliced_.Release();
}

EmdSolver& ThreadLocalEmdSolver() {
  static thread_local EmdSolver solver;
  return solver;
}

}  // namespace bagcpd

#include "bagcpd/emd/emd.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "bagcpd/common/check.h"
#include "bagcpd/emd/emd_1d.h"
#include "bagcpd/emd/transport_solver.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {

// Every entry point below runs on an EmdWorkspace (emd/transport_solver.h):
// the serial batch helpers keep one workspace for the whole matrix, the
// parallel overloads use one workspace per pool thread, and the free
// enum-dispatched two-signature functions share the calling thread's
// workspace — so steady state everywhere is allocation-free. The fn-based
// overloads run user code inside the solve and therefore use a local
// workspace (re-entrancy safety over reuse). MinCostFlow remains as the
// reference implementation; the property tests pin bitwise agreement
// between the two.

Result<EmdSolution> ComputeEmdDetailed(SignatureView a, SignatureView b,
                                       const GroundDistanceFn& ground) {
  // A custom ground distance may itself call back into an EMD entry point
  // (e.g. a nested-EMD dissimilarity); the fn-based entry points therefore
  // solve on a local workspace so a re-entrant call cannot clobber the
  // thread-local one mid-fill. Only the enum paths — where no user code runs
  // inside the solve — share the per-thread workspace.
  EmdWorkspace workspace;
  return workspace.ComputeDetailed(a, b, ground);
}

Result<double> ComputeEmd(SignatureView a, SignatureView b,
                          GroundDistance ground) {
  // In one dimension Euclidean and Manhattan coincide and the balanced
  // problem has a closed-form sweep solution; use it when it applies.
  if ((ground == GroundDistance::kEuclidean ||
       ground == GroundDistance::kManhattan) &&
      Emd1dApplicable(a, b)) {
    return ComputeEmd1d(a, b);
  }
  return ThreadLocalEmdWorkspace().Compute(a, b, ground);
}

Result<double> ComputeEmd(SignatureView a, SignatureView b,
                          const GroundDistanceFn& ground) {
  // Local workspace for the same re-entrancy reason as ComputeEmdDetailed.
  EmdWorkspace workspace;
  return workspace.Compute(a, b, ground);
}

Result<Matrix> PairwiseEmdMatrix(const SignatureSet& signatures,
                                 GroundDistance ground) {
  const std::size_t n = signatures.size();
  if (n == 0) return Status::Invalid("no signatures");
  // One workspace reused across all C(n, 2) solves, batched one row at a
  // time: row i is a shared-left ComputeBatch of signature i against
  // signatures i+1..n-1, so all of the row's cost matrices fill in one
  // vectorized pass and the upper-triangle cells are written contiguously.
  // Pair order, and therefore the first surfaced error, matches the
  // historical per-pair loop; so do the values, bit for bit (ComputeBatch
  // always runs the full transportation solve, never the 1-d sweep).
  EmdWorkspace workspace;
  Matrix m(n, n, 0.0);
  std::vector<SignatureView> rights;
  rights.reserve(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    rights.clear();
    for (std::size_t j = i + 1; j < n; ++j) {
      rights.push_back(signatures.view(j));
    }
    BAGCPD_RETURN_NOT_OK(workspace.ComputeBatch(signatures.view(i),
                                                rights.data(), rights.size(),
                                                ground, &m(i, i + 1)));
    for (std::size_t j = i + 1; j < n; ++j) m(j, i) = m(i, j);
  }
  return m;
}

Result<Matrix> PairwiseEmdMatrix(const SignatureSet& signatures,
                                 GroundDistance ground, ThreadPool* pool) {
  if (pool == nullptr) return PairwiseEmdMatrix(signatures, ground);
  const std::size_t n = signatures.size();
  if (n == 0) return Status::Invalid("no signatures");
  // ParallelFor over the flat index of the strict upper triangle so the
  // static chunking splits the actual workload; each worker recovers its
  // (i, j) arithmetically and writes its two (distinct) matrix cells
  // directly — no O(n^2) pair/status side tables next to the O(n^2) output.
  // Every pair's EMD depends only on its two signatures, so the matrix
  // matches the serial overload bit for bit for any pool size.
  const std::size_t total = n * (n - 1) / 2;
  Matrix m(n, n, 0.0);
  // Flat index of pair (i, i + 1), i.e. pairs with first index < i.
  auto start_of = [n](std::size_t i) {
    return i * (n - 1) - (i * (i - 1)) / 2;
  };
  std::mutex error_mu;
  std::size_t first_error_p = total;  // total == "no error".
  Status first_error;
  pool->ParallelFor(0, total, [&](std::size_t p) {
    // Largest i with start_of(i) <= p: solve the quadratic, then nudge for
    // floating-point error (the loops move at most a step or two).
    const double root = (n - 0.5) - std::sqrt((n - 0.5) * (n - 0.5) -
                                              2.0 * static_cast<double>(p));
    std::size_t i = static_cast<std::size_t>(
        std::max(0.0, std::min(static_cast<double>(n - 2), root)));
    while (i > 0 && start_of(i) > p) --i;
    while (i < n - 2 && start_of(i + 1) <= p) ++i;
    const std::size_t j = i + 1 + (p - start_of(i));
    Result<double> d = ThreadLocalEmdWorkspace().Compute(
        signatures.view(i), signatures.view(j), ground);
    if (d.ok()) {
      m(i, j) = d.ValueOrDie();
      m(j, i) = d.ValueOrDie();
    } else {
      // Deterministically surface the error the serial loop would hit first
      // (the smallest flat index), independent of thread timing.
      std::lock_guard<std::mutex> lock(error_mu);
      if (p < first_error_p) {
        first_error_p = p;
        first_error = d.status();
      }
    }
  });
  BAGCPD_RETURN_NOT_OK(first_error);
  return m;
}

Result<Matrix> CrossDistanceMatrix(const SignatureSet& a,
                                   const SignatureSet& b,
                                   GroundDistance ground) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 || m == 0) return Status::Invalid("no signatures");
  // Row-batched like PairwiseEmdMatrix: each output row is one shared-left
  // ComputeBatch writing straight into the row-major Matrix storage.
  EmdWorkspace workspace;
  Matrix out(n, m);
  std::vector<SignatureView> rights;
  rights.reserve(m);
  for (std::size_t j = 0; j < m; ++j) rights.push_back(b.view(j));
  for (std::size_t i = 0; i < n; ++i) {
    BAGCPD_RETURN_NOT_OK(workspace.ComputeBatch(a.view(i), rights.data(), m,
                                                ground, &out(i, 0)));
  }
  return out;
}

Result<Matrix> CrossDistanceMatrix(const SignatureSet& a,
                                   const SignatureSet& b,
                                   GroundDistance ground, ThreadPool* pool) {
  if (pool == nullptr) return CrossDistanceMatrix(a, b, ground);
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 || m == 0) return Status::Invalid("no signatures");
  // Deterministic row chunking: ParallelFor splits the n rows purely as a
  // function of (n, pool size), each worker batch-solves whole rows through
  // its thread-local workspace (one shared-left ComputeBatch per row, same
  // as the serial impl), and every cell depends only on its two signatures —
  // so the matrix is bitwise-identical to the serial overload for any pool
  // size.
  Matrix out(n, m);
  std::vector<SignatureView> rights;
  rights.reserve(m);
  for (std::size_t j = 0; j < m; ++j) rights.push_back(b.view(j));
  std::mutex error_mu;
  std::size_t first_error_row = n;  // n == "no error".
  Status first_error;
  pool->ParallelFor(0, n, [&](std::size_t i) {
    const Status s = ThreadLocalEmdWorkspace().ComputeBatch(
        a.view(i), rights.data(), m, ground, &out(i, 0));
    if (s.ok()) return;
    // Surface the error the serial row-major loop would hit first,
    // independent of thread timing: ComputeBatch already stops a row at its
    // first failing column, and the lowest failing row wins here.
    std::lock_guard<std::mutex> lock(error_mu);
    if (i < first_error_row) {
      first_error_row = i;
      first_error = s;
    }
  });
  BAGCPD_RETURN_NOT_OK(first_error);
  return out;
}

}  // namespace bagcpd

#include "bagcpd/emd/emd.h"

#include <algorithm>
#include <vector>

#include "bagcpd/common/check.h"
#include "bagcpd/emd/emd_1d.h"
#include "bagcpd/emd/transport_solver.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {

// Every entry point below runs on an EmdWorkspace (emd/transport_solver.h):
// a matrix fill runs one chunk body, which solves on one workspace for the
// whole matrix without a pool and on each pool thread's workspace with one
// (runtime/thread_pool.h ForEachChunk), and the free
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
                                 GroundDistance ground, ThreadPool* pool) {
  const std::size_t n = signatures.size();
  if (n == 0) return Status::Invalid("no signatures");
  // Chunks cover the flat index of the strict upper triangle, row by row,
  // so the static split divides the actual work. A chunk solves each row
  // segment it covers as one shared-left ComputeBatch — row i's signature
  // against a run of signatures j > i — written straight into the row-major
  // matrix; without a pool the one chunk is every row in order. Each pair's
  // EMD depends only on its two signatures, so the matrix is bitwise the
  // same for any pool size (ComputeBatch always runs the full
  // transportation solve, never the 1-d sweep), and the error returned is
  // the lowest failing pair's.
  std::vector<SignatureView> views;
  views.reserve(n);
  for (std::size_t i = 0; i < n; ++i) views.push_back(signatures.view(i));
  Matrix m(n, n, 0.0);
  EmdWorkspace serial;
  BAGCPD_RETURN_NOT_OK(ForEachChunk(
      pool, 0, n * (n - 1) / 2,
      [&](std::size_t begin, std::size_t end) -> Status {
        EmdWorkspace& workspace =
            pool == nullptr ? serial : ThreadLocalEmdWorkspace();
        std::size_t i = 0;
        std::size_t row = 0;  // Flat index of pair (i, i + 1).
        while (row + (n - 1 - i) <= begin) {
          row += n - 1 - i;
          ++i;
        }
        for (std::size_t p = begin; p < end; ++i) {
          const std::size_t j = i + 1 + (p - row);
          const std::size_t count = std::min(end, row + (n - 1 - i)) - p;
          BAGCPD_RETURN_NOT_OK(workspace.ComputeBatch(
              views[i], views.data() + j, count, ground, &m(i, j)));
          p += count;
          row += n - 1 - i;
        }
        return Status::OK();
      }));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) m(j, i) = m(i, j);
  }
  return m;
}

Result<Matrix> CrossDistanceMatrix(const SignatureSet& a,
                                   const SignatureSet& b,
                                   GroundDistance ground, ThreadPool* pool) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 || m == 0) return Status::Invalid("no signatures");
  // Chunks cover rows; each row is one shared-left ComputeBatch writing
  // straight into the row-major Matrix storage, and without a pool the one
  // chunk is every row in order. Bitwise the same for any pool size, with
  // the lowest failing row's error, as in PairwiseEmdMatrix.
  std::vector<SignatureView> rights;
  rights.reserve(m);
  for (std::size_t j = 0; j < m; ++j) rights.push_back(b.view(j));
  Matrix out(n, m);
  EmdWorkspace serial;
  BAGCPD_RETURN_NOT_OK(ForEachChunk(
      pool, 0, n, [&](std::size_t begin, std::size_t end) -> Status {
        EmdWorkspace& workspace =
            pool == nullptr ? serial : ThreadLocalEmdWorkspace();
        for (std::size_t i = begin; i < end; ++i) {
          BAGCPD_RETURN_NOT_OK(workspace.ComputeBatch(
              a.view(i), rights.data(), m, ground, &out(i, 0)));
        }
        return Status::OK();
      }));
  return out;
}

}  // namespace bagcpd

#include "bagcpd/emd/emd.h"

#include <algorithm>
#include <vector>

#include "bagcpd/common/check.h"
#include "bagcpd/emd/approx/emd_solver.h"
#include "bagcpd/emd/transport_solver.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {

Result<EmdSolution> ComputeEmdDetailed(SignatureView a, SignatureView b,
                                       GroundDistance ground) {
  return DefaultEmdWorkspace().ComputeDetailed(a, b, ground);
}

Result<double> ComputeEmd(SignatureView a, SignatureView b,
                          GroundDistance ground) {
  return DefaultEmdWorkspace().Compute(a, b, ground);
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
  // same for any pool size, and the error returned is the lowest failing
  // pair's.
  std::vector<SignatureView> views;
  views.reserve(n);
  for (std::size_t i = 0; i < n; ++i) views.push_back(signatures.view(i));
  Matrix m(n, n, 0.0);
  BAGCPD_RETURN_NOT_OK(ForEachChunk(
      pool, 0, n * (n - 1) / 2,
      [&](std::size_t begin, std::size_t end) -> Status {
        EmdWorkspace& workspace = DefaultEmdWorkspace();
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
  BAGCPD_RETURN_NOT_OK(ForEachChunk(
      pool, 0, n, [&](std::size_t begin, std::size_t end) -> Status {
        EmdWorkspace& workspace = DefaultEmdWorkspace();
        for (std::size_t i = begin; i < end; ++i) {
          BAGCPD_RETURN_NOT_OK(workspace.ComputeBatch(
              a.view(i), rights.data(), m, ground, &out(i, 0)));
        }
        return Status::OK();
      }));
  return out;
}

}  // namespace bagcpd

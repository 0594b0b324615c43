// Sliced approximate EMD: project both signatures' centers onto n fixed
// unit directions, solve the exact 1-d transport on each line with a sorted
// CDF sweep, and average.
//
// In d = 1 a single slice IS the exact EMD between the mass-normalized
// signatures. In d > 1 the sliced value is a well-defined transport metric
// of its own that lower-bounds the exact EMD (projection is 1-Lipschitz for
// the Euclidean-family grounds) and stabilizes as n grows; it is NOT a
// consistent estimator of the exact value, which is why the property tests
// pin exactness in d = 1 and Cauchy-stabilization — not convergence to
// exact — in d > 1.
//
// Directions are generated from a fixed seed as normalized Gaussian draws,
// so two solvers with the same (n, d) use identical directions: results are
// bitwise-deterministic across solver instances, threads, and shards.

#ifndef BAGCPD_EMD_APPROX_SLICED_H_
#define BAGCPD_EMD_APPROX_SLICED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bagcpd/common/result.h"
#include "bagcpd/emd/approx/options.h"
#include "bagcpd/signature/signature.h"

namespace bagcpd {

/// \brief Reusable sliced-EMD state: the cached direction matrix plus the
/// per-solve projection/sort scratch. Same monotonic-growth + counter
/// discipline as EmdWorkspace/SinkhornScratch.
class SlicedScratch {
 public:
  std::uint64_t allocation_count() const { return allocation_count_; }
  std::uint64_t solve_count() const { return solve_count_; }

 private:
  friend Result<double> SlicedEmd(SignatureView a, SignatureView b,
                                  const EmdSolverOptions& options,
                                  SlicedScratch* scratch);

  template <typename T>
  void Ensure(std::vector<T>* v, std::size_t count) {
    if (v->size() >= count) return;
    if (v->capacity() < count) ++allocation_count_;
    v->resize(count);
  }

  void EnsureDirections(std::size_t n, std::size_t dim);

  std::vector<double> directions_;  // n x dim unit vectors, row-major.
  std::size_t directions_n_ = 0;    // Shape the cache currently holds.
  std::size_t directions_dim_ = 0;

  std::vector<double> proj_a_;          // Projected supply positions (K).
  std::vector<double> proj_b_;          // Projected demand positions (L).
  std::vector<double> p_;               // Unit-mass supply weights (K).
  std::vector<double> q_;               // Unit-mass demand weights (L).
  std::vector<std::size_t> order_a_;    // Sort permutations per slice.
  std::vector<std::size_t> order_b_;

  std::uint64_t allocation_count_ = 0;
  std::uint64_t solve_count_ = 0;
};

/// \brief Sliced approximate EMD between two signatures of equal dimension.
///
/// Weights are normalized to unit mass (same distribution semantics as
/// SinkhornEmd). The projected 1-d transport always uses the absolute
/// positional difference as its line cost — the Euclidean-family
/// approximation — regardless of the configured GroundDistance.
Result<double> SlicedEmd(SignatureView a, SignatureView b,
                         const EmdSolverOptions& options,
                         SlicedScratch* scratch);

}  // namespace bagcpd

#endif  // BAGCPD_EMD_APPROX_SLICED_H_

// Entropic-regularized approximate EMD (Cuturi-style Sinkhorn scaling) over
// a prepared K x L ground-distance matrix.
//
// The exact transportation solve costs O(K^3)-ish per pair; Sinkhorn runs a
// fixed, data-independent sequence of dense products — G v and G^T u over
// the Gibbs kernel G, once each per iteration. The price is an entropic
// bias: the returned value upper-bounds the exact EMD and approaches it as
// eps -> 0.
//
// Kernel layout and summation order: G is one row-major K x L buffer (no
// transposed copy). Every entry of both products is a sum in a fixed order:
// kv[i] adds G_ij v_j for j ascending, ktu[j] adds G_ij u_i for i ascending,
// each from 0.0. No compiler may vectorize a kv sum (that would reassociate
// it), so left to the compiler G v runs as K serial dot products. The x86-64
// build vectorizes across entries instead, two per SSE2 register: G v runs row
// pairs, reading 2 x 2 tiles of G and transposing the products so that each
// lane adds its own row's terms in j order; G^T u runs pairs of adjacent
// columns with i ascending; u = p / kv and v = q / ktu divide two entries per
// instruction, with the underflow test as a lane mask checked before any
// quotient is stored (kv itself is never stored: a row pair's u follows its
// sums). Each entry thus goes through the IEEE operations of the scalar loops,
// in their order, and the baseline x86-64 target has no FMA to contract a
// multiply and an add, so SSE2 and scalar builds return bitwise-identical
// values (approx_solver_test pins this against a scalar reference).
//
// Determinism contract: for equal inputs and equal options the iteration
// count, every intermediate, and the returned value are bitwise-identical —
// no threading, no data-dependent reordering, a hard iteration cap, and a
// convergence test on exact floating-point comparisons.

#ifndef BAGCPD_EMD_APPROX_SINKHORN_H_
#define BAGCPD_EMD_APPROX_SINKHORN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bagcpd/common/result.h"
#include "bagcpd/emd/approx/options.h"

namespace bagcpd {

/// \brief Reusable Sinkhorn iteration state. Buffers grow monotonically
/// (allocation_count pins zero steady-state allocations, same discipline as
/// EmdWorkspace); Release() drops them for the byte-ceiling policy.
class SinkhornScratch {
 public:
  std::uint64_t allocation_count() const { return allocation_count_; }
  std::uint64_t solve_count() const { return solve_count_; }
  std::size_t retained_bytes() const;
  void Release();

 private:
  friend Result<double> SinkhornEmd(const double* cost, std::size_t k,
                                    std::size_t l, const double* wa,
                                    const double* wb,
                                    const EmdSolverOptions& options,
                                    SinkhornScratch* scratch);

  void Ensure(std::vector<double>* v, std::size_t count) {
    if (v->size() >= count) return;
    if (v->capacity() < count) ++allocation_count_;
    v->resize(count);
  }

  std::vector<double> kernel_;  // K x L Gibbs kernel exp(-C / eps_abs).
  std::vector<double> p_;       // Unit-mass-normalized supply weights (K).
  std::vector<double> q_;       // Unit-mass-normalized demand weights (L).
  std::vector<double> u_;       // Row scaling vector (K).
  std::vector<double> v_;       // Column scaling vector (L).
  std::vector<double> ktu_;     // kernel^T * u (L).

  std::uint64_t allocation_count_ = 0;
  std::uint64_t solve_count_ = 0;
};

/// \brief Approximate EMD between two weighted point sets whose K x L
/// ground-distance matrix is already computed (EmdWorkspace::PrepareCost).
///
/// Both weight vectors are normalized to unit mass first, so the result
/// approximates the EMD between the signatures viewed as probability
/// distributions — identical semantics to the exact partial-matching value
/// whenever the two signatures carry equal total weight (the detector path:
/// signatures are weight-normalized). eps is relative to the mean ground
/// distance (see EmdSolverOptions); an eps small enough to underflow the
/// Gibbs kernel returns an error rather than a garbage value.
Result<double> SinkhornEmd(const double* cost, std::size_t k, std::size_t l,
                           const double* wa, const double* wb,
                           const EmdSolverOptions& options,
                           SinkhornScratch* scratch);

}  // namespace bagcpd

#endif  // BAGCPD_EMD_APPROX_SINKHORN_H_

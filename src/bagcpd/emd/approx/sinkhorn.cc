#include "bagcpd/emd/approx/sinkhorn.h"

#include <cmath>

// The SSE2 loops must round exactly like the scalar ones, which x86-64
// guarantees (scalar doubles live in SSE registers there, never in x87);
// every other build runs the scalar loops.
#if defined(__SSE2__) && defined(__x86_64__)
#include <emmintrin.h>
#define BAGCPD_SINKHORN_SSE2 1
#endif

#include "bagcpd/fault/fault_injector.h"

namespace bagcpd {

namespace {

// A scaling denominator below this means the Gibbs kernel has underflowed
// for an entire row/column — the regularization is too sharp for the cost
// spread and continuing would divide by (near-)zero.
constexpr double kUnderflowFloor = 1e-290;

#ifdef BAGCPD_SINKHORN_SSE2
// u[r] = p[r] / kv[r] for the 2 * kPairs kernel rows starting at `rows`,
// two rows per accumulator (row 2r in lane 0, row 2r + 1 in lane 1). Each
// step reads a 2 x 2 tile, multiplies both rows by v[j..j+1], and transposes
// the products so that each lane adds its row's term j and then its term
// j + 1. An odd column count ends on one product per row. False, with
// nothing stored for that pair, when a kv lane is not above the floor.
template <int kPairs>
bool ScaleRowPairs(const double* rows, std::size_t l, const double* v,
                   const double* p, double* u) {
  __m128d acc[kPairs];
  for (int r = 0; r < kPairs; ++r) acc[r] = _mm_setzero_pd();
  std::size_t j = 0;
  for (; j + 2 <= l; j += 2) {
    const __m128d vj = _mm_loadu_pd(v + j);
    for (int r = 0; r < kPairs; ++r) {
      const double* row = rows + 2 * r * l + j;
      const __m128d prod0 = _mm_mul_pd(_mm_loadu_pd(row), vj);
      const __m128d prod1 = _mm_mul_pd(_mm_loadu_pd(row + l), vj);
      acc[r] = _mm_add_pd(acc[r], _mm_unpacklo_pd(prod0, prod1));
      acc[r] = _mm_add_pd(acc[r], _mm_unpackhi_pd(prod0, prod1));
    }
  }
  if (j < l) {
    const __m128d vj = _mm_set1_pd(v[j]);
    for (int r = 0; r < kPairs; ++r) {
      const double* row = rows + 2 * r * l + j;
      const __m128d tail = _mm_set_pd(row[l], row[0]);
      acc[r] = _mm_add_pd(acc[r], _mm_mul_pd(tail, vj));
    }
  }
  const __m128d floor = _mm_set1_pd(kUnderflowFloor);
  for (int r = 0; r < kPairs; ++r) {
    if (_mm_movemask_pd(_mm_cmpgt_pd(acc[r], floor)) != 3) return false;
    _mm_storeu_pd(u + 2 * r, _mm_div_pd(_mm_loadu_pd(p + 2 * r), acc[r]));
  }
  return true;
}

// ktu[c] for the 2 * kPairs kernel columns starting at `columns`, two
// adjacent columns per accumulator, adding row i's terms for i ascending.
template <int kPairs>
void ColumnPairsTimesU(const double* columns, std::size_t k, std::size_t l,
                       const double* u, double* ktu) {
  __m128d acc[kPairs];
  for (int c = 0; c < kPairs; ++c) acc[c] = _mm_setzero_pd();
  for (std::size_t i = 0; i < k; ++i) {
    const __m128d ui = _mm_set1_pd(u[i]);
    const double* row = columns + i * l;
    for (int c = 0; c < kPairs; ++c) {
      acc[c] = _mm_add_pd(acc[c], _mm_mul_pd(_mm_loadu_pd(row + 2 * c), ui));
    }
  }
  for (int c = 0; c < kPairs; ++c) _mm_storeu_pd(ktu + 2 * c, acc[c]);
}
#endif

// u = p / kv with kv = kernel * v, where kv[i] sums kernel[i][j] * v[j] from
// 0.0 in ascending j. False when some kv[i] is not above kUnderflowFloor
// (NaN included); u is then partly written. SSE2 takes rows four at a time,
// then a last pair; an odd row count ends on a scalar row.
bool ScaleRows(const double* kernel, std::size_t k, std::size_t l,
               const double* v, const double* p, double* u) {
  std::size_t i = 0;
#ifdef BAGCPD_SINKHORN_SSE2
  for (; i + 4 <= k; i += 4) {
    if (!ScaleRowPairs<2>(kernel + i * l, l, v, p + i, u + i)) return false;
  }
  if (i + 2 <= k) {
    if (!ScaleRowPairs<1>(kernel + i * l, l, v, p + i, u + i)) return false;
    i += 2;
  }
#endif
  for (; i < k; ++i) {
    const double* row = kernel + i * l;
    double kv = 0.0;
    for (std::size_t j = 0; j < l; ++j) kv += row[j] * v[j];
    if (!(kv > kUnderflowFloor)) return false;
    u[i] = p[i] / kv;
  }
  return true;
}

// ktu = kernel^T * u: ktu[j] sums kernel[i][j] * u[i] from 0.0 in ascending
// i. SSE2 takes columns eight at a time, then pairs; an odd column count
// ends on a scalar column.
void KernelTransposeTimesU(const double* kernel, std::size_t k, std::size_t l,
                           const double* u, double* ktu) {
  std::size_t j = 0;
#ifdef BAGCPD_SINKHORN_SSE2
  for (; j + 8 <= l; j += 8) {
    ColumnPairsTimesU<4>(kernel + j, k, l, u, ktu + j);
  }
  for (; j + 2 <= l; j += 2) {
    ColumnPairsTimesU<1>(kernel + j, k, l, u, ktu + j);
  }
#endif
  for (; j < l; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < k; ++i) acc += kernel[i * l + j] * u[i];
    ktu[j] = acc;
  }
}

// v = q / ktu, two entries per SSE2 division. False when some ktu[j] is not
// above kUnderflowFloor (NaN included); v is then partly written.
bool ScaleColumns(const double* q, const double* ktu, std::size_t l,
                  double* v) {
  std::size_t j = 0;
#ifdef BAGCPD_SINKHORN_SSE2
  const __m128d floor = _mm_set1_pd(kUnderflowFloor);
  for (; j + 2 <= l; j += 2) {
    const __m128d d = _mm_loadu_pd(ktu + j);
    if (_mm_movemask_pd(_mm_cmpgt_pd(d, floor)) != 3) return false;
    _mm_storeu_pd(v + j, _mm_div_pd(_mm_loadu_pd(q + j), d));
  }
#endif
  for (; j < l; ++j) {
    if (!(ktu[j] > kUnderflowFloor)) return false;
    v[j] = q[j] / ktu[j];
  }
  return true;
}

Status ScalingUnderflow() {
  return Status::Invalid(
      "sinkhorn scaling underflowed: eps is too small for the cost spread "
      "of this pair (increase sinkhorn eps)");
}

}  // namespace

Result<double> SinkhornEmd(const double* cost, std::size_t k, std::size_t l,
                           const double* wa, const double* wb,
                           const EmdSolverOptions& options,
                           SinkhornScratch* scratch) {
  scratch->Ensure(&scratch->kernel_, k * l);
  scratch->Ensure(&scratch->p_, k);
  scratch->Ensure(&scratch->q_, l);
  scratch->Ensure(&scratch->u_, k);
  scratch->Ensure(&scratch->v_, l);
  scratch->Ensure(&scratch->ktu_, l);
  double* kernel = scratch->kernel_.data();
  double* p = scratch->p_.data();
  double* q = scratch->q_.data();
  double* u = scratch->u_.data();
  double* v = scratch->v_.data();
  double* ktu = scratch->ktu_.data();

  // Unit-mass normalization (signature weights are strictly positive, so
  // both totals are > 0).
  double total_a = 0.0;
  for (std::size_t i = 0; i < k; ++i) total_a += wa[i];
  double total_b = 0.0;
  for (std::size_t j = 0; j < l; ++j) total_b += wb[j];
  for (std::size_t i = 0; i < k; ++i) p[i] = wa[i] / total_a;
  for (std::size_t j = 0; j < l; ++j) q[j] = wb[j] / total_b;

  // eps is relative to the mean ground distance so the iteration behaves
  // identically under a global rescaling of the coordinates.
  double cost_sum = 0.0;
  for (std::size_t e = 0; e < k * l; ++e) cost_sum += cost[e];
  const double mean_cost = cost_sum / static_cast<double>(k * l);
  if (mean_cost == 0.0) {
    // Every pairwise distance is zero, so no transport costs anything.
    ++scratch->solve_count_;
    return 0.0;
  }
  const double eps_abs = options.sinkhorn_eps * mean_cost;

  const double inv_eps = 1.0 / eps_abs;
  for (std::size_t e = 0; e < k * l; ++e) {
    kernel[e] = std::exp(-cost[e] * inv_eps);
  }

  for (std::size_t j = 0; j < l; ++j) v[j] = 1.0;

  // Scaling iterations. Each round satisfies the row marginals exactly and
  // measures the remaining column violation; the loop ends on tolerance or
  // on the hard cap, both pure functions of the inputs.
  for (std::size_t iter = 0; iter < options.sinkhorn_max_iters; ++iter) {
    // `sinkhorn.iterate` fault point: keyed to the iteration ordinal (and
    // the owner's fault_scope), so an armed drill fails the same pairs no
    // matter which thread or pool size runs the solve. Surfaces as the
    // underflow-style error, exercising the `emd-fallback=exact` path.
    if (fault::FaultFires(fault::FaultPoint::kSinkhornIterate,
                          options.fault_scope, iter + 1)) {
      return Status::Invalid(
          "fault-injected: sinkhorn.iterate (simulated scaling underflow)");
    }
    if (!ScaleRows(kernel, k, l, v, p, u)) return ScalingUnderflow();
    KernelTransposeTimesU(kernel, k, l, u, ktu);
    // Column violation under the CURRENT v — if already within tolerance the
    // coupling is (numerically) doubly stochastic and iterating further
    // would only change the result below the requested accuracy.
    double err = 0.0;
    for (std::size_t j = 0; j < l; ++j) {
      err += std::abs(v[j] * ktu[j] - q[j]);
    }
    if (err <= options.sinkhorn_tolerance) break;
    if (!ScaleColumns(q, ktu, l, v)) return ScalingUnderflow();
  }

  // Transport cost of the (approximately) optimal coupling
  // P_ij = u_i K_ij v_j; the coupling carries unit mass, so Eq. 12's
  // moved-mass normalization is the identity here.
  double transport = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double* krow = kernel + i * l;
    const double* crow = cost + i * l;
    double acc = 0.0;
    for (std::size_t j = 0; j < l; ++j) acc += krow[j] * v[j] * crow[j];
    transport += u[i] * acc;
  }
  if (!std::isfinite(transport)) {
    return Status::Invalid(
        "sinkhorn transport cost is non-finite (eps too small for this "
        "pair)");
  }
  ++scratch->solve_count_;
  return transport;
}

}  // namespace bagcpd

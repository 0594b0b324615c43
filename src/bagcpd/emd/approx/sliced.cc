#include "bagcpd/emd/approx/sliced.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "bagcpd/common/rng.h"

namespace bagcpd {

namespace {

// Fixed seed for the projection directions: every SlicedScratch everywhere
// derives the identical direction set for a given (n, dim), which is what
// makes sliced results comparable across solver instances and processes.
constexpr std::uint64_t kSlicedDirectionSeed = 0x51D15EEDCA7B0A6DULL;

// Exact 1-d balanced transport between two sorted weighted point lists:
// integrate |F_a - F_b| over the merged event positions, on borrowed
// scratch.
// Ties take the a-side event first — a fixed rule, so the accumulation
// order (and its rounding) is a pure function of the inputs.
double SweepLine(const double* pa, const double* p, const std::size_t* oa,
                 std::size_t k, const double* pb, const double* q,
                 const std::size_t* ob, std::size_t l) {
  std::size_t ia = 0;
  std::size_t ib = 0;
  double cdf_gap = 0.0;
  double cost = 0.0;
  double prev_pos = 0.0;
  bool first = true;
  while (ia < k || ib < l) {
    const bool take_a =
        ib >= l || (ia < k && pa[oa[ia]] <= pb[ob[ib]]);
    const double pos = take_a ? pa[oa[ia]] : pb[ob[ib]];
    if (!first) cost += std::abs(cdf_gap) * (pos - prev_pos);
    first = false;
    if (take_a) {
      cdf_gap += p[oa[ia]];
      ++ia;
    } else {
      cdf_gap -= q[ob[ib]];
      ++ib;
    }
    prev_pos = pos;
  }
  return cost;
}

}  // namespace

void SlicedScratch::EnsureDirections(std::size_t n, std::size_t dim) {
  if (directions_n_ == n && directions_dim_ == dim) return;
  Ensure(&directions_, n * dim);
  Rng rng(kSlicedDirectionSeed);
  for (std::size_t r = 0; r < n; ++r) {
    double* dir = directions_.data() + r * dim;
    double norm = 0.0;
    do {
      double sq = 0.0;
      for (std::size_t t = 0; t < dim; ++t) {
        dir[t] = rng.Gaussian();
        sq += dir[t] * dir[t];
      }
      norm = std::sqrt(sq);
    } while (!(norm > 1e-12));  // Resample the (measure-zero) degenerate draw.
    for (std::size_t t = 0; t < dim; ++t) dir[t] /= norm;
  }
  directions_n_ = n;
  directions_dim_ = dim;
}

Result<double> SlicedEmd(SignatureView a, SignatureView b,
                         const EmdSolverOptions& options,
                         SlicedScratch* scratch) {
  BAGCPD_RETURN_NOT_OK(a.Validate());
  BAGCPD_RETURN_NOT_OK(b.Validate());
  if (a.dim() != b.dim()) {
    return Status::Invalid("signatures have different dimensions");
  }
  const std::size_t k = a.size();
  const std::size_t l = b.size();
  const std::size_t d = a.dim();
  const std::size_t n = options.sliced_projections;

  scratch->EnsureDirections(n, d);
  scratch->Ensure(&scratch->proj_a_, k);
  scratch->Ensure(&scratch->proj_b_, l);
  scratch->Ensure(&scratch->p_, k);
  scratch->Ensure(&scratch->q_, l);
  scratch->Ensure(&scratch->order_a_, k);
  scratch->Ensure(&scratch->order_b_, l);

  const double* ac = a.centers_data();
  const double* bc = b.centers_data();
  const double* wa = a.weights_data();
  const double* wb = b.weights_data();
  double* pa = scratch->proj_a_.data();
  double* pb = scratch->proj_b_.data();
  double* p = scratch->p_.data();
  double* q = scratch->q_.data();
  std::size_t* oa = scratch->order_a_.data();
  std::size_t* ob = scratch->order_b_.data();

  double total_a = 0.0;
  for (std::size_t i = 0; i < k; ++i) total_a += wa[i];
  double total_b = 0.0;
  for (std::size_t j = 0; j < l; ++j) total_b += wb[j];
  for (std::size_t i = 0; i < k; ++i) p[i] = wa[i] / total_a;
  for (std::size_t j = 0; j < l; ++j) q[j] = wb[j] / total_b;

  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const double* dir = scratch->directions_.data() + r * d;
    for (std::size_t i = 0; i < k; ++i) {
      const double* ci = ac + i * d;
      double dot = 0.0;
      for (std::size_t t = 0; t < d; ++t) dot += ci[t] * dir[t];
      pa[i] = dot;
    }
    for (std::size_t j = 0; j < l; ++j) {
      const double* cj = bc + j * d;
      double dot = 0.0;
      for (std::size_t t = 0; t < d; ++t) dot += cj[t] * dir[t];
      pb[j] = dot;
    }
    std::iota(oa, oa + k, std::size_t{0});
    std::iota(ob, ob + l, std::size_t{0});
    // Index tie-break pins the event order (and its rounding) even with
    // duplicate positions.
    std::sort(oa, oa + k, [pa](std::size_t x, std::size_t y) {
      return pa[x] != pa[y] ? pa[x] < pa[y] : x < y;
    });
    std::sort(ob, ob + l, [pb](std::size_t x, std::size_t y) {
      return pb[x] != pb[y] ? pb[x] < pb[y] : x < y;
    });
    acc += SweepLine(pa, p, oa, k, pb, q, ob, l);
  }
  ++scratch->solve_count_;
  return acc / static_cast<double>(n);
}

}  // namespace bagcpd

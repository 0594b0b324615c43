#include "bagcpd/emd/emd_1d.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace bagcpd {

namespace {
constexpr double kRelativeTolerance = 1e-9;
}  // namespace

bool Emd1dApplicable(SignatureView a, SignatureView b) {
  if (a.dim() != 1 || b.dim() != 1) return false;
  const double wa = a.TotalWeight();
  const double wb = b.TotalWeight();
  return std::abs(wa - wb) <= kRelativeTolerance * std::max(wa, wb);
}

Result<double> ComputeEmd1d(SignatureView a, SignatureView b,
                            GroundDistance ground) {
  BAGCPD_RETURN_NOT_OK(a.Validate());
  BAGCPD_RETURN_NOT_OK(b.Validate());
  if (!Emd1dApplicable(a, b) || (ground != GroundDistance::kEuclidean &&
                                  ground != GroundDistance::kManhattan)) {
    return Status::Invalid(
        "1-d fast path needs 1-d signatures with equal total weight and a "
        "Euclidean or Manhattan ground distance");
  }

  // Sweep events: position, signed weight (+ for a, - for b).
  struct Event {
    double position;
    double delta;
  };
  std::vector<Event> events;
  events.reserve(a.size() + b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    events.push_back(Event{a.center(k)[0], a.weight(k)});
  }
  for (std::size_t l = 0; l < b.size(); ++l) {
    events.push_back(Event{b.center(l)[0], -b.weight(l)});
  }
  // A non-finite center makes its distance to every center of the other
  // side non-finite, which the transportation solve rejects; reject it the
  // same way rather than sort and sum inf or NaN into the cost.
  const auto not_finite = [] {
    return Status::Invalid(
        "ground distance produced a negative or non-finite value");
  };
  for (const Event& e : events) {
    if (!std::isfinite(e.position)) return not_finite();
  }
  // The Euclidean fill squares each difference before its root, so it
  // refuses a pair whose widest difference squares past the doubles.
  if (ground == GroundDistance::kEuclidean) {
    const auto [a_lo, a_hi] =
        std::minmax_element(a.centers_data(), a.centers_data() + a.size());
    const auto [b_lo, b_hi] =
        std::minmax_element(b.centers_data(), b.centers_data() + b.size());
    const double widest = std::max(*a_hi - *b_lo, *b_hi - *a_lo);
    if (!std::isfinite(widest * widest)) return not_finite();
  }
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) {
              return x.position < y.position;
            });

  // cost = sum over gaps of |F_a - F_b| * gap.
  double cost = 0.0;
  double cdf_gap = 0.0;  // F_a(x) - F_b(x) after processing events <= x.
  for (std::size_t i = 0; i + 1 <= events.size(); ++i) {
    cdf_gap += events[i].delta;
    if (i + 1 < events.size()) {
      cost += std::abs(cdf_gap) *
              (events[i + 1].position - events[i].position);
    }
  }
  // Finite centers far enough apart still overflow the sum.
  if (!std::isfinite(cost)) {
    return Status::Invalid("EMD transport cost overflowed");
  }
  // Eq. 12 normalization by the transported mass (= the common total).
  return cost / a.TotalWeight();
}

}  // namespace bagcpd

#include "bagcpd/common/point.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bagcpd/common/check.h"

namespace bagcpd {

Bag BagView::ToBag() const {
  Bag out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i].ToPoint());
  return out;
}

double SquaredDistance(PointView a, PointView b) {
  BAGCPD_DCHECK(a.size() == b.size());
  const double* pa = a.data();
  const double* pb = b.data();
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = pa[i] - pb[i];
    acc += diff * diff;
  }
  return acc;
}

double EuclideanDistance(PointView a, PointView b) {
  return std::sqrt(SquaredDistance(a, b));
}

double ManhattanDistance(PointView a, PointView b) {
  BAGCPD_DCHECK(a.size() == b.size());
  const double* pa = a.data();
  const double* pb = b.data();
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += std::abs(pa[i] - pb[i]);
  }
  return acc;
}

Point BagMean(const Bag& bag) {
  BAGCPD_CHECK_MSG(!bag.empty(), "BagMean of empty bag");
  Point mean(bag.front().size(), 0.0);
  for (const Point& x : bag) {
    BAGCPD_DCHECK(x.size() == mean.size());
    for (std::size_t j = 0; j < mean.size(); ++j) mean[j] += x[j];
  }
  const double inv = 1.0 / static_cast<double>(bag.size());
  for (double& v : mean) v *= inv;
  return mean;
}

Point BagMean(BagView bag) {
  Point mean(bag.dim());
  BagMeanInto(bag, mean.data());
  return mean;
}

void BagMeanInto(BagView bag, double* mean) {
  BAGCPD_CHECK_MSG(!bag.empty(), "BagMean of empty bag");
  const std::size_t d = bag.dim();
  std::fill(mean, mean + d, 0.0);
  const double* row = bag.data();
  for (std::size_t i = 0; i < bag.size(); ++i, row += d) {
    for (std::size_t j = 0; j < d; ++j) mean[j] += row[j];
  }
  const double inv = 1.0 / static_cast<double>(bag.size());
  for (std::size_t j = 0; j < d; ++j) mean[j] *= inv;
}

Status ValidateBag(const Bag& bag, std::size_t expected_dim) {
  if (bag.empty()) return Status::Invalid("bag is empty");
  std::size_t dim = expected_dim != 0 ? expected_dim : bag.front().size();
  if (dim == 0) return Status::Invalid("bag contains zero-dimensional points");
  for (std::size_t i = 0; i < bag.size(); ++i) {
    if (bag[i].size() != dim) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "point %zu has dimension %zu, expected %zu", i,
                    bag[i].size(), dim);
      return Status::Invalid(buf);
    }
  }
  return Status::OK();
}

Status ValidateBagView(BagView bag, std::size_t expected_dim) {
  if (bag.empty()) return Status::Invalid("bag is empty");
  if (bag.dim() == 0) {
    return Status::Invalid("bag contains zero-dimensional points");
  }
  if (expected_dim != 0 && bag.dim() != expected_dim) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "bag has dimension %zu, expected %zu",
                  bag.dim(), expected_dim);
    return Status::Invalid(buf);
  }
  return Status::OK();
}

Status CheckBagViewFinite(BagView bag) {
  const double* values = bag.data();
  const std::size_t count = bag.value_count();
  for (std::size_t v = 0; v < count; ++v) {
    if (!std::isfinite(values[v])) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "point %zu holds a non-finite coordinate (index %zu)",
                    bag.dim() == 0 ? std::size_t{0} : v / bag.dim(),
                    bag.dim() == 0 ? std::size_t{0} : v % bag.dim());
      return Status::Invalid(buf);
    }
  }
  return Status::OK();
}

Status ValidateBagSequence(const BagSequence& bags) {
  if (bags.empty()) return Status::Invalid("bag sequence is empty");
  const std::size_t dim = bags.front().empty() ? 0 : bags.front().front().size();
  for (std::size_t t = 0; t < bags.size(); ++t) {
    Status st = ValidateBag(bags[t], dim);
    if (!st.ok()) {
      return Status::Invalid("bag at time " + std::to_string(t) + ": " +
                             st.message());
    }
  }
  return Status::OK();
}

}  // namespace bagcpd

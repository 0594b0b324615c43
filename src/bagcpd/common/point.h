// Core data vocabulary of the library: a Point is one d-dimensional
// observation, a Bag is the collection of Points observed at one time step
// (paper Eq. 3), and a BagSequence is the stream the detector consumes.
//
// Two representations coexist:
//  * the nested convenience types (Point / Bag) — one heap allocation per
//    observation, kept for examples, data generators, and incremental
//    migration;
//  * the flat, cache-friendly views (PointView / BagView, backed by FlatBag
//    in flat_bag.h) — a single contiguous row-major buffer that all hot
//    kernels consume with zero per-point allocations.
//
// The distance kernels below accept views; `const Point&` converts to a
// PointView implicitly and at zero cost, so nested callers keep working.

#ifndef BAGCPD_COMMON_POINT_H_
#define BAGCPD_COMMON_POINT_H_

#include <cstddef>
#include <vector>

#include "bagcpd/common/status.h"

namespace bagcpd {

/// \brief One d-dimensional observation x in R^d (owning, nested form).
using Point = std::vector<double>;

/// \brief The bag B_t = {x_i^(t)} of observations at one time step. Bags in a
/// sequence may have different sizes n_t but must share the dimension d.
using Bag = std::vector<Point>;

/// \brief A time-ordered sequence of bags.
using BagSequence = std::vector<Bag>;

/// \brief Non-owning view of one observation: a pointer into contiguous
/// storage plus the dimension. Trivially copyable; pass by value.
///
/// Implicitly constructible from `const Point&` so every kernel taking a
/// PointView also accepts the nested type with no conversion cost. The view
/// never outlives the buffer it points into.
class PointView {
 public:
  constexpr PointView() = default;
  constexpr PointView(const double* data, std::size_t dim)
      : data_(data), dim_(dim) {}
  // Implicit: a Point is already contiguous storage.
  PointView(const Point& p)  // NOLINT(runtime/explicit)
      : data_(p.data()), dim_(p.size()) {}

  std::size_t size() const { return dim_; }
  bool empty() const { return dim_ == 0; }
  const double* data() const { return data_; }
  double operator[](std::size_t i) const { return data_[i]; }
  const double* begin() const { return data_; }
  const double* end() const { return data_ + dim_; }

  /// \brief Materializes an owning copy.
  Point ToPoint() const { return Point(data_, data_ + dim_); }

 private:
  const double* data_ = nullptr;
  std::size_t dim_ = 0;
};

/// \brief Non-owning view of a whole bag as one row-major `n x d` buffer.
/// Rectangular by construction: every row has the same dimension.
class BagView {
 public:
  constexpr BagView() = default;
  constexpr BagView(const double* data, std::size_t size, std::size_t dim)
      : data_(data), size_(size), dim_(dim) {}

  /// \brief Number of observations n.
  std::size_t size() const { return size_; }
  /// \brief Dimension d of each observation.
  std::size_t dim() const { return dim_; }
  bool empty() const { return size_ == 0; }
  /// \brief The underlying contiguous buffer (n * dim doubles).
  const double* data() const { return data_; }
  std::size_t value_count() const { return size_ * dim_; }

  PointView operator[](std::size_t i) const {
    return PointView(data_ + i * dim_, dim_);
  }

  /// \brief Iterates rows as PointViews (enables range-for).
  class const_iterator {
   public:
    const_iterator(const double* p, std::size_t dim) : p_(p), dim_(dim) {}
    PointView operator*() const { return PointView(p_, dim_); }
    const_iterator& operator++() {
      p_ += dim_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return p_ != o.p_; }
    bool operator==(const const_iterator& o) const { return p_ == o.p_; }

   private:
    const double* p_;
    std::size_t dim_;
  };
  const_iterator begin() const { return const_iterator(data_, dim_); }
  const_iterator end() const {
    return const_iterator(data_ + size_ * dim_, dim_);
  }

  /// \brief Materializes an owning nested copy.
  Bag ToBag() const;

 private:
  const double* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t dim_ = 0;
};

/// \brief Squared Euclidean distance between two points of equal dimension.
double SquaredDistance(PointView a, PointView b);

/// \brief Euclidean distance between two points of equal dimension.
double EuclideanDistance(PointView a, PointView b);

/// \brief L1 (Manhattan) distance between two points of equal dimension.
double ManhattanDistance(PointView a, PointView b);

/// \brief Component-wise mean of a non-empty bag (nested form).
Point BagMean(const Bag& bag);

/// \brief Component-wise mean of a non-empty bag (flat form).
Point BagMean(BagView bag);

/// \brief BagMean(bag) written to `mean[0..bag.dim())`, with no allocation.
void BagMeanInto(BagView bag, double* mean);

/// \brief Verifies that `bag` is non-empty and every point has dimension
/// `expected_dim` (or that all points agree if `expected_dim` == 0).
Status ValidateBag(const Bag& bag, std::size_t expected_dim = 0);

/// \brief Flat-form counterpart of ValidateBag. Raggedness is unrepresentable
/// in a BagView, so only emptiness / dimension checks remain.
Status ValidateBagView(BagView bag, std::size_t expected_dim = 0);

/// \brief Verifies that every value of `bag` is finite, naming the first
/// offending observation with kInvalidArgument otherwise. This is the
/// boundary sanitization the ingest paths (detector Push, engine Submit,
/// batch runner, loaders) apply so NaN/Inf never reaches a distance kernel.
Status CheckBagViewFinite(BagView bag);

/// \brief Verifies that every bag in the sequence is non-empty and all points
/// across all bags share one dimension.
Status ValidateBagSequence(const BagSequence& bags);

}  // namespace bagcpd

#endif  // BAGCPD_COMMON_POINT_H_

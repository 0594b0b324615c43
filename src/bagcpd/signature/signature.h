// Signature: the quantized representation S_t = {(u_k, w_k)} of a bag's
// underlying distribution (paper Eq. 6). Centers u_k live in R^d and w_k > 0
// counts (or weights) the observations assigned to center k.
//
// Storage is packed: ONE contiguous buffer of K*d + K doubles holds the
// row-major (K x d) center block followed by the K weights, so a signature is
// a single allocation and the EMD cost-matrix build streams centers and
// weights through the cache with zero pointer chasing. Access goes through
// the accessors: `center(k)` / `centers()` for the center block, `weights()`
// / `weight(k)` / `mutable_weights()` for the weight block.
//
// SignatureView is the non-owning counterpart (centers pointer + weights
// pointer + K + d): every distance kernel consumes views, a Signature
// converts implicitly, and SignatureSet / SignatureRing hand out views into
// their shared buffers.

#ifndef BAGCPD_SIGNATURE_SIGNATURE_H_
#define BAGCPD_SIGNATURE_SIGNATURE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "bagcpd/common/point.h"
#include "bagcpd/common/status.h"

namespace bagcpd {

/// \brief Non-owning read view of a signature's K weights. Trivially
/// copyable; pass by value. Comparable elementwise (test convenience).
class WeightsView {
 public:
  constexpr WeightsView() = default;
  constexpr WeightsView(const double* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const double* data() const { return data_; }
  double operator[](std::size_t k) const { return data_[k]; }
  const double* begin() const { return data_; }
  const double* end() const { return data_ + size_; }

  friend bool operator==(WeightsView a, WeightsView b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t k = 0; k < a.size_; ++k) {
      if (a.data_[k] != b.data_[k]) return false;
    }
    return true;
  }
  friend bool operator!=(WeightsView a, WeightsView b) { return !(a == b); }

 private:
  const double* data_ = nullptr;
  std::size_t size_ = 0;
};

class Signature;

/// \brief Non-owning view of one signature: a center block, a weight block,
/// and the shape (K, d). The blocks need not be adjacent, so a view can point
/// into a packed Signature buffer or into SignatureSet's split SoA buffers
/// alike. Never outlives the storage it points into.
class SignatureView {
 public:
  constexpr SignatureView() = default;
  constexpr SignatureView(const double* centers, const double* weights,
                          std::size_t k, std::size_t dim)
      : centers_(centers), weights_(weights), k_(k), dim_(dim) {}
  // Implicit: every kernel taking a SignatureView also accepts a Signature.
  SignatureView(const Signature& s);  // NOLINT(runtime/explicit)

  /// \brief Number of clusters K.
  std::size_t size() const { return k_; }
  /// \brief Dimension d of the centers.
  std::size_t dim() const { return dim_; }
  bool empty() const { return k_ == 0; }

  PointView center(std::size_t k) const {
    return PointView(centers_ + k * dim_, dim_);
  }
  BagView centers() const { return BagView(centers_, k_, dim_); }
  const double* centers_data() const { return centers_; }

  WeightsView weights() const { return WeightsView(weights_, k_); }
  double weight(std::size_t k) const { return weights_[k]; }
  const double* weights_data() const { return weights_; }

  /// \brief Sum of weights (total mass).
  double TotalWeight() const;

  /// \brief Structural validation (non-empty, d > 0, all weights finite
  /// and > 0).
  Status Validate() const;

  /// \brief Materializes an owning packed copy.
  Signature ToSignature() const;

 private:
  const double* centers_ = nullptr;
  const double* weights_ = nullptr;
  std::size_t k_ = 0;
  std::size_t dim_ = 0;
};

/// \brief A weighted point set summarizing one bag's distribution (owning,
/// packed form).
///
/// Invariants (checked by Validate()): centers non-empty, all centers share
/// one dimension and every weight is finite and strictly positive (the
/// packed layout makes center/weight count mismatches unrepresentable).
class Signature {
 public:
  Signature() = default;

  Signature(const Signature&) = default;
  Signature& operator=(const Signature&) = default;
  // Moves zero the source's shape so a moved-from Signature degrades to a
  // valid empty one (the storage move already clears the source buffer;
  // stale k_/dim_ over it would make every accessor read out of bounds).
  Signature(Signature&& other) noexcept { *this = std::move(other); }
  Signature& operator=(Signature&& other) noexcept {
    if (this != &other) {
      storage_ = std::move(other.storage_);
      k_ = other.k_;
      dim_ = other.dim_;
      other.k_ = 0;
      other.dim_ = 0;
    }
    return *this;
  }

  /// \brief Builds a signature from nested centers (test/interop helper).
  /// Aborts on ragged centers or a weight-count mismatch; use Validate() for
  /// recoverable checking of the remaining invariants.
  static Signature FromCenters(const std::vector<Point>& centers,
                               std::vector<double> weights);

  /// \brief Packs an already-flat row-major (K x d) center buffer and its
  /// weights into the single-buffer layout.
  static Signature FromFlat(std::vector<double> flat_centers, std::size_t dim,
                            std::vector<double> weights);

  /// \brief Number of clusters K.
  std::size_t size() const { return k_; }

  /// \brief Dimension d of the centers (0 if empty).
  std::size_t dim() const { return dim_; }

  /// \brief Zero-copy view of center u_k.
  PointView center(std::size_t k) const {
    return PointView(data() + k * dim_, dim_);
  }

  /// \brief Mutable pointer to center u_k's row (dim() doubles).
  double* mutable_center(std::size_t k) { return data() + k * dim_; }

  /// \brief Zero-copy view over all centers as a (K x d) bag.
  BagView centers() const { return BagView(data(), k_, dim_); }

  /// \brief Read view of the K weights (w_k > 0 for every center).
  WeightsView weights() const { return WeightsView(data() + k_ * dim_, k_); }

  /// \brief Weight w_k of center u_k.
  double weight(std::size_t k) const { return data()[k_ * dim_ + k]; }

  /// \brief Mutable pointer to the weight block (size() doubles); scores and
  /// tests rescale weights in place through it.
  double* mutable_weights() { return data() + k_ * dim_; }
  void set_weight(std::size_t k, double w) { data()[k_ * dim_ + k] = w; }

  /// \brief Copy of the contiguous center block (size() * dim() doubles).
  /// Compatibility shim from the split-storage era: the centers are a prefix
  /// of the packed buffer, so this copies; prefer centers() for zero-copy.
  std::vector<double> flat_centers() const;

  /// \brief The packed (K*d + K) buffer: centers then weights.
  const std::vector<double>& packed() const { return storage_; }

  /// \brief Zero-copy view of the whole signature.
  SignatureView view() const {
    return SignatureView(data(), data() + k_ * dim_, k_, dim_);
  }

  /// \brief Appends center u_k = `center` with weight w_k = `weight`. The
  /// first center fixes the dimension; later mismatches abort (quantizers
  /// produce consistent dimensions by construction). Safe to pass a view
  /// into this signature's own storage.
  void AddCenter(PointView center, double weight);

  /// \brief Pre-allocates room for `count` centers of dimension `dim`.
  void ReserveCenters(std::size_t count, std::size_t dim);

  /// \brief Sum of weights (total mass).
  double TotalWeight() const;

  /// \brief Divides every weight by the total mass, in place.
  void NormalizeInPlace();

  /// \brief Returns a copy whose weights sum to one.
  Signature Normalized() const;

  /// \brief Weighted centroid of the signature.
  Point Centroid() const;

  /// \brief Structural validation of the invariants listed above.
  Status Validate() const;

  /// \brief Human-readable rendering for diagnostics.
  std::string ToString(int precision = 3) const;

 private:
  friend class SignatureAssembler;  // Adopts fully-assembled packed buffers.

  double* data() { return storage_.data(); }
  const double* data() const { return storage_.data(); }

  // Packed storage: k_ * dim_ center values (row k is u_k) followed by the
  // k_ weights.
  std::vector<double> storage_;
  std::size_t k_ = 0;
  std::size_t dim_ = 0;
};

/// \brief One-allocation packed-signature assembly for producers that know
/// an upper bound on the cluster count (every quantizer does).
///
/// The single (max_count*(dim+1)) buffer is sized once. Add() appends the
/// center at the front of the buffer and stages the weight in the buffer's
/// reserved tail, so unlike Signature::AddCenter there is no per-add shifting
/// of the weight block; Finish() compacts the staged weights down to k*dim
/// once and adopts the buffer. Centers passed to Add must not alias the
/// assembler's own buffer.
class SignatureAssembler {
 public:
  SignatureAssembler(std::size_t max_count, std::size_t dim);

  /// \brief Borrowed-buffer mode: assembles into `slot`, caller-owned storage
  /// of at least max_count*(dim+1) doubles (e.g. a SignatureRing slot), with
  /// the same staging layout and arithmetic as the owning mode. Finalize with
  /// FinishInPlace() — Finish() is unavailable, there is no buffer to adopt.
  SignatureAssembler(double* slot, std::size_t max_count, std::size_t dim);

  /// \brief Appends one (center, weight) pair; at most max_count times.
  void Add(PointView center, double weight);

  /// \brief Appends one pair whose center the caller then writes through the
  /// returned pointer (dim doubles); at most max_count times.
  double* Append(double weight);

  std::size_t count() const { return count_; }

  /// \brief Divides the weights added so far by their total, in place, with
  /// the same arithmetic as Signature::NormalizeInPlace.
  void NormalizeWeights();

  /// \brief Finalizes into a Signature owning the packed buffer, trimmed to
  /// count()*(dim+1) doubles whatever max_count was. The assembler is left
  /// empty; at most one Finish per assembler.
  Signature Finish();

  /// \brief Borrowed-mode finalize: compacts the staged weights down to the
  /// packed position (k*dim) inside the borrowed slot and returns k. The
  /// slot then holds a valid packed signature image. At most once.
  std::size_t FinishInPlace();

 private:
  double* base() {
    return borrowed_ != nullptr ? borrowed_ : buffer_.data();
  }

  std::vector<double> buffer_;
  double* borrowed_ = nullptr;  // Non-null in borrowed-buffer mode.
  std::size_t max_count_ = 0;
  std::size_t dim_ = 0;
  std::size_t count_ = 0;
};

/// \brief Builds a signature with a single cluster at the bag mean carrying
/// the full bag weight. This is the degenerate "centroid" summarization the
/// paper argues against (Section 1) — kept as a baseline representation.
Signature CentroidSignature(BagView bag);

}  // namespace bagcpd

#endif  // BAGCPD_SIGNATURE_SIGNATURE_H_

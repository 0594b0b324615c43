// SignatureSet: structure-of-arrays storage for a batch of signatures — ONE
// shared row-major center buffer, one shared weight buffer, and an offset
// table. The batch distance-matrix analyses (PairwiseEmdMatrix /
// CrossDistanceMatrix, MDS embeddings, the weighted-set estimators) walk N
// signatures back to back through the cache instead of hopping across N
// independent heap blocks, and the whole batch is two allocations total.
//
// SignatureRing is the sliding-window sibling used by the detector: a fixed
// number of slots carved out of one shared buffer, allocation-free in steady
// state as signatures are pushed and the oldest retired.
//
// Both containers hand out SignatureView (signature/signature.h) — the same
// non-owning view every distance kernel consumes. Batches are gathered by
// Append-ing signatures (owning ones convert to views implicitly).

#ifndef BAGCPD_SIGNATURE_SIGNATURE_SET_H_
#define BAGCPD_SIGNATURE_SIGNATURE_SET_H_

#include <cstddef>
#include <vector>

#include "bagcpd/common/status.h"
#include "bagcpd/signature/signature.h"

namespace bagcpd {

/// \brief SoA container of signatures sharing one center buffer and one
/// weight buffer. All members share the dimension d; per-signature cluster
/// counts K_i may differ.
class SignatureSet {
 public:
  SignatureSet() = default;

  SignatureSet(const SignatureSet&) = default;
  SignatureSet& operator=(const SignatureSet&) = default;
  // Moves must leave the source in the valid empty state (offsets_ = {0}),
  // not with a moved-out offset table that would underflow size().
  SignatureSet(SignatureSet&& other) noexcept { *this = std::move(other); }
  SignatureSet& operator=(SignatureSet&& other) noexcept {
    if (this != &other) {
      centers_ = std::move(other.centers_);
      weights_ = std::move(other.weights_);
      offsets_ = std::move(other.offsets_);
      dim_ = other.dim_;
      other.offsets_.assign(1, 0);
      other.centers_.clear();
      other.weights_.clear();
      other.dim_ = 0;
    }
    return *this;
  }

  /// \brief Number of signatures.
  std::size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  /// \brief Dimension d shared by every member (0 while empty).
  std::size_t dim() const { return dim_; }

  /// \brief Total number of centers across all members.
  std::size_t total_centers() const { return offsets_.back(); }

  /// \brief Zero-copy view of the i-th signature.
  SignatureView view(std::size_t i) const {
    const std::size_t begin = offsets_[i];
    const std::size_t k = offsets_[i + 1] - begin;
    return SignatureView(centers_.data() + begin * dim_,
                         weights_.data() + begin, k, dim_);
  }
  SignatureView operator[](std::size_t i) const { return view(i); }

  /// \brief Appends a copy of `sig` into the shared buffers. Rejects empty
  /// signatures and dimension mismatches (the SoA layout is rectangular in
  /// d by construction).
  Status Append(SignatureView sig);

  /// \brief Appends without per-member validation: empty members and
  /// non-positive weights are stored as-is for a later Validate() pass
  /// (e.g. WeightedSignatureSet::Validate) to report recoverably. Only a
  /// dimension mismatch — which the shared-buffer layout cannot represent —
  /// still fails.
  Status AppendUnchecked(SignatureView sig);

  /// \brief Drops all members (buffers keep their capacity).
  void Clear();

  /// \brief The shared buffers (diagnostics / tests).
  const std::vector<double>& center_data() const { return centers_; }
  const std::vector<double>& weight_data() const { return weights_; }

 private:
  std::vector<double> centers_;  // total_centers() x dim_, row-major.
  std::vector<double> weights_;  // total_centers() weights.
  // offsets_[i] is the first center row of signature i; size() + 1 entries.
  std::vector<std::size_t> offsets_ = {0};
  std::size_t dim_ = 0;
};

/// \brief Fixed-capacity sliding window of signatures over ONE shared
/// buffer: the detector's window ring. Each slot holds a packed (K*d + K)
/// signature image; pushing copies a few dozen doubles into the next slot
/// and popping just advances the head, so steady-state sliding performs no
/// allocation at all. Slots grow (a rare re-layout) only when a signature
/// larger than any seen before arrives.
class SignatureRing {
 public:
  SignatureRing() = default;
  /// \brief Ring with room for `capacity` signatures.
  explicit SignatureRing(std::size_t capacity) { Reset(capacity); }

  SignatureRing(const SignatureRing&) = default;
  SignatureRing& operator=(const SignatureRing&) = default;
  // Moves reset the source to the empty default state so its size/capacity
  // counters never dangle over moved-out storage.
  SignatureRing(SignatureRing&& other) noexcept { *this = std::move(other); }
  SignatureRing& operator=(SignatureRing&& other) noexcept {
    if (this != &other) {
      data_ = std::move(other.data_);
      ks_ = std::move(other.ks_);
      stride_ = other.stride_;
      dim_ = other.dim_;
      capacity_ = other.capacity_;
      head_ = other.head_;
      count_ = other.count_;
      borrowed_max_k_ = other.borrowed_max_k_;
      other.data_.clear();
      other.ks_.clear();
      other.stride_ = other.dim_ = other.capacity_ = other.head_ =
          other.count_ = other.borrowed_max_k_ = 0;
    }
    return *this;
  }

  /// \brief Clears the ring and re-arms it with `capacity` slots.
  void Reset(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == capacity_; }
  std::size_t dim() const { return dim_; }

  /// \brief Copies `sig` into the next slot. The ring must not be full; the
  /// first push fixes the dimension and later mismatches abort.
  void PushBack(SignatureView sig);

  /// \brief Hands out the next slot for direct in-place assembly (at least
  /// max_k*(dim+1) doubles, the packed signature layout), so a producer that
  /// knows its cluster-count bound — a SignatureAssembler in borrowed-buffer
  /// mode — writes the signature straight into ring storage with no
  /// intermediate copy. The ring must not be full; the usual dimension rules
  /// apply. The slot is not live until CommitBorrowed; exactly one of
  /// CommitBorrowed / CancelBorrow must follow before any other mutation.
  double* BorrowSlot(std::size_t max_k, std::size_t dim);

  /// \brief Publishes the borrowed slot as the newest signature with `k`
  /// centers (1 <= k <= the borrowed max_k, packed at the front of the slot).
  void CommitBorrowed(std::size_t k);

  /// \brief Abandons an outstanding borrow (e.g. the quantizer failed); the
  /// ring is unchanged.
  void CancelBorrow();

  /// \brief Retires the oldest signature (the slot is reused in place).
  void PopFront();

  /// \brief View of the i-th oldest signature (0 = oldest).
  SignatureView view(std::size_t i) const;
  SignatureView operator[](std::size_t i) const { return view(i); }

  /// \brief Resident heap footprint of the ring's buffers, in bytes (the
  /// checkpoint subsystem's spill-budget accounting).
  std::size_t memory_bytes() const {
    return data_.capacity() * sizeof(double) +
           ks_.capacity() * sizeof(std::size_t);
  }

 private:
  std::size_t SlotOf(std::size_t i) const {
    return (head_ + i) % capacity_;
  }

  // Fixes/checks the dimension, grows the stride to fit k_cap*(dim+1) if
  // needed, and returns the next slot's base (shared by PushBack/BorrowSlot).
  double* EnsureSlot(std::size_t k_cap, std::size_t dim);

  std::vector<double> data_;     // capacity_ * stride_ doubles.
  std::vector<std::size_t> ks_;  // Per-slot cluster count.
  std::size_t stride_ = 0;       // Doubles per slot, >= max K*(d+1) seen.
  std::size_t dim_ = 0;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t borrowed_max_k_ = 0;  // Nonzero while a borrow is outstanding.
};

}  // namespace bagcpd

#endif  // BAGCPD_SIGNATURE_SIGNATURE_SET_H_

#include "bagcpd/signature/signature_set.h"

#include <cstring>

#include "bagcpd/common/check.h"

namespace bagcpd {

Status SignatureSet::Append(SignatureView sig) {
  BAGCPD_RETURN_NOT_OK(sig.Validate());
  return AppendUnchecked(sig);
}

Status SignatureSet::AppendUnchecked(SignatureView sig) {
  if (sig.empty()) {
    // A member with no centers: representable (zero-width offset slot) and
    // reported by a later Validate() pass.
    offsets_.push_back(offsets_.back());
    return Status::OK();
  }
  if (dim_ == 0) {
    dim_ = sig.dim();
  } else if (sig.dim() != dim_) {
    return Status::Invalid("signature has dimension " +
                           std::to_string(sig.dim()) + ", set has " +
                           std::to_string(dim_));
  }
  const std::size_t k = sig.size();
  centers_.insert(centers_.end(), sig.centers_data(),
                  sig.centers_data() + k * dim_);
  weights_.insert(weights_.end(), sig.weights_data(),
                  sig.weights_data() + k);
  offsets_.push_back(offsets_.back() + k);
  return Status::OK();
}

void SignatureSet::Clear() {
  centers_.clear();
  weights_.clear();
  offsets_.assign(1, 0);
  dim_ = 0;
}

void SignatureRing::Reset(std::size_t capacity) {
  BAGCPD_CHECK_MSG(capacity > 0, "SignatureRing needs capacity >= 1");
  capacity_ = capacity;
  head_ = 0;
  count_ = 0;
  dim_ = 0;
  stride_ = 0;
  borrowed_max_k_ = 0;
  data_.clear();
  ks_.assign(capacity, 0);
}

double* SignatureRing::EnsureSlot(std::size_t k_cap, std::size_t dim) {
  BAGCPD_CHECK_MSG(count_ < capacity_, "SignatureRing overflow");
  BAGCPD_CHECK_MSG(borrowed_max_k_ == 0, "SignatureRing: borrow outstanding");
  BAGCPD_CHECK_MSG(k_cap > 0 && dim > 0, "SignatureRing: empty signature");
  if (dim_ == 0) {
    dim_ = dim;
  } else {
    BAGCPD_CHECK_MSG(dim == dim_,
                     "SignatureRing: dimension %zu, expected %zu", dim, dim_);
  }
  const std::size_t need = k_cap * (dim_ + 1);
  if (need > stride_) {
    // Re-layout with a wider stride, compacting live slots to the front in
    // age order. Rare: stride only grows until the largest signature the
    // stream produces has been seen once.
    const std::size_t new_stride = need + (dim_ + 1);  // Headroom row.
    std::vector<double> grown(capacity_ * new_stride, 0.0);
    std::vector<std::size_t> new_ks(capacity_, 0);
    for (std::size_t i = 0; i < count_; ++i) {
      const std::size_t slot = SlotOf(i);
      std::memcpy(grown.data() + i * new_stride,
                  data_.data() + slot * stride_,
                  ks_[slot] * (dim_ + 1) * sizeof(double));
      new_ks[i] = ks_[slot];
    }
    data_ = std::move(grown);
    ks_ = std::move(new_ks);
    stride_ = new_stride;
    head_ = 0;
  }
  return data_.data() + SlotOf(count_) * stride_;
}

void SignatureRing::PushBack(SignatureView sig) {
  double* base = EnsureSlot(sig.size(), sig.dim());
  std::memcpy(base, sig.centers_data(), sig.size() * dim_ * sizeof(double));
  std::memcpy(base + sig.size() * dim_, sig.weights_data(),
              sig.size() * sizeof(double));
  ks_[SlotOf(count_)] = sig.size();
  ++count_;
}

double* SignatureRing::BorrowSlot(std::size_t max_k, std::size_t dim) {
  double* base = EnsureSlot(max_k, dim);
  borrowed_max_k_ = max_k;
  return base;
}

void SignatureRing::CommitBorrowed(std::size_t k) {
  BAGCPD_CHECK_MSG(borrowed_max_k_ > 0, "SignatureRing: no outstanding borrow");
  BAGCPD_CHECK_MSG(k > 0 && k <= borrowed_max_k_,
                   "SignatureRing: committing %zu centers into a slot "
                   "borrowed for %zu",
                   k, borrowed_max_k_);
  ks_[SlotOf(count_)] = k;
  ++count_;
  borrowed_max_k_ = 0;
}

void SignatureRing::CancelBorrow() {
  BAGCPD_CHECK_MSG(borrowed_max_k_ > 0, "SignatureRing: no outstanding borrow");
  borrowed_max_k_ = 0;
}

void SignatureRing::PopFront() {
  BAGCPD_CHECK_MSG(count_ > 0, "SignatureRing underflow");
  ks_[head_] = 0;
  head_ = (head_ + 1) % capacity_;
  --count_;
}

SignatureView SignatureRing::view(std::size_t i) const {
  BAGCPD_CHECK_MSG(i < count_, "SignatureRing: index %zu of %zu", i, count_);
  const std::size_t slot = SlotOf(i);
  const double* base = data_.data() + slot * stride_;
  return SignatureView(base, base + ks_[slot] * dim_, ks_[slot], dim_);
}

}  // namespace bagcpd

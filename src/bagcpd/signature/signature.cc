#include "bagcpd/signature/signature.h"

#include <cstring>
#include <functional>
#include <sstream>

#include "bagcpd/common/check.h"

namespace bagcpd {

namespace {

Status ValidateShape(std::size_t k, std::size_t dim, const double* weights) {
  if (k == 0) return Status::Invalid("signature has no centers");
  if (dim == 0) {
    return Status::Invalid("signature centers are zero-dimensional");
  }
  for (std::size_t i = 0; i < k; ++i) {
    if (!(weights[i] > 0.0)) {
      return Status::Invalid("weight " + std::to_string(i) +
                             " is not strictly positive");
    }
  }
  return Status::OK();
}

double SumWeights(const double* weights, std::size_t k) {
  double acc = 0.0;
  for (std::size_t i = 0; i < k; ++i) acc += weights[i];
  return acc;
}

// The one normalization every signature form shares: a sequential sum, then
// one divide per weight.
void NormalizeWeightsInPlace(double* weights, std::size_t k) {
  const double total = SumWeights(weights, k);
  BAGCPD_CHECK_MSG(total > 0.0, "normalizing a zero-mass signature");
  for (std::size_t i = 0; i < k; ++i) weights[i] /= total;
}

}  // namespace

SignatureView::SignatureView(const Signature& s)
    : centers_(s.centers().data()),
      weights_(s.weights().data()),
      k_(s.size()),
      dim_(s.dim()) {}

double SignatureView::TotalWeight() const { return SumWeights(weights_, k_); }

Status SignatureView::Validate() const {
  return ValidateShape(k_, dim_, weights_);
}

Signature SignatureView::ToSignature() const {
  Signature out;
  out.ReserveCenters(k_, dim_);
  for (std::size_t k = 0; k < k_; ++k) out.AddCenter(center(k), weights_[k]);
  return out;
}

Signature Signature::FromCenters(const std::vector<Point>& centers,
                                 std::vector<double> weights) {
  BAGCPD_CHECK_MSG(centers.size() == weights.size(),
                   "FromCenters: %zu centers but %zu weights", centers.size(),
                   weights.size());
  Signature out;
  if (!centers.empty()) out.ReserveCenters(centers.size(), centers.front().size());
  for (std::size_t k = 0; k < centers.size(); ++k) {
    out.AddCenter(centers[k], weights[k]);
  }
  return out;
}

Signature Signature::FromFlat(std::vector<double> flat_centers,
                              std::size_t dim, std::vector<double> weights) {
  BAGCPD_CHECK_MSG(dim > 0 || flat_centers.empty(),
                   "FromFlat: zero dim with non-empty centers");
  BAGCPD_CHECK_MSG(dim == 0 || flat_centers.size() == dim * weights.size(),
                   "FromFlat: %zu values != %zu centers x dim %zu",
                   flat_centers.size(), weights.size(), dim);
  Signature out;
  // Reuse the center buffer as the packed buffer: the weights append behind
  // the center block, matching the packed layout exactly.
  out.k_ = weights.size();
  out.dim_ = flat_centers.empty() ? 0 : dim;
  std::vector<double>& buf = out.storage_.vec();
  buf = std::move(flat_centers);
  buf.insert(buf.end(), weights.begin(), weights.end());
  return out;
}

void Signature::AddCenter(PointView center, double weight) {
  BAGCPD_CHECK_MSG(!center.empty(), "AddCenter: zero-dimensional center");
  if (dim_ == 0) {
    dim_ = center.size();
  } else {
    BAGCPD_CHECK_MSG(center.size() == dim_,
                     "AddCenter: dimension %zu, expected %zu", center.size(),
                     dim_);
  }
  std::vector<double>& buf = storage_.vec();
  // The new center slots in before the weight block (the insert shifts the
  // k_ weights right by dim_). A view into this signature's own storage
  // would be invalidated by the shift or a reallocation — copy it out first.
  // std::less gives the total pointer order the raw operators don't
  // guarantee for unrelated objects.
  const std::less<const double*> before;
  const double* src = center.data();
  Point alias_copy;
  if (!buf.empty() && !before(src, buf.data()) &&
      before(src, buf.data() + buf.size())) {
    alias_copy = center.ToPoint();
    src = alias_copy.data();
  }
  buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(k_ * dim_), src,
             src + dim_);
  buf.push_back(weight);
  ++k_;
}

void Signature::ReserveCenters(std::size_t count, std::size_t dim,
                               BufferArena* arena) {
  if (dim_ == 0) dim_ = dim;
  const std::size_t want = (k_ + count) * (dim_ + 1);
  std::vector<double>& buf = storage_.vec();
  if (arena != nullptr && buf.empty() && buf.capacity() == 0 &&
      storage_.arena() == nullptr) {
    storage_ = PooledBuffer(arena->Acquire(want), arena);
    return;
  }
  buf.reserve(want);
}

double Signature::TotalWeight() const {
  return SumWeights(data() + k_ * dim_, k_);
}

void Signature::NormalizeInPlace() {
  NormalizeWeightsInPlace(mutable_weights(), k_);
}

Signature Signature::Normalized() const {
  Signature out = *this;
  out.NormalizeInPlace();
  return out;
}

Point Signature::Centroid() const {
  BAGCPD_CHECK(size() > 0);
  Point c(dim(), 0.0);
  const double* w = data() + k_ * dim_;
  double total = 0.0;
  for (std::size_t k = 0; k < size(); ++k) {
    const double* row = data() + k * dim_;
    for (std::size_t j = 0; j < c.size(); ++j) c[j] += w[k] * row[j];
    total += w[k];
  }
  BAGCPD_CHECK(total > 0.0);
  for (double& v : c) v /= total;
  return c;
}

std::vector<double> Signature::flat_centers() const {
  return std::vector<double>(data(), data() + k_ * dim_);
}

Status Signature::Validate() const {
  return ValidateShape(k_, dim_, data() + k_ * dim_);
}

std::string Signature::ToString(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << "{";
  for (std::size_t k = 0; k < size(); ++k) {
    if (k) os << ", ";
    os << "(";
    const PointView c = center(k);
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (j) os << " ";
      os << c[j];
    }
    os << "):" << weight(k);
  }
  os << "}";
  return os.str();
}

SignatureAssembler::SignatureAssembler(std::size_t max_count, std::size_t dim,
                                       BufferArena* arena)
    : buffer_(PooledBuffer::AcquireFrom(arena, max_count * (dim + 1))),
      max_count_(max_count),
      dim_(dim) {
  BAGCPD_CHECK_MSG(dim > 0, "SignatureAssembler: zero dimension");
  // Centers fill [0, count*dim); weights stage at [max_count*dim, ...): both
  // regions live in the one buffer, so assembly allocates exactly once.
  buffer_.vec().resize(max_count * (dim + 1));
}

SignatureAssembler::SignatureAssembler(double* slot, std::size_t max_count,
                                       std::size_t dim)
    : borrowed_(slot), max_count_(max_count), dim_(dim) {
  BAGCPD_CHECK_MSG(slot != nullptr, "SignatureAssembler: null borrowed slot");
  BAGCPD_CHECK_MSG(dim > 0, "SignatureAssembler: zero dimension");
}

void SignatureAssembler::Add(PointView center, double weight) {
  BAGCPD_CHECK_MSG(count_ < max_count_, "SignatureAssembler: over capacity");
  BAGCPD_CHECK_MSG(center.size() == dim_,
                   "SignatureAssembler: dimension %zu, expected %zu",
                   center.size(), dim_);
  double* base = this->base();
  std::memcpy(base + count_ * dim_, center.data(), dim_ * sizeof(double));
  base[max_count_ * dim_ + count_] = weight;
  ++count_;
}

void SignatureAssembler::NormalizeWeights() {
  NormalizeWeightsInPlace(base() + max_count_ * dim_, count_);
}

std::size_t SignatureAssembler::FinishInPlace() {
  BAGCPD_CHECK_MSG(borrowed_ != nullptr,
                   "SignatureAssembler: FinishInPlace needs borrowed mode");
  if (count_ < max_count_) {
    std::memmove(borrowed_ + count_ * dim_, borrowed_ + max_count_ * dim_,
                 count_ * sizeof(double));
  }
  const std::size_t k = count_;
  borrowed_ = nullptr;
  max_count_ = 0;
  count_ = 0;
  return k;
}

Signature SignatureAssembler::Finish() {
  BAGCPD_CHECK_MSG(borrowed_ == nullptr,
                   "SignatureAssembler: Finish unavailable in borrowed mode");
  double* base = buffer_.vec().data();
  if (count_ < max_count_) {
    // Fewer centers than reserved (e.g. empty clusters dropped): compact the
    // staged weights down to their packed position and trim.
    std::memmove(base + count_ * dim_, base + max_count_ * dim_,
                 count_ * sizeof(double));
  }
  buffer_.vec().resize(count_ * (dim_ + 1));
  Signature out;
  out.storage_ = std::move(buffer_);
  out.k_ = count_;
  out.dim_ = count_ == 0 ? 0 : dim_;
  max_count_ = 0;
  count_ = 0;
  return out;
}

Signature CentroidSignature(BagView bag, BufferArena* arena) {
  BAGCPD_CHECK(!bag.empty());
  SignatureAssembler assembler(1, bag.dim(), arena);
  assembler.Add(BagMean(bag), static_cast<double>(bag.size()));
  return assembler.Finish();
}

}  // namespace bagcpd

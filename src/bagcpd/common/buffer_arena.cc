#include "bagcpd/common/buffer_arena.h"

#include "bagcpd/common/check.h"

namespace bagcpd {

namespace {

bool IsPowerOfTwo(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

Status ValidateBufferArenaOptions(const BufferArenaOptions& options) {
  if (!IsPowerOfTwo(options.min_buffer_capacity) ||
      options.min_buffer_capacity < 2) {
    return Status::Invalid("min_buffer_capacity must be a power of two >= 2");
  }
  if (options.max_buffer_capacity < options.min_buffer_capacity) {
    return Status::Invalid("max_buffer_capacity below min_buffer_capacity");
  }
  return Status::OK();
}

BufferArena::BufferArena(const BufferArenaOptions& options)
    : options_(options) {
  const Status valid = ValidateBufferArenaOptions(options_);
  BAGCPD_CHECK_MSG(valid.ok(), "BufferArena: %s", valid.message().c_str());
  std::size_t cap = options_.min_buffer_capacity;
  num_classes_ = 1;
  while (cap < options_.max_buffer_capacity) {
    cap <<= 1;
    ++num_classes_;
  }
  // Normalize max to the top class's nominal capacity so a buffer handed out
  // by the top class is always pool-eligible on release (otherwise requests
  // just under a non-power-of-two max would reserve past it and every
  // release in that range would be silently dropped).
  options_.max_buffer_capacity = cap;
  classes_.resize(num_classes_);
}

std::size_t BufferArena::ClassForAcquire(std::size_t min_capacity) const {
  std::size_t cap = options_.min_buffer_capacity;
  std::size_t c = 0;
  while (cap < min_capacity && c + 1 < num_classes_) {
    cap <<= 1;
    ++c;
  }
  return c;
}

std::vector<double> BufferArena::Acquire(std::size_t min_capacity) {
  const std::size_t class_capacity = options_.min_buffer_capacity
                                     << ClassForAcquire(min_capacity);
  if (min_capacity > options_.max_buffer_capacity) {
    // Outside the poolable range: plain allocation, never recycled.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.acquires;
    std::vector<double> buffer;
    buffer.reserve(min_capacity);
    return buffer;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.acquires;
    // Exact class first, then any larger class (its buffers also satisfy the
    // request) — a hit anywhere beats a fresh allocation.
    for (std::size_t c = ClassForAcquire(min_capacity); c < num_classes_; ++c) {
      std::vector<std::vector<double>>& freelist = classes_[c];
      if (!freelist.empty()) {
        std::vector<double> buffer = std::move(freelist.back());
        freelist.pop_back();
        ++stats_.pool_hits;
        stats_.pooled_buffers -= 1;
        stats_.pooled_doubles -= buffer.capacity();
        buffer.clear();
        return buffer;
      }
    }
  }
  std::vector<double> buffer;
  buffer.reserve(class_capacity);
  return buffer;
}

void BufferArena::Release(std::vector<double>&& buffer) {
  const std::size_t capacity = buffer.capacity();
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.releases;
  if (capacity < options_.min_buffer_capacity ||
      capacity > options_.max_buffer_capacity) {
    ++stats_.dropped_releases;
    return;  // Buffer frees on scope exit.
  }
  // Floor class: the largest class whose nominal capacity the buffer still
  // satisfies, so an Acquire from that class never gets an undersized buffer.
  std::size_t cap = options_.min_buffer_capacity;
  std::size_t c = 0;
  while ((cap << 1) <= capacity && c + 1 < num_classes_) {
    cap <<= 1;
    ++c;
  }
  std::vector<std::vector<double>>& freelist = classes_[c];
  if (freelist.size() >= options_.max_buffers_per_class) {
    ++stats_.dropped_releases;
    return;
  }
  buffer.clear();
  stats_.pooled_buffers += 1;
  stats_.pooled_doubles += capacity;
  freelist.push_back(std::move(buffer));
}

BufferArenaStats BufferArena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

PooledBuffer PooledBuffer::AcquireFrom(BufferArena* arena,
                                       std::size_t min_capacity) {
  if (arena == nullptr) {
    std::vector<double> buffer;
    buffer.reserve(min_capacity);
    return PooledBuffer(std::move(buffer), nullptr);
  }
  return PooledBuffer(arena->Acquire(min_capacity), arena);
}

}  // namespace bagcpd

// BufferArena: a size-class freelist pool of double buffers for the buffers
// that cross threads or come from files: the engine's ingest FlatBags
// (flattened on the producer thread, released on the shard worker), spill
// files read back on a shard, and batch-table value buffers. A detector step
// needs none: its scratch is per-thread or its own, so a steady-state serial
// push makes 0 heap allocations, and on a compute pool only the pool's
// dispatch allocates (a task and latch per chunked loop), never a buffer.
//
// Ownership model:
//  * An arena owns nothing while a buffer is out: Acquire() hands the caller
//    an ordinary std::vector<double> (empty, with capacity) and Release()
//    takes it back into the matching size-class freelist.
//  * PooledBuffer is the RAII handle pairing a buffer with the arena it came
//    from; its destructor releases automatically. FlatBag and BatchTable
//    store their data through PooledBuffer, so a bag or table built from an
//    arena returns its storage the moment it dies — on any thread.
//  * The arena must outlive every buffer acquired from it. StreamEngine owns
//    one arena per shard and destroys them only after all shard state (queued
//    bags and spill reads) is gone.
//
// Thread-safety: Acquire/Release/stats are mutex-protected and may be called
// from any thread; the common cross-thread pattern (flatten on the producer
// thread, release on the shard worker) is explicitly supported. Per-shard
// arena instances keep contention to one producer/consumer pair.
//
// Pooling never changes results: a recycled buffer is handed out empty and
// every consumer fully overwrites it, so outputs are bitwise-identical to the
// malloc path.

#ifndef BAGCPD_COMMON_BUFFER_ARENA_H_
#define BAGCPD_COMMON_BUFFER_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "bagcpd/common/status.h"

namespace bagcpd {

/// \brief Configuration of a BufferArena.
struct BufferArenaOptions {
  /// Smallest size class, in doubles; smaller requests round up to it.
  /// Must be a power of two >= 2.
  std::size_t min_buffer_capacity = 64;
  /// Largest capacity (in doubles) the arena will pool; rounded up to the
  /// enclosing power-of-two size class at construction. Buffers above it are
  /// served by and returned to the general allocator.
  std::size_t max_buffer_capacity = std::size_t{1} << 20;
  /// Bound on each size class's freelist; releases beyond it are dropped
  /// (freed) so a burst cannot pin memory forever.
  std::size_t max_buffers_per_class = 64;
};

/// \brief Recoverable validation of arena tuning (the BufferArena
/// constructor aborts on the same conditions; embedders like StreamEngine
/// check first and surface the error through their init status).
Status ValidateBufferArenaOptions(const BufferArenaOptions& options);

/// \brief Counters describing arena behaviour (diagnostics / benchmarks).
struct BufferArenaStats {
  /// Acquire() calls served, split into freelist reuses and fresh mallocs.
  std::uint64_t acquires = 0;
  std::uint64_t pool_hits = 0;
  /// Release() calls accepted into a freelist vs dropped (class full or the
  /// buffer was outside the poolable capacity range).
  std::uint64_t releases = 0;
  std::uint64_t dropped_releases = 0;
  /// Buffers and doubles currently sitting in freelists.
  std::size_t pooled_buffers = 0;
  std::size_t pooled_doubles = 0;
};

/// \brief Size-class freelist pool of std::vector<double> buffers.
class BufferArena {
 public:
  explicit BufferArena(const BufferArenaOptions& options = {});

  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

  /// \brief Returns an empty vector with capacity >= `min_capacity` (rounded
  /// up to the size class), reusing a pooled buffer when one is available.
  std::vector<double> Acquire(std::size_t min_capacity);

  /// \brief Takes `buffer` back into the freelist of its capacity class.
  /// The buffer is cleared; its values are never observed again.
  void Release(std::vector<double>&& buffer);

  BufferArenaStats stats() const;
  const BufferArenaOptions& options() const { return options_; }

 private:
  std::size_t ClassForAcquire(std::size_t min_capacity) const;

  BufferArenaOptions options_;
  std::size_t num_classes_ = 0;
  mutable std::mutex mu_;
  // classes_[c] pools buffers with capacity in [min_capacity << c,
  // min_capacity << (c + 1)); every buffer in class c satisfies an Acquire
  // rounded up to min_capacity << c.
  std::vector<std::vector<std::vector<double>>> classes_;
  BufferArenaStats stats_;
};

/// \brief RAII pairing of a buffer with the arena that pooled it (or none).
///
/// Move-aware value type: moves transfer the pooling relationship, copies
/// produce an unpooled deep copy (so types embedding a PooledBuffer stay
/// copyable without ever double-releasing). A default-constructed or
/// detached handle is an ordinary, arena-free vector.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(std::vector<double> data, BufferArena* arena)
      : data_(std::move(data)), arena_(arena) {}

  /// \brief Acquires from `arena` (nullptr falls back to a plain vector with
  /// reserved capacity).
  static PooledBuffer AcquireFrom(BufferArena* arena, std::size_t min_capacity);

  ~PooledBuffer() { ReleaseToArena(); }

  PooledBuffer(const PooledBuffer& other) : data_(other.data_) {}
  PooledBuffer& operator=(const PooledBuffer& other) {
    if (this != &other) {
      ReleaseToArena();
      data_ = other.data_;
    }
    return *this;
  }
  PooledBuffer(PooledBuffer&& other) noexcept
      : data_(std::move(other.data_)), arena_(other.arena_) {
    other.arena_ = nullptr;
    other.data_.clear();
  }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      ReleaseToArena();
      data_ = std::move(other.data_);
      arena_ = other.arena_;
      other.arena_ = nullptr;
      other.data_.clear();
    }
    return *this;
  }

  std::vector<double>& vec() { return data_; }
  const std::vector<double>& vec() const { return data_; }
  BufferArena* arena() const { return arena_; }

  /// \brief Severs the arena relationship and moves the buffer out.
  std::vector<double> Detach() {
    arena_ = nullptr;
    return std::move(data_);
  }

 private:
  void ReleaseToArena() {
    if (arena_ != nullptr) {
      arena_->Release(std::move(data_));
      arena_ = nullptr;
    }
  }

  std::vector<double> data_;
  BufferArena* arena_ = nullptr;
};

}  // namespace bagcpd

#endif  // BAGCPD_COMMON_BUFFER_ARENA_H_

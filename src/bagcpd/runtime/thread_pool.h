// Sharded fixed-size thread pool, the execution substrate of the concurrent
// runtime. Each worker owns its own task queue (no work stealing): Submit()
// round-robins across shards, SubmitTo() pins a task to one shard so that all
// tasks sharing a key run in submission order on one thread.
// ParallelForChunked() statically chunks an index range over the workers plus
// the calling thread and blocks until every chunk has run — chunking is a
// pure function of the range and pool size, never of timing, which is what
// lets callers guarantee bitwise-deterministic results for any thread count.
// ForEachChunk() is the library's one way to run a fallible chunk body: on a
// pool it is ParallelForChunked, without one the whole range is one chunk on
// the calling thread, and either way the lowest failing chunk's error wins.

#ifndef BAGCPD_RUNTIME_THREAD_POOL_H_
#define BAGCPD_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "bagcpd/common/status.h"

namespace bagcpd {

/// \brief Fixed-size pool of worker threads with per-worker (sharded) queues.
///
/// A pool of size 0 is valid and runs everything inline on the calling
/// thread; it is the degenerate serial mode used by determinism tests.
/// Tasks must not throw; report failures through captured state instead
/// (the library's Status/Result convention).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = fully inline execution).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains every queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Number of worker threads (and shards).
  std::size_t size() const { return shards_.size(); }

  /// \brief Enqueues `task` on the next shard (round-robin). With no workers
  /// the task runs inline before Submit returns.
  void Submit(std::function<void()> task);

  /// \brief Enqueues `task` on shard `shard % size()`. Tasks submitted to one
  /// shard run in FIFO order on a single thread.
  void SubmitTo(std::size_t shard, std::function<void()> task);

  /// \brief Runs `body(chunk_begin, chunk_end)` over contiguous chunks that
  /// cover [begin, end) exactly once, across the pool and the calling thread;
  /// returns once every chunk has completed.
  ///
  /// The range is split into at most size() + 1 chunks; the split depends
  /// only on (begin, end, size()), so any per-index work that is itself
  /// deterministic yields results independent of scheduling.
  ///
  /// Re-entrancy: calling this from inside a task running on this pool's own
  /// workers is detected and falls back to one inline chunk on the calling
  /// worker — correct (every index still runs exactly once) instead of
  /// deadlocking on the worker's own queue. Nesting across *different* pools
  /// parallelizes normally.
  void ParallelForChunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// \brief True iff the calling thread is one of THIS pool's workers.
  bool InWorkerThread() const;

 private:
  struct Shard {
    std::mutex mu;
    std::condition_variable not_empty;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(std::size_t shard_index);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> next_shard_{0};
  std::atomic<bool> stop_{false};
};

/// \brief Runs `body(chunk_begin, chunk_end)`, which returns a Status, over
/// [begin, end): in ParallelForChunked's chunks on `pool`, or as the one
/// chunk [begin, end) on the calling thread when `pool` is null. An empty
/// range runs no chunk.
///
/// The failure of the lowest failing chunk is returned. A body that stops
/// at the first failing index of its chunk therefore yields the error of
/// the lowest failing index overall — the one-chunk walk's error, for any
/// pool size or timing.
template <typename Body>
Status ForEachChunk(ThreadPool* pool, std::size_t begin, std::size_t end,
                    Body&& body) {
  if (begin >= end) return Status::OK();
  if (pool == nullptr) return body(begin, end);
  std::mutex mu;
  std::size_t failed_chunk = end;
  Status failure;
  pool->ParallelForChunked(begin, end, [&](std::size_t b, std::size_t e) {
    Status s = body(b, e);
    if (s.ok()) return;
    std::lock_guard<std::mutex> lock(mu);
    if (b < failed_chunk) {
      failed_chunk = b;
      failure = std::move(s);
    }
  });
  return failure;
}

}  // namespace bagcpd

#endif  // BAGCPD_RUNTIME_THREAD_POOL_H_

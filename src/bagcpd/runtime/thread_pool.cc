#include "bagcpd/runtime/thread_pool.h"

#include <algorithm>

#include "bagcpd/common/check.h"

namespace bagcpd {

namespace {

// The pool (if any) whose worker is executing on this thread. Lets
// ParallelForChunked detect re-entrant use from one of its own workers, where
// blocking on queued chunks could deadlock (the worker cannot drain its own
// queue while waiting on the latch).
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

bool ThreadPool::InWorkerThread() const { return tls_worker_pool == this; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  shards_.reserve(num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  for (auto& shard : shards_) {
    // Lock/unlock pairs with the worker's wait so the notify cannot be missed.
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->not_empty.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(std::size_t shard_index) {
  tls_worker_pool = this;
  Shard& shard = *shards_[shard_index];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.not_empty.wait(
          lock, [&] { return stop_.load() || !shard.tasks.empty(); });
      if (shard.tasks.empty()) return;  // stop_ set and queue drained.
      task = std::move(shard.tasks.front());
      shard.tasks.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (shards_.empty()) {
    task();
    return;
  }
  const std::size_t shard = next_shard_.fetch_add(1) % shards_.size();
  SubmitTo(shard, std::move(task));
}

void ThreadPool::SubmitTo(std::size_t shard_index, std::function<void()> task) {
  if (shards_.empty()) {
    task();
    return;
  }
  BAGCPD_CHECK_MSG(!stop_.load(), "Submit on a stopping ThreadPool");
  Shard& shard = *shards_[shard_index % shards_.size()];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.tasks.push_back(std::move(task));
  }
  shard.not_empty.notify_one();
}

void ThreadPool::ParallelForChunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  // Re-entrant call from one of this pool's own workers: queueing chunks
  // back onto the pool and blocking on them can deadlock (this worker's own
  // shard queue cannot make progress while it waits). Run inline instead —
  // serial, deterministic, every index exactly once.
  if (InWorkerThread()) {
    body(begin, end);
    return;
  }
  const std::size_t n = end - begin;
  // The calling thread participates, so up to size() + 1 chunks. The chunk
  // layout depends only on (n, size()): deterministic for a fixed pool size,
  // and every index runs exactly once for any pool size.
  const std::size_t chunks = std::min(n, shards_.size() + 1);
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;  // First `extra` chunks get +1.

  struct Latch {
    std::mutex mu;
    std::condition_variable done;
    std::size_t remaining;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining = chunks - 1;

  std::size_t chunk_begin = begin;
  std::size_t first_end = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t chunk_size = base + (c < extra ? 1 : 0);
    const std::size_t chunk_end = chunk_begin + chunk_size;
    if (c == 0) {
      first_end = chunk_end;  // Run inline after all chunks are queued.
    } else {
      SubmitTo(c - 1, [latch, &body, chunk_begin, chunk_end] {
        body(chunk_begin, chunk_end);
        std::lock_guard<std::mutex> lock(latch->mu);
        if (--latch->remaining == 0) latch->done.notify_all();
      });
    }
    chunk_begin = chunk_end;
  }
  body(begin, first_end);
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->done.wait(lock, [&] { return latch->remaining == 0; });
}

}  // namespace bagcpd

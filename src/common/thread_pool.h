// Fixed-size worker pool used for batched measurement (AutoTVM measures a
// batch of candidate configs per round; on multi-core hosts the CpuDevice
// compiles/validates them concurrently), for Random-Forest training and
// LCB scoring, and for the closure tier's parallel loops.
//
// The design follows the Core Guidelines concurrency advice: the pool owns
// its threads (RAII join in the destructor), tasks communicate results via
// futures, and no raw new/delete appears anywhere.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace tvmbo {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers. Used to
  /// run nested parallel work inline instead of deadlocking the pool
  /// (every worker blocked waiting on tasks no one is left to run).
  bool in_worker_thread() const;

  /// Enqueues a task; the returned future yields its result (or rethrows
  /// its exception).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// Runs fn(i) for i in [0, count) across the pool and blocks until all
  /// complete. Work is split into at most num_threads() contiguous chunks
  /// (one task each, not one per item). See parallel_for_chunks.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Range-chunked variant: splits [0, count) into at most `max_chunks`
  /// contiguous chunks (additionally capped by num_threads()) and runs
  /// fn(begin, end) per chunk, blocking until all complete. `max_chunks`
  /// of 0 means num_threads(). The calling thread runs chunk 0 itself and
  /// then any chunk no worker has claimed yet, so the call finishes even
  /// when every worker is busy with other tasks. Degenerate cases
  /// (count <= 1, one chunk, or a call from inside a worker thread) run
  /// fn(0, count) inline — a worker that dispatched and waited could
  /// deadlock the pool. Exceptions are rethrown once every chunk has
  /// finished (lowest-numbered failing chunk wins).
  void parallel_for_chunks(
      std::size_t count, std::size_t max_chunks,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

/// Process-wide default pool (lazily constructed, hardware concurrency).
ThreadPool& default_thread_pool();

}  // namespace tvmbo

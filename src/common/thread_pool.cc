#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace tvmbo {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::in_worker_thread() const {
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread& worker : workers_) {
    if (worker.get_id() == self) return true;
  }
  return false;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(count, 0, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

namespace {

// State of one parallel_for_chunks call, shared by the calling thread and
// the chunk tasks it queues. Chunks are claimed from `next`; a task that
// starts after every chunk is claimed returns without touching the body,
// so the caller may return while such a task still sits in the queue.
struct ChunkRun {
  std::atomic<std::size_t> next{1};  // chunk 0 is the caller's
  std::mutex mutex;
  std::condition_variable finished;
  std::size_t done = 0;
  std::size_t failed_chunk = 0;
  std::exception_ptr error;
};

}  // namespace

void ThreadPool::parallel_for_chunks(
    std::size_t count, std::size_t max_chunks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (max_chunks == 0) max_chunks = num_threads();
  // One contiguous chunk per worker, not one task per item: bounds queue
  // pressure and keeps per-item dispatch overhead off the hot path.
  const std::size_t chunks = std::min({count, max_chunks, num_threads()});
  if (count == 1 || chunks <= 1 || in_worker_thread()) {
    fn(0, count);
    return;
  }
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  auto run = std::make_shared<ChunkRun>();
  // Runs chunk `c`, then claims further chunks until none are left.
  auto work = [run, chunks, base, extra, body = &fn](std::size_t c) {
    for (; c < chunks; c = run->next.fetch_add(1)) {
      const std::size_t begin = c * base + std::min(c, extra);
      const std::size_t end = begin + base + (c < extra ? 1 : 0);
      std::exception_ptr error;
      try {
        (*body)(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(run->mutex);
      if (error && (!run->error || c < run->failed_chunk)) {
        run->error = error;
        run->failed_chunk = c;
      }
      if (++run->done == chunks) run->finished.notify_all();
    }
  };
  for (std::size_t c = 1; c < chunks; ++c) {
    submit([work, run] { work(run->next.fetch_add(1)); });
  }
  // The calling thread works too: it takes chunk 0 and then any chunk no
  // worker has claimed yet, so the call completes even while every worker
  // is held by other tasks (streamed measurements waiting on round trips).
  work(0);
  std::unique_lock<std::mutex> lock(run->mutex);
  run->finished.wait(lock, [&] { return run->done == chunks; });
  if (run->error) std::rethrow_exception(run->error);
}

ThreadPool& default_thread_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace tvmbo

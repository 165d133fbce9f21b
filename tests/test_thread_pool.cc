#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tvmbo {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(8, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  // Single-threaded pools run inline, in order.
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins; all enqueued tasks must have run
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Regression: parallel_for from inside a worker used to enqueue tasks
  // and block in future.get(); with every worker doing the same, no one
  // was left to drain the queue. Nested calls now run inline.
  ThreadPool pool(2);
  std::atomic<int> inner_hits{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(inner_hits.load(), 32);
}

TEST(ThreadPool, NestedSubmitParallelForCompletes) {
  ThreadPool pool(2);
  auto future = pool.submit([&pool] {
    int sum = 0;
    std::mutex m;
    pool.parallel_for(16, [&](std::size_t i) {
      std::lock_guard<std::mutex> lock(m);
      sum += static_cast<int>(i);
    });
    return sum;
  });
  EXPECT_EQ(future.get(), 120);
}

TEST(ThreadPool, ParallelForChunksCoverLargeCounts) {
  // Work is chunked per thread (not one task per item): the queue must
  // not see 10k entries, and every index still runs exactly once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForStillPropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("chunk boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForChunksCoversRangeWithBoundedChunks) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::vector<std::atomic<int>> hits(103);  // not a multiple of any chunking
  pool.parallel_for_chunks(hits.size(), 3,
                           [&](std::size_t begin, std::size_t end) {
                             {
                               std::lock_guard<std::mutex> lock(m);
                               chunks.emplace_back(begin, end);
                             }
                             for (std::size_t i = begin; i < end; ++i) {
                               hits[i].fetch_add(1);
                             }
                           });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  // max_chunks caps the fan-out and chunks tile the range exactly.
  EXPECT_LE(chunks.size(), 3u);
  std::size_t covered = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_LT(begin, end);
    covered += end - begin;
  }
  EXPECT_EQ(covered, hits.size());
}

TEST(ThreadPool, ParallelForChunksRunsInlineInsideWorker) {
  // Chunked dispatch from a worker thread must fall back to a single
  // inline chunk — same deadlock-avoidance contract as parallel_for.
  ThreadPool pool(2);
  auto future = pool.submit([&pool] {
    int calls = 0;
    std::size_t total = 0;
    pool.parallel_for_chunks(32, 0, [&](std::size_t begin, std::size_t end) {
      ++calls;
      total += end - begin;
    });
    return std::make_pair(calls, total);
  });
  const auto [calls, total] = future.get();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(total, 32u);
}

TEST(ThreadPool, ParallelForChunksPropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for_chunks(64, 0,
                               [](std::size_t begin, std::size_t) {
                                 if (begin > 0) {
                                   throw std::runtime_error("chunk boom");
                                 }
                               }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForChunksCallerRunsChunkZero) {
  // The calling thread joins the fan-out: chunk 0 runs on it, and every
  // index is still covered exactly once.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(1001);
  std::atomic<bool> chunk_zero_on_caller{false};
  pool.parallel_for_chunks(hits.size(), 0,
                           [&](std::size_t begin, std::size_t end) {
                             if (begin == 0) {
                               chunk_zero_on_caller =
                                   std::this_thread::get_id() == caller;
                             }
                             for (std::size_t i = begin; i < end; ++i) {
                               hits[i].fetch_add(1);
                             }
                           });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  EXPECT_TRUE(chunk_zero_on_caller.load());
}

TEST(ThreadPool, ParallelForChunksRethrowsInlineChunkFirst) {
  // Chunk 0 (the caller's) and a later chunk both throw: the lowest
  // chunk's exception wins, and it is rethrown only after every other
  // chunk has finished (their tasks hold references to the caller's body).
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  try {
    pool.parallel_for_chunks(4, 0, [&](std::size_t begin, std::size_t) {
      if (begin == 0) throw std::runtime_error("inline boom");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
      if (begin == 2) throw std::runtime_error("worker boom");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inline boom");
  }
  EXPECT_EQ(finished.load(), 3);
}

TEST(ThreadPool, ParallelForChunksNestedInWorkerChunkRunsInline) {
  // A chunk that a worker runs dispatches inline (one call); the chunk
  // the caller runs may fan out again, since the caller never blocks a
  // worker.
  ThreadPool pool(3);
  std::mutex m;
  std::vector<int> worker_inner_calls;
  std::atomic<int> inner_hits{0};
  pool.parallel_for_chunks(3, 0, [&](std::size_t, std::size_t) {
    std::atomic<int> calls{0};
    pool.parallel_for_chunks(12, 0, [&](std::size_t begin, std::size_t end) {
      calls.fetch_add(1);
      inner_hits.fetch_add(static_cast<int>(end - begin));
    });
    if (pool.in_worker_thread()) {
      std::lock_guard<std::mutex> lock(m);
      worker_inner_calls.push_back(calls.load());
    }
  });
  EXPECT_EQ(inner_hits.load(), 36);
  for (int calls : worker_inner_calls) EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForChunksProgressesWhileWorkersAreHeld) {
  // Every worker is held by another task (as streamed measurements hold
  // them during round trips); the caller still completes the whole range
  // on its own instead of waiting for a worker to free up.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::vector<std::future<void>> held;
  for (int i = 0; i < 2; ++i) {
    held.push_back(pool.submit([released] { released.wait(); }));
  }
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for_chunks(hits.size(), 0,
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               hits[i].fetch_add(1);
                             }
                           });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  release.set_value();
  for (auto& future : held) future.get();
}

TEST(ThreadPool, InWorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.in_worker_thread());
  auto future = pool.submit([&pool] { return pool.in_worker_thread(); });
  EXPECT_TRUE(future.get());
}

TEST(ThreadPool, DefaultPoolIsSingleton) {
  EXPECT_EQ(&default_thread_pool(), &default_thread_pool());
  EXPECT_GE(default_thread_pool().num_threads(), 1u);
}

}  // namespace
}  // namespace tvmbo

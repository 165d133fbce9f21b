// Tuning-as-a-service (serve): scheduler multiplexing, fair share,
// admission control, cancellation, crash/resize resilience, the socket
// server, and the solo-job determinism contract against the async proc
// measurement path.
//
// Like the proc-runner suite, these tests spawn real tvmbo_worker
// processes and are skipped when the binary cannot be found.
#include "serve/scheduler.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "distd/fault_kernels.h"
#include "distd/proc_device.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "runtime/trace_log.h"
#include "serve/client.h"
#include "serve/server.h"

namespace tvmbo::serve {
namespace {

bool worker_binary_available() {
  const std::string binary = distd::resolve_worker_binary("");
  if (binary.find('/') == std::string::npos) return false;
  return ::access(binary.c_str(), X_OK) == 0;
}

#define SKIP_WITHOUT_WORKER()                                        \
  do {                                                               \
    if (!worker_binary_available())                                  \
      GTEST_SKIP() << "tvmbo_worker binary not found; build the "    \
                      "tools targets first";                         \
  } while (0)

SchedulerOptions fast_options(std::size_t workers,
                              runtime::TraceLog* trace = nullptr) {
  SchedulerOptions options;
  options.pool.num_workers = workers;
  options.pool.heartbeat_ms = 100;
  options.pool.max_respawn_backoff_ms = 200;
  options.trace = trace;
  return options;
}

JobSpec gemm_spec(std::size_t budget, std::uint64_t seed,
                  const std::string& tenant = "default") {
  JobSpec spec;
  spec.tenant = tenant;
  spec.kernel = "gemm";
  spec.size = "mini";
  spec.strategy = "random";
  spec.budget = budget;
  spec.seed = seed;
  return spec;
}

/// Armed fault job: every trial faults (nthreads != 1 arms the
/// single-candidate fault space). fault.spin runs until kill_leased.
JobSpec fault_spec(const std::string& kernel, std::size_t budget,
                   const std::string& tenant = "default") {
  JobSpec spec;
  spec.tenant = tenant;
  spec.kernel = kernel;
  spec.budget = budget;
  spec.nthreads = 2;
  return spec;
}

/// Thread-safe event collector usable as a job's EventSink.
class EventLog {
 public:
  Scheduler::EventSink sink() {
    return [this](const Json& frame) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        events_.push_back(frame);
        if (frame.contains("event") &&
            is_terminal_event(frame.at("event").as_string())) {
          terminal_ = true;
        }
      }
      cv_.notify_all();
    };
  }

  bool wait_terminal(int timeout_s = 60) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(timeout_s),
                        [&] { return terminal_; });
  }

  /// Blocks until an event with this name has arrived.
  bool wait_event(const std::string& name, int timeout_s = 60) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(timeout_s), [&] {
      return count_locked(name) > 0;
    });
  }

  std::size_t count(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_locked(name);
  }

  std::vector<Json> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

  /// Tiles of every job_trial event, in arrival (completion) order.
  std::vector<std::vector<std::int64_t>> trial_tiles() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::int64_t>> out;
    for (const Json& event : events_) {
      if (!event.contains("event") ||
          event.at("event").as_string() != "job_trial") {
        continue;
      }
      std::vector<std::int64_t> tiles;
      for (const Json& t : event.at("tiles").as_array()) {
        tiles.push_back(t.as_int());
      }
      out.push_back(std::move(tiles));
    }
    return out;
  }

 private:
  std::size_t count_locked(const std::string& name) const {
    std::size_t n = 0;
    for (const Json& event : events_) {
      if (event.contains("event") && event.at("event").as_string() == name) {
        ++n;
      }
    }
    return n;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Json> events_;
  bool terminal_ = false;
};

// --- Determinism: the tentpole's reproducibility contract -----------------

/// A fixed-seed solo job on a one-worker daemon must visit the identical
/// configuration sequence as the same strategy under the async proc
/// measurement path (`tvmbo_tune --runner proc --async`): both drive
/// strict ask/measure/tell alternation through one AskTellSession over
/// the same space with the same derived seed.
TEST(Serve, SoloJobReproducesAsyncProcTrajectory) {
  SKIP_WITHOUT_WORKER();
  constexpr std::size_t kBudget = 8;
  constexpr std::uint64_t kSeed = 2023;

  EventLog log;
  {
    Scheduler scheduler(fast_options(1));
    const auto result = scheduler.submit(gemm_spec(kBudget, kSeed),
                                         log.sink());
    ASSERT_TRUE(result.ok()) << result.message;
    ASSERT_TRUE(log.wait_terminal());
  }
  const auto serve_tiles = log.trial_tiles();
  ASSERT_EQ(serve_tiles.size(), kBudget);

  const autotvm::Task task = kernels::make_task(
      "gemm", kernels::Dataset::kMini, /*executable=*/true);
  framework::SessionOptions session_options;
  session_options.max_evaluations = kBudget;
  session_options.seed = kSeed;
  session_options.async = true;

  distd::ProcDeviceOptions proc_options;
  proc_options.pool.num_workers = 1;
  proc_options.pool.heartbeat_ms = 100;
  distd::ProcDevice device(proc_options);
  framework::AutotuningSession session(&task, &device, session_options);
  const framework::SessionResult reference =
      session.run(framework::StrategyKind::kAutotvmRandom);

  ASSERT_EQ(reference.db.size(), kBudget);
  for (std::size_t i = 0; i < kBudget; ++i) {
    EXPECT_EQ(serve_tiles[i], reference.db.record(i).tiles)
        << "evaluation " << i << " diverged from the async proc loop";
  }
}

// --- Instant-config lookup ------------------------------------------------

/// config_lookup is the read-only fast path: once a job has measured a
/// workload, the scheduler answers queries for it from the in-memory
/// cache without dispatching any measurement — the trace gains
/// config_lookup events but not a single new job_dispatch.
TEST(Serve, LookupAnswersFromCacheWithoutDispatching) {
  SKIP_WITHOUT_WORKER();
  constexpr std::size_t kBudget = 8;
  std::ostringstream trace_out;
  runtime::TraceLog trace(&trace_out);

  EventLog log;
  Scheduler scheduler(fast_options(1, &trace));
  EXPECT_EQ(scheduler.lookup_cache_size(), 0u);

  const auto result =
      scheduler.submit(gemm_spec(kBudget, 2023), log.sink());
  ASSERT_TRUE(result.ok()) << result.message;
  ASSERT_TRUE(log.wait_terminal());
  // The job's completions fed the cache (best-per-workload keys).
  EXPECT_GT(scheduler.lookup_cache_size(), 0u);

  const auto count_events = [&](const std::string& name) {
    std::istringstream replay(trace_out.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(replay, line)) {
      const Json event = Json::parse(line);
      if (event.at("event").as_string() == name) ++n;
    }
    return n;
  };
  const std::size_t dispatches_before = count_events("job_dispatch");
  ASSERT_GT(dispatches_before, 0u);

  LookupSpec spec;
  spec.kernel = "gemm";
  spec.size = "mini";
  spec.nthreads = 1;
  spec.topk = 1;
  for (int i = 0; i < 3; ++i) {
    const Json reply = scheduler.lookup(spec);
    ASSERT_EQ(reply.at("type").as_string(), "lookup_reply");
    EXPECT_EQ(reply.at("source").as_string(), "cache");
    ASSERT_EQ(reply.at("configs").as_array().size(), 1u);
    EXPECT_GT(reply.at("configs").as_array()[0].at("runtime_s").as_double(),
              0.0);
  }
  // A workload nobody measured (and no model loaded): an honest "none".
  spec.kernel = "cholesky";
  EXPECT_EQ(scheduler.lookup(spec).at("source").as_string(), "none");
  // An unknown kernel: a typed error frame, not a dropped connection.
  spec.kernel = "nope";
  EXPECT_EQ(scheduler.lookup(spec).at("type").as_string(), "error");

  EXPECT_EQ(count_events("job_dispatch"), dispatches_before)
      << "config_lookup must never dispatch a measurement";
  EXPECT_EQ(count_events("config_lookup"), 5u);
}

// --- Multiplexing and fair share ------------------------------------------

TEST(Serve, ThreeConcurrentJobsShareFourWorkers) {
  SKIP_WITHOUT_WORKER();
  // gemm/mini's space has 18 configurations; stay under it so the jobs
  // finish by budget, not by space exhaustion.
  constexpr std::size_t kBudget = 15;
  std::ostringstream trace_out;
  runtime::TraceLog trace(&trace_out);

  EventLog logs[3];
  Scheduler scheduler(fast_options(4, &trace));
  std::uint64_t ids[3];
  const char* tenants[3] = {"alice", "bob", "carol"};
  for (int i = 0; i < 3; ++i) {
    const auto result = scheduler.submit(
        gemm_spec(kBudget, 100 + static_cast<std::uint64_t>(i), tenants[i]),
        logs[i].sink());
    ASSERT_TRUE(result.ok()) << result.message;
    ids[i] = result.job;
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(logs[i].wait_terminal()) << "job " << ids[i] << " stuck";
    EXPECT_EQ(logs[i].count("job_complete"), 1u);
    EXPECT_EQ(logs[i].count("job_trial"), kBudget);
  }

  // Deficit fair share: equal workloads + equal budgets must consume
  // comparable slot time (generous bound — trial runtimes are microseconds
  // and CI timing is noisy, but systematic starvation would blow way
  // past it).
  std::vector<double> seconds;
  for (int i = 0; i < 3; ++i) {
    const auto status = scheduler.status(ids[i]);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::kDone);
    EXPECT_EQ(status->completed, kBudget);
    seconds.push_back(status->slot_seconds);
  }
  const double lo = *std::min_element(seconds.begin(), seconds.end());
  const double hi = *std::max_element(seconds.begin(), seconds.end());
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(hi, lo * 3.0) << "fair share skew: " << lo << " vs " << hi;

  // Trace-verify slot saturation: replaying job_dispatch vs job_trial in
  // order, at least four dispatches must be outstanding at some point —
  // 3 runnable jobs never leave the fleet partially idle. (The count can
  // transiently exceed the fleet size: a slot is released before its
  // completion event is recorded, so the successor dispatch may appear
  // first in the trace.)
  std::istringstream replay(trace_out.str());
  std::string line;
  int in_flight = 0;
  int max_in_flight = 0;
  while (std::getline(replay, line)) {
    const Json event = Json::parse(line);
    const std::string name = event.at("event").as_string();
    if (name == "job_dispatch") {
      max_in_flight = std::max(max_in_flight, ++in_flight);
    } else if (name == "job_trial") {
      --in_flight;
    }
  }
  EXPECT_GE(max_in_flight, 4);
}

// --- Admission control ----------------------------------------------------

TEST(Serve, QuotaAndQueueRejectionsAreTyped) {
  SKIP_WITHOUT_WORKER();
  SchedulerOptions options = fast_options(1);
  options.max_jobs_per_tenant = 1;
  options.max_active_jobs = 2;
  options.max_budget = 50;
  EventLog log_a;
  EventLog log_b;
  Scheduler scheduler(options);

  const auto a = scheduler.submit(fault_spec("fault.spin", 1, "alice"),
                                  log_a.sink());
  ASSERT_TRUE(a.ok()) << a.message;

  const auto a2 = scheduler.submit(gemm_spec(5, 1, "alice"), nullptr);
  EXPECT_EQ(a2.error_code, "quota_exceeded");

  const auto b = scheduler.submit(gemm_spec(5, 1, "bob"), log_b.sink());
  ASSERT_TRUE(b.ok()) << b.message;

  const auto c = scheduler.submit(gemm_spec(5, 1, "carol"), nullptr);
  EXPECT_EQ(c.error_code, "queue_full");

  const auto big = scheduler.submit(gemm_spec(51, 1, "dave"), nullptr);
  EXPECT_EQ(big.error_code, "bad_request");

  JobSpec nonsense = gemm_spec(5, 1, "dave");
  nonsense.strategy = "simulated-annealing";
  EXPECT_EQ(scheduler.submit(nonsense, nullptr).error_code, "bad_request");

  // Cancelling alice's spinner frees her quota slot immediately.
  ASSERT_TRUE(scheduler.cancel(a.job, "test"));
  ASSERT_TRUE(log_a.wait_terminal());
  const auto a3 = scheduler.submit(gemm_spec(5, 2, "alice"), nullptr);
  EXPECT_TRUE(a3.ok()) << a3.error_code << ": " << a3.message;
}

// --- Cancellation ---------------------------------------------------------

/// A spinning trial holds the only worker; cancelling its job SIGKILLs
/// the worker, the slot respawns, and the other tenant's queued job gets
/// it — cancellation frees capacity, it never strands it.
TEST(Serve, CancelMidFlightFreesSlotToOtherTenant) {
  SKIP_WITHOUT_WORKER();
  EventLog spin_log;
  EventLog gemm_log;
  Scheduler scheduler(fast_options(1));

  const auto spin = scheduler.submit(fault_spec("fault.spin", 2, "alice"),
                                     spin_log.sink());
  ASSERT_TRUE(spin.ok()) << spin.message;
  ASSERT_TRUE(spin_log.wait_event("job_start"));

  const auto gemm = scheduler.submit(gemm_spec(4, 7, "bob"),
                                     gemm_log.sink());
  ASSERT_TRUE(gemm.ok()) << gemm.message;
  // The only slot is pinned by the spinning trial.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(scheduler.status(gemm.job)->completed, 0u);

  ASSERT_TRUE(scheduler.cancel(spin.job, "test cancel"));
  ASSERT_TRUE(spin_log.wait_terminal());
  EXPECT_EQ(spin_log.count("job_cancel"), 1u);
  ASSERT_TRUE(gemm_log.wait_terminal());
  EXPECT_EQ(gemm_log.count("job_complete"), 1u);
  EXPECT_EQ(scheduler.status(gemm.job)->completed, 4u);
  EXPECT_GE(scheduler.pool().total_kills(), 1u);
}

// --- Fault and fleet resilience -------------------------------------------

/// Every trial of an armed fault.segv job kills its worker mid-trial; the
/// crash verdicts flow back as invalid trials, the slots respawn, and the
/// job still runs its full budget — no ticket is ever stranded.
TEST(Serve, WorkerCrashMidStreamDoesNotStrandJob) {
  SKIP_WITHOUT_WORKER();
  EventLog log;
  Scheduler scheduler(fast_options(2));
  const auto result = scheduler.submit(fault_spec("fault.segv", 4),
                                       log.sink());
  ASSERT_TRUE(result.ok()) << result.message;
  ASSERT_TRUE(log.wait_terminal());
  EXPECT_EQ(log.count("job_complete"), 1u);
  EXPECT_EQ(log.count("job_trial"), 4u);
  for (const Json& event : log.events()) {
    if (event.contains("event") &&
        event.at("event").as_string() == "job_trial") {
      EXPECT_FALSE(event.at("valid").as_bool());
    }
  }
  EXPECT_GE(scheduler.pool().total_crashes(), 4u);
}

/// Shrinking and growing the fleet under two active jobs must not lose a
/// single dispatch: retired slots serve out their in-flight trial, new
/// slots spawn lazily, and both jobs complete their budgets.
TEST(Serve, ResizeDuringActiveJobsNeverStrands) {
  SKIP_WITHOUT_WORKER();
  EventLog logs[2];
  Scheduler scheduler(fast_options(3));
  std::uint64_t ids[2];
  for (int i = 0; i < 2; ++i) {
    const auto result = scheduler.submit(
        gemm_spec(15, 200 + static_cast<std::uint64_t>(i),
                  i == 0 ? "alice" : "bob"),
        logs[i].sink());
    ASSERT_TRUE(result.ok()) << result.message;
    ids[i] = result.job;
  }
  ASSERT_TRUE(logs[0].wait_event("job_start"));
  scheduler.pool().resize(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  scheduler.pool().resize(4);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(logs[i].wait_terminal()) << "job " << ids[i] << " stuck";
    EXPECT_EQ(scheduler.status(ids[i])->completed, 15u);
  }
  EXPECT_EQ(scheduler.pool().num_workers(), 4u);
}

/// Pool-level lease contract: try_acquire is non-blocking and exhausts,
/// released slots come back, resize retires/revives slots, and a leased
/// slot survives shrink-then-release without stranding.
TEST(Serve, PoolLeaseAcquireReleaseResize) {
  SKIP_WITHOUT_WORKER();
  distd::WorkerPoolOptions options;
  options.num_workers = 2;
  options.heartbeat_ms = 100;
  distd::WorkerPool pool(options);

  auto a = pool.try_acquire();
  auto b = pool.try_acquire();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(pool.try_acquire().has_value()) << "third lease from 2 slots";

  // A leased slot still measures (benign fault kernel: tiny real work).
  distd::MeasureRequest request;
  request.workload = distd::make_fault_workload("fault.segv");
  request.tiles = {1};
  const runtime::MeasureResult result =
      pool.measure_leased(*a, request);
  EXPECT_TRUE(result.valid) << result.error;

  pool.release(std::move(*a));
  auto again = pool.try_acquire();
  ASSERT_TRUE(again.has_value());  // the slot came back
  pool.release(std::move(*again));

  // Shrink while slot b is still leased: its worker serves out the lease
  // and shuts down on release instead of rejoining the free list.
  pool.resize(1);
  EXPECT_EQ(pool.num_workers(), 1u);
  pool.release(std::move(*b));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Grow again: revived/parked slots are acquirable immediately (they
  // spawn lazily on first dispatch).
  pool.resize(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::vector<distd::WorkerPool::Lease> leases;
  for (int i = 0; i < 3; ++i) {
    auto lease = pool.try_acquire();
    ASSERT_TRUE(lease.has_value()) << "slot " << i << " not acquirable";
    leases.push_back(std::move(*lease));
  }
  EXPECT_FALSE(pool.try_acquire().has_value());
  for (auto& lease : leases) {
    const runtime::MeasureResult r = pool.measure_leased(lease, request);
    EXPECT_TRUE(r.valid) << r.error;
    pool.release(std::move(lease));
  }
}

// --- Drain ----------------------------------------------------------------

TEST(Serve, DrainCancelsUnfinishedAndRejectsNew) {
  SKIP_WITHOUT_WORKER();
  EventLog logs[2];
  Scheduler scheduler(fast_options(1));
  std::uint64_t ids[2];
  for (int i = 0; i < 2; ++i) {
    const auto result = scheduler.submit(
        gemm_spec(5000, 300 + static_cast<std::uint64_t>(i),
                  i == 0 ? "alice" : "bob"),
        logs[i].sink());
    ASSERT_TRUE(result.ok()) << result.message;
    ids[i] = result.job;
  }
  scheduler.drain();
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(logs[i].wait_terminal(5)) << "no terminal event";
    EXPECT_EQ(logs[i].count("job_cancel"), 1u);
    const auto status = scheduler.status(ids[i]);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::kCancelled);
    EXPECT_LT(status->completed, 5000u);
  }
  EXPECT_EQ(scheduler.submit(gemm_spec(5, 1), nullptr).error_code,
            "draining");
}

// --- Socket server + client ----------------------------------------------

std::string temp_socket_path(const char* tag) {
  return "/tmp/tvmbo_serve_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(Serve, ServerSubmitStreamsEventsAndAnswersQueries) {
  SKIP_WITHOUT_WORKER();
  Scheduler scheduler(fast_options(2));
  ServerOptions server_options;
  server_options.socket_path = temp_socket_path("query");
  server_options.poll_ms = 50;
  ServeServer server(&scheduler, server_options);

  ServeClient client(server.endpoint());
  JobSpec spec = gemm_spec(5, 11, "alice");
  const auto outcome = client.submit(spec);
  ASSERT_TRUE(outcome.ok()) << outcome.error_code << ": " << outcome.message;

  std::size_t trials = 0;
  bool complete = false;
  while (!complete) {
    const auto event = client.next_event(/*timeout_ms=*/2000);
    ASSERT_TRUE(event.has_value()) << "event stream stalled";
    const std::string name = event->at("event").as_string();
    if (name == "job_trial") ++trials;
    if (name == "job_complete") complete = true;
  }
  EXPECT_EQ(trials, 5u);

  const auto status = job_status(server.endpoint(), outcome.job);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->at("state").as_string(), "done");
  EXPECT_EQ(status->at("completed").as_int(), 5);

  const Json list = job_list(server.endpoint());
  EXPECT_EQ(list.at("jobs").as_array().size(), 1u);

  // Terminal jobs are not cancellable; unknown ids are typed errors.
  EXPECT_FALSE(job_cancel(server.endpoint(), outcome.job));
  EXPECT_FALSE(job_cancel(server.endpoint(), 999));

  scheduler.drain();
  server.shutdown();
}

/// A vanished client (EOF on the submit connection) cancels its job so an
/// abandoned tenant cannot keep burning the shared fleet.
TEST(Serve, ClientDisconnectCancelsJob) {
  SKIP_WITHOUT_WORKER();
  Scheduler scheduler(fast_options(1));
  ServerOptions server_options;
  server_options.socket_path = temp_socket_path("eof");
  server_options.poll_ms = 50;
  ServeServer server(&scheduler, server_options);

  std::uint64_t job = 0;
  {
    ServeClient client(server.endpoint());
    const auto outcome = client.submit(fault_spec("fault.spin", 2));
    ASSERT_TRUE(outcome.ok()) << outcome.message;
    job = outcome.job;
    // Leaving scope closes the connection mid-job.
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    const auto status = scheduler.status(job);
    ASSERT_TRUE(status.has_value());
    if (status->state == JobState::kCancelled) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "disconnect never cancelled the job";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  scheduler.drain();
  server.shutdown();
}

}  // namespace
}  // namespace tvmbo::serve

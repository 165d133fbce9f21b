// Out-of-process measurement (distd): crash isolation, hard timeouts,
// worker respawn, lifecycle tracing, artifact-cache sharing, and the
// local/proc determinism contract.
//
// These tests spawn real tvmbo_worker processes (built alongside the test
// binary; resolved via the same path logic the WorkerPool uses) and are
// skipped when the worker binary cannot be found.
#include "distd/proc_device.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "distd/fault_kernels.h"
#include "distd/worker_pool.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "runtime/cpu_device.h"
#include "runtime/measure_runner.h"
#include "runtime/trace_log.h"

namespace tvmbo::distd {
namespace {

bool worker_binary_available() {
  const std::string binary = resolve_worker_binary("");
  // An absolute/relative path was resolved (exe-adjacent or configured);
  // a bare name means the pool would fall back to a $PATH lookup, which
  // the test tree cannot rely on.
  if (binary.find('/') == std::string::npos) return false;
  return ::access(binary.c_str(), X_OK) == 0;
}

#define SKIP_WITHOUT_WORKER()                                        \
  do {                                                               \
    if (!worker_binary_available())                                  \
      GTEST_SKIP() << "tvmbo_worker binary not found; build the "    \
                      "tools targets first";                         \
  } while (0)

/// Benign (or armed, when tiles[0] == kFaultTrigger) input for one of the
/// hostile test kernels. Only the workload id and tiles cross the process
/// boundary; the worker rebuilds the runnable itself.
runtime::MeasureInput fault_input(const std::string& kernel,
                                  std::int64_t lead_tile) {
  return make_fault_input(make_fault_workload(kernel), {lead_tile});
}

/// Distinct valid gemm/mini configurations (real kernel, native backend).
std::vector<runtime::MeasureInput> gemm_batch(std::size_t count,
                                              std::uint64_t seed = 17) {
  const autotvm::Task task =
      kernels::make_task("gemm", kernels::Dataset::kMini);
  const cs::ConfigurationSpace& space = task.config.space();
  Rng rng(seed);
  std::vector<runtime::MeasureInput> inputs;
  for (std::size_t i = 0; i < count; ++i) {
    runtime::MeasureInput input;
    input.workload = task.workload;
    input.tiles = space.values_int(space.sample(rng));
    inputs.push_back(std::move(input));
  }
  return inputs;
}

ProcDeviceOptions proc_options(std::size_t workers,
                               runtime::TraceLog* trace = nullptr) {
  ProcDeviceOptions options;
  options.pool.num_workers = workers;
  options.pool.trace = trace;
  options.pool.heartbeat_ms = 100;
  options.pool.max_respawn_backoff_ms = 200;
  return options;
}

TEST(ProcRunner, SmokeBatchAllValid) {
  SKIP_WITHOUT_WORKER();
  ProcDevice device(proc_options(2));
  EXPECT_EQ(device.max_concurrent_measurements(), 2u);

  runtime::MeasureRunnerOptions runner_options;
  runner_options.parallel = true;
  ThreadPool pool(4);  // the host may report a single core
  runtime::MeasureRunner runner(&device, runner_options, &pool);

  runtime::MeasureOption option;
  option.repeat = 2;
  const auto inputs = gemm_batch(6);
  const auto results = runner.measure_batch(inputs, option);
  ASSERT_EQ(results.size(), inputs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].valid) << "trial " << i << ": "
                                  << results[i].error;
    EXPECT_GT(results[i].runtime_s, 0.0);
  }
  EXPECT_EQ(device.pool().total_crashes(), 0u);
  EXPECT_EQ(device.pool().total_kills(), 0u);
}

/// Crash isolation on a fleet of one and of four: the armed trial comes
/// back invalid with the signal named; every other trial succeeds and the
/// tuner process never sees the SIGSEGV.
void run_crash_isolation(std::size_t workers) {
  ProcDevice device(proc_options(workers));
  runtime::MeasureRunnerOptions runner_options;
  runner_options.parallel = workers > 1;
  ThreadPool pool(4);
  runtime::MeasureRunner runner(&device, runner_options, &pool);

  std::vector<runtime::MeasureInput> inputs;
  for (std::int64_t lead :
       std::vector<std::int64_t>{1, 2, kFaultTrigger, 3, 4, 5}) {
    inputs.push_back(fault_input("fault.segv", lead));
  }
  runtime::MeasureOption option;
  option.repeat = 1;
  const auto results = runner.measure_batch(inputs, option);
  ASSERT_EQ(results.size(), inputs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(results[i].valid);
      EXPECT_NE(results[i].error.find("signal"), std::string::npos)
          << results[i].error;
    } else {
      EXPECT_TRUE(results[i].valid) << "trial " << i << ": "
                                    << results[i].error;
    }
  }
  EXPECT_GE(device.pool().total_crashes(), 1u);
  // The crashed slot was respawned and the device stays usable.
  const auto again =
      runner.measure_batch(std::vector<runtime::MeasureInput>{
                               fault_input("fault.segv", 1)},
                           option);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_TRUE(again[0].valid) << again[0].error;
}

TEST(ProcRunner, CrashIsolationSingleWorker) {
  SKIP_WITHOUT_WORKER();
  run_crash_isolation(1);
}

TEST(ProcRunner, CrashIsolationFourWorkers) {
  SKIP_WITHOUT_WORKER();
  run_crash_isolation(4);
}

TEST(ProcRunner, AbortReportsSignal) {
  SKIP_WITHOUT_WORKER();
  ProcDevice device(proc_options(1));
  runtime::MeasureRunner runner(&device);
  runtime::MeasureOption option;
  option.repeat = 1;
  const auto result =
      runner.measure_one(fault_input("fault.abort", kFaultTrigger), option);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("signal"), std::string::npos) << result.error;
}

TEST(ProcRunner, PrematureExitReportsStatus) {
  SKIP_WITHOUT_WORKER();
  ProcDevice device(proc_options(1));
  runtime::MeasureRunner runner(&device);
  runtime::MeasureOption option;
  option.repeat = 1;
  const auto result =
      runner.measure_one(fault_input("fault.exit", kFaultTrigger), option);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("exit"), std::string::npos) << result.error;
}

/// The cooperative-timeout gap, closed: CpuDevice checks timeout_s only
/// *between* runs, so a single run that never returns escapes it. Behind
/// the process runner the same MeasureOption derives a hard wall-clock
/// deadline — timeout_s * (warmup + repeat + 1) + grace — and the spinning
/// worker is SIGKILLed, the trial reports a "timeout ..." error (so the
/// retry policy classifies it as a timeout, not a transient error), and
/// the fleet respawns the slot.
TEST(ProcRunner, HardTimeoutKillsSpinningRun) {
  SKIP_WITHOUT_WORKER();
  auto options = proc_options(1);
  options.pool.hard_timeout_grace_s = 0.5;
  ProcDevice device(options);
  runtime::MeasureRunner runner(&device);

  runtime::MeasureOption option;
  option.repeat = 1;
  option.timeout_s = 0.25;  // hard deadline: 0.25 * 2 + 0.5 = 1 s
  const auto result =
      runner.measure_one(fault_input("fault.spin", kFaultTrigger), option);
  EXPECT_FALSE(result.valid);
  // The "timeout" prefix is the RetryPolicy::retry_timeouts contract.
  EXPECT_EQ(result.error.rfind("timeout", 0), 0u) << result.error;
  EXPECT_GE(device.pool().total_kills(), 1u);

  // The killed worker was respawned: the device is immediately usable.
  const auto benign =
      runner.measure_one(fault_input("fault.spin", 1), option);
  EXPECT_TRUE(benign.valid) << benign.error;
}

/// ISSUE acceptance: a batch containing a crashing config and a hung
/// config completes with exactly those two trials invalid (signal and
/// timeout errors respectively), all other trials measured, and the tuner
/// process alive for the next batch.
TEST(ProcRunner, MixedCrashAndHangBatchAcceptance) {
  SKIP_WITHOUT_WORKER();
  auto options = proc_options(2);
  options.pool.hard_timeout_grace_s = 0.5;
  ProcDevice device(options);
  runtime::MeasureRunnerOptions runner_options;
  runner_options.parallel = true;
  ThreadPool pool(4);
  runtime::MeasureRunner runner(&device, runner_options, &pool);

  std::vector<runtime::MeasureInput> inputs;
  inputs.push_back(fault_input("fault.segv", 1));             // benign
  inputs.push_back(fault_input("fault.segv", kFaultTrigger));  // crashes
  inputs.push_back(fault_input("fault.spin", 2));             // benign
  inputs.push_back(fault_input("fault.spin", kFaultTrigger));  // hangs
  inputs.push_back(fault_input("fault.abort", 3));            // benign
  inputs.push_back(fault_input("fault.exit", 4));             // benign

  runtime::MeasureOption option;
  option.repeat = 1;
  option.timeout_s = 0.25;
  const auto results = runner.measure_batch(inputs, option);
  ASSERT_EQ(results.size(), inputs.size());

  EXPECT_FALSE(results[1].valid);
  EXPECT_NE(results[1].error.find("signal"), std::string::npos)
      << results[1].error;
  EXPECT_FALSE(results[3].valid);
  EXPECT_EQ(results[3].error.rfind("timeout", 0), 0u) << results[3].error;
  for (std::size_t i : {0u, 2u, 4u, 5u}) {
    EXPECT_TRUE(results[i].valid) << "trial " << i << ": "
                                  << results[i].error;
    EXPECT_GT(results[i].runtime_s, 0.0);
  }

  // Tuner alive: a follow-up all-benign batch on the same device works.
  const auto again = runner.measure_batch(gemm_batch(4), option);
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_TRUE(again[i].valid) << "trial " << i << ": " << again[i].error;
  }
}

TEST(ProcRunner, LifecycleTraceEvents) {
  SKIP_WITHOUT_WORKER();
  std::ostringstream sink;
  runtime::TraceLog trace(&sink);
  {
    auto options = proc_options(1, &trace);
    options.pool.hard_timeout_grace_s = 0.5;
    ProcDevice device(options);
    runtime::MeasureRunner runner(&device);
    runtime::MeasureOption option;
    option.repeat = 1;
    option.timeout_s = 0.25;
    runner.measure_one(fault_input("fault.segv", kFaultTrigger), option);
    runner.measure_one(fault_input("fault.spin", kFaultTrigger), option);
    // Device destruction shuts the fleet down -> worker_exit events.
  }
  const std::string log = sink.str();
  for (const char* event :
       {"worker_spawn", "worker_dispatch", "worker_kill", "worker_respawn",
        "worker_exit", "worker_heartbeat"}) {
    EXPECT_NE(log.find(std::string("\"event\":\"") + event + "\""),
              std::string::npos)
        << "missing " << event << " in trace:\n" << log;
  }
}

/// Satellite: the respawn backoff must not sleep on the dispatching
/// thread. A second consecutive crash parks the slot with a not-before
/// deadline (worker_respawn traced with deferred=true) and the spawn is
/// retried on the slot's next dispatch once the deadline passes.
TEST(ProcRunner, RespawnBackoffDefersWithoutBlockingDispatch) {
  SKIP_WITHOUT_WORKER();
  std::ostringstream sink;
  runtime::TraceLog trace(&sink);
  ProcDevice device(proc_options(1, &trace));
  runtime::MeasureRunner runner(&device);
  runtime::MeasureOption option;
  option.repeat = 1;

  const auto first =
      runner.measure_one(fault_input("fault.segv", kFaultTrigger), option);
  EXPECT_FALSE(first.valid);
  const auto second =
      runner.measure_one(fault_input("fault.segv", kFaultTrigger), option);
  EXPECT_FALSE(second.valid);

  bool immediate = false, deferred = false;
  for (const Json& event : Json::parse_lines(sink.str())) {
    if (event.at("event").as_string() != "worker_respawn") continue;
    if (event.at("deferred").as_bool()) {
      deferred = true;
      EXPECT_GT(event.at("backoff_ms").as_int(), 0);
    } else {
      immediate = true;
    }
  }
  EXPECT_TRUE(immediate);  // first failure respawns right away
  EXPECT_TRUE(deferred);   // second failure parks the slot instead

  // The parked slot comes back on its own: the next dispatch (past the
  // backoff deadline) respawns it and measures normally.
  const auto benign = runner.measure_one(fault_input("fault.segv", 1), option);
  EXPECT_TRUE(benign.valid) << benign.error;
}

/// Satellite: a crash and a hard-timeout of *in-flight* streamed trials
/// surface as invalid completions without wedging the pipeline — every
/// submitted ticket comes back and the device stays usable.
TEST(ProcRunner, AsyncStreamingCrashAndHangSurfaceWithoutWedging) {
  SKIP_WITHOUT_WORKER();
  auto options = proc_options(2);
  options.pool.hard_timeout_grace_s = 0.5;
  ProcDevice device(options);
  runtime::MeasureRunnerOptions runner_options;
  runner_options.parallel = true;
  ThreadPool pool(4);
  runtime::MeasureRunner runner(&device, runner_options, &pool);
  runtime::MeasureOption option;
  option.repeat = 1;
  option.timeout_s = 0.25;

  enum class Kind { kBenign, kCrash, kHang };
  std::map<runtime::MeasureRunner::Ticket, Kind> expected;
  expected[runner.submit(fault_input("fault.segv", 1), option)] =
      Kind::kBenign;
  expected[runner.submit(fault_input("fault.segv", kFaultTrigger), option)] =
      Kind::kCrash;
  expected[runner.submit(fault_input("fault.spin", 2), option)] =
      Kind::kBenign;
  expected[runner.submit(fault_input("fault.spin", kFaultTrigger), option)] =
      Kind::kHang;
  expected[runner.submit(fault_input("fault.abort", 3), option)] =
      Kind::kBenign;

  for (int i = 0; i < 5; ++i) {
    const auto completion = runner.wait_any();
    const auto it = expected.find(completion.ticket);
    ASSERT_NE(it, expected.end()) << "unknown ticket " << completion.ticket;
    switch (it->second) {
      case Kind::kBenign:
        EXPECT_TRUE(completion.result.valid) << completion.result.error;
        break;
      case Kind::kCrash:
        EXPECT_FALSE(completion.result.valid);
        EXPECT_NE(completion.result.error.find("signal"), std::string::npos)
            << completion.result.error;
        break;
      case Kind::kHang:
        EXPECT_FALSE(completion.result.valid);
        EXPECT_EQ(completion.result.error.rfind("timeout", 0), 0u)
            << completion.result.error;
        break;
    }
    expected.erase(it);
  }
  EXPECT_TRUE(expected.empty());
  EXPECT_EQ(runner.in_flight(), 0u);

  // Not wedged: a follow-up streamed trial completes normally.
  runner.submit(fault_input("fault.segv", 2), option);
  EXPECT_TRUE(runner.wait_any().result.valid);
}

TEST(ProcRunner, BadWorkerBinaryThrowsAtConstruction) {
  auto options = proc_options(1);
  options.pool.worker_binary = "/nonexistent/tvmbo_worker";
  options.pool.spawn_timeout_s = 2.0;
  EXPECT_THROW(ProcDevice{options}, CheckError);
}

TEST(ProcRunner, SocketParentDirFitsSunPathOrFallsBackToTmp) {
  EXPECT_EQ(socket_parent_dir("/var/tmp"), "/var/tmp");
  EXPECT_EQ(socket_parent_dir("/" + std::string(100, 'd')), "/tmp");
  EXPECT_EQ(socket_parent_dir(""), "/tmp");
}

/// A unix-transport pool makes its socket directory under $TMPDIR, and
/// under /tmp when the socket path would not fit sun_path there.
TEST(ProcRunner, UnixSocketHonoursTmpdir) {
  SKIP_WITHOUT_WORKER();
  char tmpl[] = "/tmp/tvmbo-tmpdir-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string short_dir = tmpl;
  const std::string long_dir = short_dir + "/" + std::string(100, 'd');
  std::filesystem::create_directories(long_dir);
  const char* saved = std::getenv("TMPDIR");
  const std::string saved_value = saved != nullptr ? saved : "";

  const auto endpoint_under = [](const std::string& tmpdir) {
    ::setenv("TMPDIR", tmpdir.c_str(), 1);
    WorkerPoolOptions options;
    options.num_workers = 1;
    options.heartbeat_ms = 100;
    WorkerPool pool(options);
    return pool.endpoint();
  };
  const std::string near = endpoint_under(short_dir);
  const std::string fallback = endpoint_under(long_dir);
  if (saved != nullptr) {
    ::setenv("TMPDIR", saved_value.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  EXPECT_EQ(near.rfind("unix:" + short_dir + "/tvmbo-distd-", 0), 0u)
      << near;
  EXPECT_EQ(fallback.rfind("unix:/tmp/tvmbo-distd-", 0), 0u) << fallback;
  // Each pool removed its socket directory on shutdown.
  EXPECT_TRUE(std::filesystem::is_empty(long_dir));
  std::filesystem::remove_all(short_dir);
}

TEST(ProcRunner, JitBackendSharesOneArtifactCacheAcrossWorkers) {
  SKIP_WITHOUT_WORKER();
  char tmpl[] = "/tmp/tvmbo-proc-cache-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string cache_dir = tmpl;

  auto options = proc_options(2);
  options.backend = runtime::ExecBackend::kJit;
  options.jit.cache_dir = cache_dir;
  ProcDevice device(options);

  runtime::MeasureRunnerOptions runner_options;
  runner_options.parallel = true;
  ThreadPool pool(4);
  runtime::MeasureRunner runner(&device, runner_options, &pool);
  runtime::MeasureOption option;
  option.repeat = 1;
  // The same configuration twice plus distinct ones: both workers compile
  // into (and hit) the one content-addressed directory.
  auto inputs = gemm_batch(3);
  inputs.push_back(inputs[0]);
  const auto results = runner.measure_batch(inputs, option);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].valid) << "trial " << i << ": "
                                  << results[i].error;
  }
  std::size_t artifacts = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(cache_dir)) {
    (void)entry;
    ++artifacts;
  }
  EXPECT_GT(artifacts, 0u);
  std::filesystem::remove_all(cache_dir);
}

/// Satellite: fixed-seed replay. The random strategy's proposals are
/// independent of measured runtimes, so the same seed must produce the
/// identical per-evaluation configuration sequence whether trials run
/// in-process (CpuDevice) or out-of-process (ProcDevice) — wall-clock
/// noise may change which config *wins*, but never which configs are
/// visited.
TEST(ProcRunner, FixedSeedReplayMatchesLocalRunnerTrajectory) {
  SKIP_WITHOUT_WORKER();
  const autotvm::Task task = kernels::make_task(
      "gemm", kernels::Dataset::kMini, /*executable=*/true);

  framework::SessionOptions session_options;
  session_options.max_evaluations = 8;
  session_options.seed = 2023;

  runtime::CpuDevice local;
  framework::AutotuningSession local_session(&task, &local,
                                             session_options);
  const framework::SessionResult local_result =
      local_session.run(framework::StrategyKind::kAutotvmRandom);

  ProcDevice proc(proc_options(2));
  framework::AutotuningSession proc_session(&task, &proc, session_options);
  const framework::SessionResult proc_result =
      proc_session.run(framework::StrategyKind::kAutotvmRandom);

  ASSERT_EQ(local_result.db.size(), proc_result.db.size());
  for (std::size_t i = 0; i < local_result.db.size(); ++i) {
    EXPECT_EQ(local_result.db.record(i).tiles,
              proc_result.db.record(i).tiles)
        << "evaluation " << i << " diverged between runners";
    EXPECT_TRUE(proc_result.db.record(i).valid);
  }
  ASSERT_TRUE(local_result.best.has_value());
  ASSERT_TRUE(proc_result.best.has_value());
}

}  // namespace
}  // namespace tvmbo::distd

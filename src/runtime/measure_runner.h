// MeasureRunner: the batched measurement engine behind every search
// strategy's Step 3–5 loop (compile -> execute -> report).
//
// Strategies propose batches (AutoTVM batches of 8, ytopt's qLCB
// multi-point proposals); the runner executes a whole batch against one
// Device with
//
//  * deterministic result ordering — results come back in submission
//    order no matter which trial finishes first;
//  * per-trial fault isolation — an exception (or timeout) in one trial
//    yields an invalid MeasureResult for that slot instead of poisoning
//    the batch or unwinding the tuning loop;
//  * a configurable retry policy for transiently-failing trials;
//  * an optional JSON-lines trace (trace_log.h) recording proposed /
//    compile / run / retry / result per trial with strategy attribution.
//
// Two batch execution modes:
//
//  * serial (default) — trials run inline in submission order. This is
//    bit-identical to the historical sequential measure loop, which keeps
//    stateful devices (SwingSimDevice's jitter RNG) and therefore the
//    paper-figure CSVs deterministic.
//  * parallel — trials are dispatched onto the shared ThreadPool, capped
//    by Device::max_concurrent_measurements() (a device that is stateful
//    or order-sensitive reports 1 and is automatically driven serially,
//    so SwingSimDevice results are identical either way, while CpuDevice
//    batches really overlap on a multi-core host).
//
// On top of the batch interface the runner exposes a completion-driven
// streaming mode — submit(input) -> ticket, wait_any() -> (ticket,
// result) — with no wave barrier: every measurement slot is refilled the
// moment it frees up, so one straggling trial never idles the other
// slots (the batch path, by contrast, waits for the slowest member of
// each wave). Streaming trials carry the same per-trial fault isolation,
// retry policy, and pre-screen as batches, plus `dispatch` / `complete`
// trace events bracketing each slot occupancy. Submissions must come
// from outside the runner's thread pool (the driver thread); completion
// order is whatever the device delivers, which with a serial runner
// (async_slots() == 1) degenerates to submission order — the fixed-seed
// determinism mode.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "runtime/measure.h"
#include "runtime/trace_log.h"

namespace tvmbo::runtime {

/// When to re-run a failed trial. A retry replaces the failed attempt's
/// result; the last attempt's result is reported either way.
struct RetryPolicy {
  int max_retries = 0;          ///< extra attempts per trial after the first
  bool retry_errors = true;     ///< retry thrown / invalid measurements
  bool retry_timeouts = false;  ///< timeouts are usually persistent
};

struct MeasureRunnerOptions {
  /// Execute batch members concurrently (see the header comment for the
  /// serial-fallback determinism contract).
  bool parallel = false;
  /// Run MeasureInput::static_check before dispatching each trial; a
  /// violation yields an invalid result ("analysis reject: rule: ...",
  /// tuner-visible like a timeout) and an `analysis_reject` trace event
  /// without ever spending a device/worker on the config.
  bool prescreen = false;
  /// Extra cap on in-flight trials; 0 defers to the device/pool bounds.
  std::size_t max_concurrency = 0;
  RetryPolicy retry;
  /// Optional JSON-lines event log (not owned; may be null).
  TraceLog* trace = nullptr;
  /// Strategy attribution stamped on every trace event.
  std::string strategy;
};

class MeasureRunner {
 public:
  /// Identifies one streamed trial from submit() to its wait_any()
  /// completion (also the trial id stamped on its trace events).
  using Ticket = std::size_t;

  /// One completed streamed trial.
  struct Completion {
    Ticket ticket = 0;
    MeasureResult result;
  };

  /// The device (and trace log, when set) must outlive the runner. A null
  /// pool means the process-wide default pool.
  explicit MeasureRunner(Device* device, MeasureRunnerOptions options = {},
                         ThreadPool* pool = nullptr);
  /// Drains any still-running streamed trials (their results are
  /// discarded) before releasing the runner's state.
  ~MeasureRunner();

  /// Measures every input; results[i] always corresponds to inputs[i].
  /// Never throws for per-trial failures: a trial that throws or times
  /// out is reported as an invalid MeasureResult carrying its error.
  std::vector<MeasureResult> measure_batch(
      std::span<const MeasureInput> inputs, const MeasureOption& option);

  /// Single-trial convenience with the same isolation/retry/trace
  /// behaviour as a batch of one.
  MeasureResult measure_one(const MeasureInput& input,
                            const MeasureOption& option);

  /// Streaming mode: enqueues one trial and returns immediately. The
  /// trial starts the moment a slot (async_slots()) frees up — no wave
  /// barrier — and its result is collected via wait_any(). Must be
  /// called from outside the runner's thread pool.
  Ticket submit(MeasureInput input, const MeasureOption& option);

  /// Blocks until any streamed trial completes and returns it (completion
  /// order, not submission order). CheckError when nothing is in flight.
  /// Must be called from outside the runner's thread pool.
  Completion wait_any();

  /// Streamed trials submitted but not yet returned by wait_any().
  std::size_t in_flight() const;

  /// Concurrent streaming slots: min of the device bound, the pool
  /// width, and options().max_concurrency — 1 when the runner is not
  /// parallel (the deterministic serial mode).
  std::size_t async_slots() const;

  Device* device() const { return device_; }
  const MeasureRunnerOptions& options() const { return options_; }
  /// Trials rejected by the static pre-screen (never dispatched).
  std::size_t analysis_rejects() const { return analysis_rejects_; }

 private:
  /// One submitted-but-not-yet-dispatched streamed trial.
  struct AsyncJob {
    Ticket ticket = 0;
    MeasureInput input;
    MeasureOption option;
  };

  /// In-flight cap for one batch: min of batch size, device concurrency
  /// bound, pool width, and the configured cap (all where > 0).
  std::size_t concurrency_limit(std::size_t batch) const;
  /// One trial end-to-end: attempts + retries + trace events. Never
  /// throws.
  MeasureResult run_trial(const MeasureInput& input,
                          const MeasureOption& option, std::size_t trial);
  /// One device->measure call with fault isolation. Never throws.
  MeasureResult attempt_once(const MeasureInput& input,
                             const MeasureOption& option);
  /// Slot refill: dispatches queued jobs while slots are free. Caller
  /// holds async_mutex_.
  void dispatch_ready_locked();
  void trace_proposed(const MeasureInput& input, std::size_t trial);
  Json event(const char* name, std::size_t trial) const;

  Device* device_;
  MeasureRunnerOptions options_;
  ThreadPool* pool_;
  std::atomic<std::size_t> next_trial_{0};
  std::atomic<std::size_t> analysis_rejects_{0};

  // Streaming state: queued jobs wait for a slot; completions wait for
  // wait_any(). outstanding_ = queued + running + completed-uncollected.
  mutable std::mutex async_mutex_;
  std::condition_variable async_cv_;
  std::deque<AsyncJob> async_queue_;
  std::deque<Completion> async_completed_;
  std::size_t async_running_ = 0;
  std::size_t async_outstanding_ = 0;
};

}  // namespace tvmbo::runtime

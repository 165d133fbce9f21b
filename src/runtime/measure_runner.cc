#include "runtime/measure_runner.h"

#include <algorithm>
#include <future>

#include "common/logging.h"

namespace tvmbo::runtime {

namespace {

bool is_timeout(const MeasureResult& result) {
  return result.error.rfind("timeout", 0) == 0;
}

}  // namespace

MeasureRunner::MeasureRunner(Device* device, MeasureRunnerOptions options,
                             ThreadPool* pool)
    : device_(device), options_(std::move(options)),
      pool_(pool != nullptr ? pool : &default_thread_pool()) {
  TVMBO_CHECK(device_ != nullptr) << "measure runner requires a device";
  TVMBO_CHECK_GE(options_.retry.max_retries, 0)
      << "max_retries must be non-negative";
}

MeasureRunner::~MeasureRunner() {
  // A streamed trial still running on the pool captures `this`; wait for
  // every dispatched/queued job to finish before the members go away.
  std::unique_lock<std::mutex> lock(async_mutex_);
  async_cv_.wait(lock, [&] {
    return async_running_ == 0 && async_queue_.empty();
  });
}

Json MeasureRunner::event(const char* name, std::size_t trial) const {
  Json e = Json::object();
  e.set("event", name);
  e.set("trial", trial);
  if (!options_.strategy.empty()) e.set("strategy", options_.strategy);
  return e;
}

void MeasureRunner::trace_proposed(const MeasureInput& input,
                                   std::size_t trial) {
  Json e = event("proposed", trial);
  e.set("workload", input.workload.id());
  Json tiles = Json::array();
  for (std::int64_t t : input.tiles) tiles.push_back(t);
  e.set("tiles", std::move(tiles));
  options_.trace->record(std::move(e));
}

MeasureResult MeasureRunner::attempt_once(const MeasureInput& input,
                                          const MeasureOption& option) {
  try {
    return device_->measure(input, option);
  } catch (const std::exception& e) {
    MeasureResult result;
    result.valid = false;
    result.error = e.what();
    return result;
  } catch (...) {
    MeasureResult result;
    result.valid = false;
    result.error = "unknown measurement error";
    return result;
  }
}

MeasureResult MeasureRunner::run_trial(const MeasureInput& input,
                                       const MeasureOption& option,
                                       std::size_t trial) {
  MeasureResult result;
  // Static pre-screen: a config the analyzer rejects never reaches the
  // device — the tuner sees an explicit invalid result (like a timeout)
  // after only an analysis pass, not a wasted worker.
  if (options_.prescreen && input.static_check) {
    std::string violation;
    try {
      violation = input.static_check();
    } catch (const std::exception& e) {
      violation = e.what();
    }
    if (!violation.empty()) {
      analysis_rejects_.fetch_add(1);
      result.valid = false;
      result.error = "analysis reject: " + violation;
      if (options_.trace != nullptr) {
        Json reject = event("analysis_reject", trial);
        reject.set("workload", input.workload.id());
        Json tiles = Json::array();
        for (std::int64_t t : input.tiles) tiles.push_back(t);
        reject.set("tiles", std::move(tiles));
        reject.set("rule", violation.substr(0, violation.find(':')));
        reject.set("error", result.error);
        options_.trace->record(std::move(reject));
        Json done = event("result", trial);
        done.set("valid", false);
        done.set("runtime_s", 0.0);
        done.set("compile_s", 0.0);
        done.set("energy_j", 0.0);
        done.set("cost_s", 0.0);
        done.set("error", result.error);
        options_.trace->record(std::move(done));
      }
      return result;
    }
  }
  const int attempts = 1 + options_.retry.max_retries;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    result = attempt_once(input, option);
    if (options_.trace != nullptr) {
      Json compile = event("compile", trial);
      compile.set("attempt", attempt);
      compile.set("compile_s", result.compile_s);
      options_.trace->record(std::move(compile));
      Json run = event("run", trial);
      run.set("attempt", attempt);
      run.set("runtime_s", result.runtime_s);
      run.set("repeat", option.repeat);
      run.set("warmup", option.warmup);
      options_.trace->record(std::move(run));
    }
    if (result.valid) break;
    const bool retryable = is_timeout(result)
                               ? options_.retry.retry_timeouts
                               : options_.retry.retry_errors;
    if (!retryable || attempt + 1 >= attempts) break;
    if (options_.trace != nullptr) {
      Json retry = event("retry", trial);
      retry.set("attempt", attempt);
      retry.set("error", result.error);
      options_.trace->record(std::move(retry));
    }
  }
  if (options_.trace != nullptr) {
    Json done = event("result", trial);
    done.set("valid", result.valid);
    done.set("runtime_s", result.runtime_s);
    done.set("compile_s", result.compile_s);
    done.set("energy_j", result.energy_j);
    done.set("cost_s", result.evaluation_cost_s(option));
    if (!result.error.empty()) done.set("error", result.error);
    options_.trace->record(std::move(done));
  }
  return result;
}

std::size_t MeasureRunner::concurrency_limit(std::size_t batch) const {
  std::size_t limit = batch;
  const std::size_t device_limit = device_->max_concurrent_measurements();
  if (device_limit > 0) limit = std::min(limit, device_limit);
  if (options_.max_concurrency > 0) {
    limit = std::min(limit, options_.max_concurrency);
  }
  limit = std::min(limit, pool_->num_threads());
  return std::max<std::size_t>(1, limit);
}

std::vector<MeasureResult> MeasureRunner::measure_batch(
    std::span<const MeasureInput> inputs, const MeasureOption& option) {
  std::vector<MeasureResult> results(inputs.size());
  if (inputs.empty()) return results;
  const std::size_t base = next_trial_.fetch_add(inputs.size());
  if (options_.trace != nullptr) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      trace_proposed(inputs[i], base + i);
    }
  }
  // Serial path: submission order, inline. Also taken when the device
  // bounds concurrency to one, or when already on a pool worker (a nested
  // dispatch would block a worker on its own queue).
  const std::size_t limit = concurrency_limit(inputs.size());
  if (!options_.parallel || limit <= 1 || inputs.size() == 1 ||
      pool_->in_worker_thread()) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      results[i] = run_trial(inputs[i], option, base + i);
    }
    return results;
  }
  // Parallel path: waves of at most `limit` in-flight trials; each trial
  // writes its own slot, so completion order never reorders results.
  for (std::size_t start = 0; start < inputs.size(); start += limit) {
    const std::size_t end = std::min(start + limit, inputs.size());
    std::vector<std::future<void>> futures;
    futures.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) {
      futures.push_back(pool_->submit([this, &inputs, &option, &results,
                                       base, i] {
        results[i] = run_trial(inputs[i], option, base + i);
      }));
    }
    for (auto& future : futures) future.get();
  }
  return results;
}

MeasureResult MeasureRunner::measure_one(const MeasureInput& input,
                                         const MeasureOption& option) {
  return measure_batch({&input, 1}, option)[0];
}

std::size_t MeasureRunner::async_slots() const {
  if (!options_.parallel) return 1;  // deterministic serial streaming
  std::size_t limit = pool_->num_threads();
  const std::size_t device_limit = device_->max_concurrent_measurements();
  if (device_limit > 0) limit = std::min(limit, device_limit);
  if (options_.max_concurrency > 0) {
    limit = std::min(limit, options_.max_concurrency);
  }
  return std::max<std::size_t>(1, limit);
}

std::size_t MeasureRunner::in_flight() const {
  std::lock_guard<std::mutex> lock(async_mutex_);
  return async_outstanding_;
}

void MeasureRunner::dispatch_ready_locked() {
  const std::size_t slots = async_slots();
  while (async_running_ < slots && !async_queue_.empty()) {
    AsyncJob job = std::move(async_queue_.front());
    async_queue_.pop_front();
    ++async_running_;
    // The pool task owns the job; it reports back under the lock and
    // refills the slot it just freed — this is where the pipeline beats
    // the batch path's wave barrier.
    pool_->submit([this, job = std::move(job)]() mutable {
      if (options_.trace != nullptr) {
        Json dispatch = event("dispatch", job.ticket);
        dispatch.set("workload", job.input.workload.id());
        options_.trace->record(std::move(dispatch));
      }
      MeasureResult result = run_trial(job.input, job.option, job.ticket);
      if (options_.trace != nullptr) {
        Json complete = event("complete", job.ticket);
        complete.set("valid", result.valid);
        if (!result.error.empty()) complete.set("error", result.error);
        options_.trace->record(std::move(complete));
      }
      {
        std::lock_guard<std::mutex> lock(async_mutex_);
        --async_running_;
        async_completed_.push_back({job.ticket, std::move(result)});
        dispatch_ready_locked();
        // Notify under the lock: the destructor may tear the condvar
        // down the moment its predicate holds.
        async_cv_.notify_all();
      }
    });
  }
}

MeasureRunner::Ticket MeasureRunner::submit(MeasureInput input,
                                            const MeasureOption& option) {
  TVMBO_CHECK(!pool_->in_worker_thread())
      << "submit must be driven from outside the runner's thread pool";
  const Ticket ticket = next_trial_.fetch_add(1);
  if (options_.trace != nullptr) trace_proposed(input, ticket);
  {
    std::lock_guard<std::mutex> lock(async_mutex_);
    async_queue_.push_back({ticket, std::move(input), option});
    ++async_outstanding_;
    dispatch_ready_locked();
  }
  return ticket;
}

MeasureRunner::Completion MeasureRunner::wait_any() {
  TVMBO_CHECK(!pool_->in_worker_thread())
      << "wait_any must be driven from outside the runner's thread pool";
  std::unique_lock<std::mutex> lock(async_mutex_);
  TVMBO_CHECK_GT(async_outstanding_, 0u)
      << "wait_any with no streamed trial in flight";
  async_cv_.wait(lock, [&] { return !async_completed_.empty(); });
  Completion completion = std::move(async_completed_.front());
  async_completed_.pop_front();
  --async_outstanding_;
  return completion;
}

}  // namespace tvmbo::runtime

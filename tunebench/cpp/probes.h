// Forwarding decorators around the public seams of a tuning session.
//
// Each one forwards every call to the object it wraps unchanged and only
// reads the benchmark's clock around it, so a traced session must make
// the same proposals, measurements and records as an untraced one (the
// benchmark checks this on the simulator, where trajectories are exact):
//
//   TracedTuner  — around framework::make_strategy_tuner(...): next_batch
//                  is timed as "ask" (forest refit + acquisition for
//                  ytopt), update as "tell".
//   TracedDevice — around CpuDevice / ProcDevice / SwingSimDevice: every
//                  measure() is timed ("measure", or "roundtrip" for the
//                  out-of-process fleet) and its completion recorded.
//   traced_task  — a copy of an autotvm::Task whose instantiate, and the
//                  prepare / run / static_check closures of every
//                  MeasureInput it builds, are timed. Given the artifact
//                  cache the task compiles into, each prepare also gets a
//                  "cc" child span: the compiler seconds the cache's
//                  compile_s counter gained during that prepare.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "autotvm/autotvm.h"
#include "codegen/artifact_cache.h"
#include "framework/session.h"
#include "runtime/measure.h"
#include "trace.h"
#include "tuners/tuner.h"

namespace tunebench {

/// One device measurement as the tuning loop saw it.
struct Completion {
  std::vector<std::int64_t> tiles;
  int trial = -1;
  double start = 0.0;
  double end = 0.0;
  tvmbo::runtime::MeasureResult result;
};

/// Shared state of one session's decorators. With a null SpanLog only
/// device completions are recorded (one clock read per measurement), which
/// is all the end-to-end metrics need.
class SessionProbe {
 public:
  explicit SessionProbe(SpanLog* spans) : spans_(spans) {}
  SpanLog* spans() const { return spans_; }

  /// Numbers proposals in the order they were asked.
  void assign_trials(const std::vector<std::vector<std::int64_t>>& tiles,
                     double ask_end);
  int trial_of(const std::vector<std::int64_t>& tiles) const;
  /// When the ask that proposed `trial` returned (-1 if unknown).
  double ask_end(int trial) const;
  void record_completion(Completion completion);
  std::vector<Completion> completions() const;

 private:
  SpanLog* spans_;
  mutable std::mutex mutex_;
  std::map<std::vector<std::int64_t>, int> trials_;
  std::vector<double> ask_ends_;
  std::vector<Completion> completions_;
};

class TracedTuner final : public tvmbo::tuners::Tuner {
 public:
  /// `inner` must have been built over `space`.
  TracedTuner(std::unique_ptr<tvmbo::tuners::Tuner> inner,
              const tvmbo::cs::ConfigurationSpace* space,
              SessionProbe* probe);
  std::string name() const override { return inner_->name(); }
  std::vector<tvmbo::cs::Configuration> next_batch(std::size_t n) override;
  void update(std::span<const tvmbo::tuners::Trial> trials) override;
  bool has_next() const override { return inner_->has_next(); }

 private:
  std::unique_ptr<tvmbo::tuners::Tuner> inner_;
  SessionProbe* probe_;
};

class TracedDevice final : public tvmbo::runtime::Device {
 public:
  /// `span_name` names the measurement span ("measure" or "roundtrip").
  TracedDevice(tvmbo::runtime::Device* inner, SessionProbe* probe,
               std::string span_name)
      : inner_(inner), probe_(probe), span_name_(std::move(span_name)) {}
  std::string name() const override { return inner_->name(); }
  tvmbo::runtime::MeasureResult measure(
      const tvmbo::runtime::MeasureInput& input,
      const tvmbo::runtime::MeasureOption& option) override;
  std::size_t max_concurrent_measurements() const override {
    return inner_->max_concurrent_measurements();
  }

 private:
  tvmbo::runtime::Device* inner_;
  SessionProbe* probe_;
  std::string span_name_;
};

/// Copy of `task` whose measure inputs are timed. `cache` (may be null)
/// adds the "cc" spans; its counter is process-wide per directory, so pass
/// it only when prepares run one at a time. A cc span's duration is exact;
/// it is placed at the end of its prepare, where the compile finishes just
/// before the shared object is loaded.
tvmbo::autotvm::Task traced_task(const tvmbo::autotvm::Task& task,
                                 SessionProbe* probe,
                                 const tvmbo::codegen::ArtifactCache* cache =
                                     nullptr);

/// The traits AutotuningSession::run() builds for `kind`, so a decorated
/// tuner driven through run_strategy() measures exactly as run() would.
/// run()'s modeled overhead is left out: it only feeds the modeled clock
/// and is zero with charge_strategy_overhead off, which this benchmark
/// always sets.
tvmbo::framework::StrategyTraits run_traits(
    tvmbo::framework::StrategyKind kind,
    const tvmbo::framework::SessionOptions& options);

/// Byte-exact dump of a session's trajectory (every record field).
std::string trajectory(const tvmbo::framework::SessionResult& result);

}  // namespace tunebench

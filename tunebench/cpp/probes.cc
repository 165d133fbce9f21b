#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace tunebench {

using tvmbo::cs::Configuration;
using tvmbo::runtime::MeasureInput;
using tvmbo::runtime::MeasureOption;
using tvmbo::runtime::MeasureResult;

void SessionProbe::assign_trials(
    const std::vector<std::vector<std::int64_t>>& tiles, double ask_end) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& t : tiles) {
    trials_.emplace(t, static_cast<int>(ask_ends_.size()));
    ask_ends_.push_back(ask_end);
  }
}

int SessionProbe::trial_of(const std::vector<std::int64_t>& tiles) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = trials_.find(tiles);
  return it == trials_.end() ? -1 : it->second;
}

double SessionProbe::ask_end(int trial) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (trial < 0 || static_cast<std::size_t>(trial) >= ask_ends_.size()) {
    return -1.0;
  }
  return ask_ends_[static_cast<std::size_t>(trial)];
}

void SessionProbe::record_completion(Completion completion) {
  std::lock_guard<std::mutex> lock(mutex_);
  completions_.push_back(std::move(completion));
}

std::vector<Completion> SessionProbe::completions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completions_;
}

TracedTuner::TracedTuner(std::unique_ptr<tvmbo::tuners::Tuner> inner,
                         const tvmbo::cs::ConfigurationSpace* space,
                         SessionProbe* probe)
    : Tuner(space, 0), inner_(std::move(inner)), probe_(probe) {}

std::vector<Configuration> TracedTuner::next_batch(std::size_t n) {
  std::vector<Configuration> batch;
  {
    ScopedSpan span(probe_->spans(), "ask", -1);
    batch = inner_->next_batch(n);
  }
  std::vector<std::vector<std::int64_t>> tiles;
  tiles.reserve(batch.size());
  for (const Configuration& config : batch) {
    tiles.push_back(space_->values_int(config));
  }
  probe_->assign_trials(tiles, now_s());
  return batch;
}

void TracedTuner::update(std::span<const tvmbo::tuners::Trial> trials) {
  {
    ScopedSpan span(probe_->spans(), "tell", -1);
    inner_->update(trials);
  }
  // Keeps history()/best() of this wrapper in step with the inner tuner
  // (the session reads history().size()).
  Tuner::update(trials);
}

MeasureResult TracedDevice::measure(const MeasureInput& input,
                                    const MeasureOption& option) {
  Completion completion;
  completion.tiles = input.tiles;
  completion.trial = probe_->trial_of(input.tiles);
  completion.start = now_s();
  {
    ScopedSpan span(probe_->spans(), span_name_, completion.trial);
    completion.result = inner_->measure(input, option);
  }
  completion.end = now_s();
  MeasureResult result = completion.result;
  probe_->record_completion(std::move(completion));
  return result;
}

tvmbo::autotvm::Task traced_task(const tvmbo::autotvm::Task& task,
                                 SessionProbe* probe,
                                 const tvmbo::codegen::ArtifactCache* cache) {
  tvmbo::autotvm::Task copy = task;
  if (!task.instantiate) return copy;  // simulated: nothing to time
  copy.instantiate = [inner = task.instantiate, probe,
                      cache](const std::vector<std::int64_t>& tiles) {
    SpanLog* spans = probe->spans();
    const int trial = probe->trial_of(tiles);
    MeasureInput input;
    {
      ScopedSpan span(spans, "instantiate", trial);
      input = inner(tiles);
    }
    if (input.prepare) {
      input.prepare = [prepare = std::move(input.prepare), spans, trial,
                       cache] {
        ScopedSpan span(spans, "prepare", trial);
        const double cc_before =
            cache != nullptr ? cache->stats().compile_s : 0.0;
        prepare();
        const double cc =
            cache != nullptr ? cache->stats().compile_s - cc_before : 0.0;
        if (spans != nullptr && cc > 0.0) {
          const double end = now_s();
          spans->add("cc", end - cc, end, span.id(), trial);
        }
      };
    }
    if (input.run) {
      input.run = [run = std::move(input.run), spans, trial] {
        ScopedSpan span(spans, "run", trial);
        run();
      };
    }
    if (input.static_check) {
      input.static_check = [check = std::move(input.static_check), spans,
                            trial] {
        ScopedSpan span(spans, "static_check", trial);
        return check();
      };
    }
    return input;
  };
  return copy;
}

tvmbo::framework::StrategyTraits run_traits(
    tvmbo::framework::StrategyKind kind,
    const tvmbo::framework::SessionOptions& options) {
  tvmbo::framework::StrategyTraits traits;
  const bool ytopt = kind == tvmbo::framework::StrategyKind::kYtopt;
  traits.repeat = ytopt ? options.ytopt_repeat : options.autotvm_repeat;
  traits.batch_size = ytopt ? std::max<std::size_t>(1, options.ytopt_batch_size)
                            : options.batch_size;
  traits.parallel_build = !ytopt || traits.batch_size > 1;
  return traits;
}

std::string trajectory(const tvmbo::framework::SessionResult& result) {
  std::string out;
  char buf[160];
  for (const tvmbo::runtime::TrialRecord& r : result.db.records()) {
    std::snprintf(buf, sizeof buf, "%d|%a|%a|%a|%a|%d|", r.eval_index,
                  r.runtime_s, r.energy_j, r.compile_s, r.elapsed_s,
                  r.valid ? 1 : 0);
    out += buf;
    for (std::int64_t t : r.tiles) out += std::to_string(t) + ",";
    out += "\n";
  }
  return out;
}

}  // namespace tunebench

#include "framework/session.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "analysis/proof_cache.h"
#include "common/logging.h"
#include "common/timer.h"
#include "kernels/te_programs.h"
#include "transfer/cost_model.h"

namespace tvmbo::framework {

namespace {

/// The value a strategy minimizes for one measurement, and whether the
/// objective is defined for it: the energy objectives need a device with
/// a power model (energy_j > 0).
std::pair<double, bool> objective_metric(Objective objective,
                                         double runtime_s, double energy_j) {
  switch (objective) {
    case Objective::kRuntime: return {runtime_s, true};
    case Objective::kEnergy: return {energy_j, energy_j > 0.0};
    case Objective::kEnergyDelay:
      return {energy_j * runtime_s, energy_j > 0.0};
  }
  return {runtime_s, true};
}

}  // namespace

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kYtopt: return "ytopt";
    case StrategyKind::kAutotvmRandom: return "autotvm-random";
    case StrategyKind::kAutotvmGridSearch: return "autotvm-gridsearch";
    case StrategyKind::kAutotvmGa: return "autotvm-ga";
    case StrategyKind::kAutotvmXgb: return "autotvm-xgb";
  }
  return "?";
}

const char* objective_name(Objective objective) {
  switch (objective) {
    case Objective::kRuntime: return "runtime";
    case Objective::kEnergy: return "energy";
    case Objective::kEnergyDelay: return "energy-delay";
  }
  return "?";
}

std::optional<StrategyKind> strategy_from_name(const std::string& name) {
  if (name == "ytopt") return StrategyKind::kYtopt;
  if (name == "random" || name == "autotvm-random") {
    return StrategyKind::kAutotvmRandom;
  }
  if (name == "gridsearch" || name == "autotvm-gridsearch") {
    return StrategyKind::kAutotvmGridSearch;
  }
  if (name == "ga" || name == "autotvm-ga") return StrategyKind::kAutotvmGa;
  if (name == "xgb" || name == "autotvm-xgb") {
    return StrategyKind::kAutotvmXgb;
  }
  return std::nullopt;
}

std::vector<StrategyKind> all_strategies() {
  return {StrategyKind::kAutotvmGa, StrategyKind::kAutotvmRandom,
          StrategyKind::kAutotvmGridSearch, StrategyKind::kAutotvmXgb,
          StrategyKind::kYtopt};
}

std::unique_ptr<tuners::Tuner> make_strategy_tuner(
    StrategyKind kind, const cs::ConfigurationSpace* space,
    std::uint64_t session_seed, const StrategyFactoryOptions& factory,
    std::span<const tuners::Trial> warm_start,
    std::span<const cs::Configuration> seed_configs) {
  TVMBO_CHECK(space != nullptr) << "strategy factory requires a space";
  // Derive a per-strategy seed so strategies are independent but the whole
  // experiment is reproducible from the session seed.
  const std::uint64_t seed =
      hash_combine(session_seed, static_cast<std::uint64_t>(kind) + 17);
  switch (kind) {
    case StrategyKind::kYtopt: {
      auto bo =
          std::make_unique<ytopt::BayesianOptimizer>(space, seed, factory.bo);
      if (!warm_start.empty()) {
        bo->warm_start({warm_start.data(), warm_start.size()});
      }
      if (!seed_configs.empty()) {
        bo->seed_proposals(
            {seed_configs.begin(), seed_configs.end()});
      }
      return bo;
    }
    case StrategyKind::kAutotvmRandom:
      return autotvm::create_tuner(autotvm::TunerType::kRandom, space, seed);
    case StrategyKind::kAutotvmGridSearch:
      return autotvm::create_tuner(autotvm::TunerType::kGridSearch, space,
                                   seed);
    case StrategyKind::kAutotvmGa:
      return autotvm::create_tuner(autotvm::TunerType::kGa, space, seed);
    case StrategyKind::kAutotvmXgb: {
      autotvm::TunerFactoryOptions options;
      options.xgb_paper_eval_cap = factory.xgb_paper_eval_cap;
      return autotvm::create_tuner(autotvm::TunerType::kXgb, space, seed,
                                   options);
    }
  }
  TVMBO_CHECK(false) << "unknown strategy";
  return nullptr;
}

AskTellSession::AskTellSession(tuners::Tuner& tuner,
                               std::size_t max_evaluations,
                               Objective objective,
                               const cs::ConfigurationSpace& space,
                               std::string strategy, std::string workload_id,
                               std::string backend, std::int64_t nthreads)
    : tuner_(tuner),
      max_evaluations_(max_evaluations),
      objective_(objective),
      space_(space),
      strategy_(std::move(strategy)),
      workload_id_(std::move(workload_id)),
      backend_(std::move(backend)),
      nthreads_(nthreads) {}

bool AskTellSession::can_ask() const {
  return !exhausted_ && submitted_ < max_evaluations_ && tuner_.has_next();
}

std::optional<cs::Configuration> AskTellSession::ask() {
  std::vector<cs::Configuration> next = ask(1);
  if (next.empty()) return std::nullopt;
  return std::move(next[0]);
}

std::vector<cs::Configuration> AskTellSession::ask(std::size_t n) {
  if (n == 0 || !can_ask()) return {};
  std::vector<cs::Configuration> next =
      tuner_.next_batch(std::min(n, max_evaluations_ - submitted_));
  if (next.empty()) exhausted_ = true;
  submitted_ += next.size();
  return next;
}

std::span<runtime::TrialRecord> AskTellSession::tell(
    std::span<cs::Configuration> wave,
    std::span<const runtime::MeasureResult> measured,
    std::span<const double> elapsed_s) {
  TVMBO_CHECK_LE(wave.size(), in_flight())
      << "tell without a matching in-flight ask";
  // The strategy minimizes the objective; runtime and energy are both
  // recorded regardless.
  trials_.clear();
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const auto [metric, defined] = objective_metric(
        objective_, measured[i].runtime_s, measured[i].energy_j);
    trials_.push_back(
        {std::move(wave[i]), metric, measured[i].valid && defined});
  }
  tuner_.update(trials_);
  records_.clear();
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const tuners::Trial& trial = trials_[i];
    runtime::TrialRecord record;
    record.eval_index = static_cast<int>(told_++);
    record.strategy = strategy_;
    record.workload_id = workload_id_;
    record.tiles = space_.values_int(trial.config);
    record.runtime_s = measured[i].runtime_s;
    record.energy_j = measured[i].energy_j;
    record.compile_s = measured[i].compile_s;
    record.elapsed_s = elapsed_s[i];
    record.valid = trial.valid;
    record.backend = backend_;
    record.nthreads = nthreads_;
    if (trial.valid && trial.runtime_s < best_metric_) {
      best_metric_ = trial.runtime_s;
      best_ = record;
    }
    records_.push_back(std::move(record));
  }
  return records_;
}

runtime::TrialRecord AskTellSession::tell(
    cs::Configuration config, const runtime::MeasureResult& measured,
    double elapsed_s) {
  return std::move(tell({&config, 1}, {&measured, 1}, {&elapsed_s, 1})[0]);
}

void AskTellSession::abandon() {
  TVMBO_CHECK_GT(in_flight(), 0u)
      << "abandon without a matching in-flight ask";
  ++abandoned_;
}

AutotuningSession::AutotuningSession(const autotvm::Task* task,
                                     runtime::Device* device,
                                     SessionOptions options)
    : task_(task), device_(device), options_(options) {
  TVMBO_CHECK(task_ != nullptr && device_ != nullptr)
      << "session requires a task and a device";
  TVMBO_CHECK_GT(options_.max_evaluations, 0u)
      << "max_evaluations must be positive";
  TVMBO_CHECK_GT(options_.batch_size, 0u) << "batch_size must be positive";
}

std::unique_ptr<tuners::Tuner> AutotuningSession::make_strategy(
    StrategyKind kind, WarmStartStats* warm_stats,
    std::size_t* transfer_seeds) const {
  StrategyFactoryOptions factory;
  factory.xgb_paper_eval_cap = options_.xgb_paper_eval_cap;
  factory.bo = options_.bo;
  std::vector<tuners::Trial> prior;
  if (kind == StrategyKind::kYtopt && options_.warm_start != nullptr) {
    prior = warm_start_trials(warm_stats);
  }
  std::vector<cs::Configuration> seeds;
  if (kind == StrategyKind::kYtopt && options_.transfer_model != nullptr) {
    const std::string& kernel = task_->workload.kernel;
    if (kernels::te_backend_supported(kernel)) {
      seeds = transfer::rank_seed_configs(
          *options_.transfer_model, task_->config.space(), kernel,
          task_->workload.dims, options_.transfer_topk,
          options_.transfer_pool, hash_combine(options_.seed, 0x7f5u));
    } else {
      TVMBO_LOG(Warning)
          << "transfer model ignored: kernel '" << kernel
          << "' has no TE program to featurize";
    }
  }
  if (transfer_seeds != nullptr) *transfer_seeds = seeds.size();
  return make_strategy_tuner(kind, &task_->config.space(), options_.seed,
                             factory, prior, seeds);
}

std::vector<tuners::Trial> AutotuningSession::warm_start_trials(
    WarmStartStats* stats) const {
  std::vector<tuners::Trial> prior;
  WarmStartStats local;
  if (options_.warm_start == nullptr) {
    if (stats != nullptr) *stats = local;
    return prior;
  }
  const cs::ConfigurationSpace& space = task_->config.space();
  const std::string workload_id = task_->workload.id();
  for (const runtime::TrialRecord& record :
       options_.warm_start->records()) {
    if (record.workload_id != workload_id) {
      ++local.skipped_workload;
      continue;
    }
    std::vector<double> values;
    values.reserve(record.tiles.size());
    for (std::int64_t tile : record.tiles) {
      values.push_back(static_cast<double>(tile));
    }
    cs::Configuration config;
    try {
      config = space.from_values(values);
    } catch (const CheckError&) {
      ++local.skipped_space;  // saved under a different space
      continue;
    }
    const auto [metric, defined] = objective_metric(
        options_.objective, record.runtime_s, record.energy_j);
    prior.push_back({config, metric, record.valid && defined});
    ++local.seeded;
  }
  if (local.skipped_workload + local.skipped_space > 0) {
    TVMBO_LOG(Warning) << "warm start: seeded " << local.seeded << " of "
                       << local.total() << " prior record(s) for "
                       << workload_id << " (skipped "
                       << local.skipped_workload << " other-workload, "
                       << local.skipped_space << " out-of-space)";
  }
  if (stats != nullptr) *stats = local;
  return prior;
}

double AutotuningSession::modeled_overhead_s(
    StrategyKind kind, std::size_t observed,
    std::size_t batch_members) const {
  if (!options_.charge_strategy_overhead) return 0.0;
  const double n = static_cast<double>(observed);
  const double members = static_cast<double>(batch_members);
  switch (kind) {
    case StrategyKind::kYtopt:
      // Surrogate refit grows with observations, plus driver overhead
      // (ytopt regenerates + evaluates the code mold per iteration).
      return 0.9 + 0.012 * n;
    case StrategyKind::kAutotvmRandom:
    case StrategyKind::kAutotvmGridSearch:
      // Trivial proposal; only the per-evaluation measure RPC overhead.
      return 0.05 + 0.15 * members;
    case StrategyKind::kAutotvmGa:
      return 0.25 + 0.15 * members;
    case StrategyKind::kAutotvmXgb:
      // Cost-model (re)training + simulated-annealing proposal per batch.
      return 0.8 + 0.05 * n + 0.15 * members;
  }
  return 0.0;
}

std::uint64_t AutotuningSession::strategy_seed(int salt) const {
  return hash_combine(options_.seed, static_cast<std::uint64_t>(salt) + 17);
}

SessionResult AutotuningSession::run(StrategyKind kind) {
  WarmStartStats warm_stats;
  std::size_t transfer_seeds = 0;
  std::unique_ptr<tuners::Tuner> strategy =
      make_strategy(kind, &warm_stats, &transfer_seeds);
  StrategyTraits traits;
  traits.repeat = kind == StrategyKind::kYtopt ? options_.ytopt_repeat
                                               : options_.autotvm_repeat;
  traits.batch_size = kind == StrategyKind::kYtopt
                          ? std::max<std::size_t>(1, options_.ytopt_batch_size)
                          : options_.batch_size;
  // ytopt's paper configuration (batch 1) compiles strictly sequentially;
  // qLCB batches (> 1) get the parallel builder farm like AutoTVM.
  traits.parallel_build =
      kind != StrategyKind::kYtopt || traits.batch_size > 1;
  traits.overhead = [this, kind](std::size_t observed, std::size_t batch) {
    return modeled_overhead_s(kind, observed, batch);
  };
  SessionResult result = run_strategy(*strategy, traits);
  result.warm_start = warm_stats;
  result.transfer_seeds = transfer_seeds;
  return result;
}

SessionResult AutotuningSession::run_strategy(tuners::Tuner& strategy,
                                              const StrategyTraits& traits) {
  TVMBO_CHECK_GT(traits.batch_size, 0u) << "batch_size must be positive";
  TVMBO_CHECK_GT(traits.repeat, 0) << "repeat must be positive";

  SessionResult result;
  result.strategy = strategy.name();

  runtime::MeasureOption measure;
  measure.repeat = traits.repeat;
  measure.timeout_s = options_.measure_timeout_s;

  // All measurement goes through the runner: fault isolation, retries,
  // trace events, and (when enabled) parallel batch execution. The
  // default options reproduce the historical sequential loop exactly.
  runtime::MeasureRunnerOptions runner_options = options_.measure;
  runner_options.strategy = result.strategy;
  runtime::MeasureRunner runner(device_, runner_options);

  // Process time: streamed trials overlap, so the modeled serial clock
  // does not apply and elapsed_s is real wall-clock; waves are charged
  // the paper's modeled clock.
  const Stopwatch wall;
  double clock = 0.0;
  const auto process_time = [&] {
    return options_.async ? wall.elapsed_seconds() : clock;
  };

  AskTellSession ask_tell(strategy, options_.max_evaluations,
                          options_.objective, task_->config.space(),
                          result.strategy, task_->workload.id(),
                          options_.record_backend, options_.record_nthreads);
  std::unordered_map<runtime::MeasureRunner::Ticket, cs::Configuration>
      in_flight;
  std::vector<double> elapsed;
  while (!ask_tell.done()) {
    // A spent time budget stops asking; streamed trials already in
    // flight still drain and are told.
    const bool out_of_time = options_.max_time_s > 0.0 &&
                             process_time() >= options_.max_time_s;
    if (options_.async) {
      // Stream: refill every free slot, then tell the next completion.
      while (!out_of_time && in_flight.size() < runner.async_slots()) {
        std::optional<cs::Configuration> next = ask_tell.ask();
        if (!next.has_value()) break;
        const runtime::MeasureRunner::Ticket ticket =
            runner.submit(task_->measure_input(*next), measure);
        in_flight.emplace(ticket, std::move(*next));
      }
      if (in_flight.empty()) break;
      const runtime::MeasureRunner::Completion completion =
          runner.wait_any();
      auto node = in_flight.extract(completion.ticket);
      TVMBO_CHECK(!node.empty())
          << "completion for unknown ticket " << completion.ticket;
      result.db.add(ask_tell.tell(std::move(node.mapped()),
                                  completion.result, wall.elapsed_seconds()));
      continue;
    }

    // Wave: measure a whole batch, then tell it in submission order.
    if (out_of_time) break;
    std::vector<cs::Configuration> wave = ask_tell.ask(traits.batch_size);
    if (wave.empty()) break;
    std::vector<runtime::MeasureInput> inputs;
    inputs.reserve(wave.size());
    for (const cs::Configuration& config : wave) {
      inputs.push_back(task_->measure_input(config));
    }
    const std::vector<runtime::MeasureResult> measured =
        runner.measure_batch(inputs, measure);
    double compile_sum = 0.0;
    double compile_max = 0.0;
    double run_sum = 0.0;
    for (const runtime::MeasureResult& member : measured) {
      compile_sum += member.compile_s;
      compile_max = std::max(compile_max, member.compile_s);
      run_sum += member.runtime_s * static_cast<double>(measure.repeat);
    }
    // Process-time accounting: AutoTVM batches compile in parallel (the
    // slowest member counts), ytopt compiles strictly sequentially.
    clock += traits.parallel_build ? compile_max : compile_sum;
    clock += run_sum;
    if (traits.overhead) {
      clock += traits.overhead(strategy.history().size(), wave.size());
    }
    // Record each trial at the batch completion time, spreading runs
    // across the batch window in measurement order for a faithful
    // per-evaluation timeline.
    elapsed.clear();
    double within = clock - run_sum;
    for (const runtime::MeasureResult& member : measured) {
      within += member.runtime_s * static_cast<double>(measure.repeat);
      elapsed.push_back(within);
    }
    for (runtime::TrialRecord& record :
         ask_tell.tell(wave, measured, elapsed)) {
      result.db.add(std::move(record));
    }
  }

  result.total_time_s = process_time();
  result.evaluations = ask_tell.told();
  result.best = ask_tell.best();
  result.analysis_rejects = runner.analysis_rejects();
  if (options_.measure.trace != nullptr) {
    // Proof-cache effectiveness for this run: how many race/verify
    // queries the structural cache absorbed vs full prover executions
    // (process-global counters, stamped per strategy for attribution).
    Json e = Json::object();
    e.set("event", "analysis_cache_stats");
    e.set("strategy", result.strategy);
    e.set("stats", analysis::ProofCache::global().stats().to_json());
    options_.measure.trace->record(std::move(e));
  }
  return result;
}

std::vector<SessionResult> AutotuningSession::run_all() {
  std::vector<SessionResult> results;
  for (StrategyKind kind : all_strategies()) {
    results.push_back(run(kind));
  }
  return results;
}

}  // namespace tvmbo::framework

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "configspace/divisors.h"
#include "framework/code_mold.h"
#include "framework/figures.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "runtime/cpu_device.h"
#include "runtime/swing_sim.h"
#include "tuners/random_tuner.h"
#include "ytopt/bayes_opt.h"

namespace tvmbo::framework {
namespace {

SessionOptions fast_options(std::size_t evals = 30) {
  SessionOptions options;
  options.max_evaluations = evals;
  options.seed = 7;
  return options;
}

TEST(Session, RunsRequestedEvaluations) {
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  runtime::SwingSimDevice device;
  AutotuningSession session(&task, &device, fast_options());
  const SessionResult result = session.run(StrategyKind::kYtopt);
  EXPECT_EQ(result.evaluations, 30u);
  EXPECT_EQ(result.db.size(), 30u);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_GT(result.total_time_s, 0.0);
  EXPECT_EQ(result.strategy, "ytopt");
}

TEST(Session, ElapsedTimeMonotonicPerStrategy) {
  const autotvm::Task task =
      kernels::make_task("cholesky", kernels::Dataset::kLarge);
  runtime::SwingSimDevice device;
  AutotuningSession session(&task, &device, fast_options());
  for (StrategyKind kind :
       {StrategyKind::kYtopt, StrategyKind::kAutotvmGa}) {
    const SessionResult result = session.run(kind);
    double previous = 0.0;
    for (const auto& record : result.db.records()) {
      EXPECT_GE(record.elapsed_s, previous);
      previous = record.elapsed_s;
    }
    EXPECT_NEAR(result.total_time_s, previous, result.total_time_s * 0.2);
  }
}

TEST(Session, BestMatchesDatabaseMinimum) {
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  runtime::SwingSimDevice device;
  AutotuningSession session(&task, &device, fast_options());
  const SessionResult result = session.run(StrategyKind::kAutotvmRandom);
  double minimum = std::numeric_limits<double>::infinity();
  for (const auto& record : result.db.records()) {
    minimum = std::min(minimum, record.runtime_s);
  }
  EXPECT_DOUBLE_EQ(result.best->runtime_s, minimum);
}

TEST(Session, XgbQuirkCapsEvaluations) {
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  runtime::SwingSimDevice device;
  SessionOptions options = fast_options(100);
  options.xgb_paper_eval_cap = 56;
  AutotuningSession session(&task, &device, options);
  const SessionResult result = session.run(StrategyKind::kAutotvmXgb);
  EXPECT_EQ(result.evaluations, 56u);
}

TEST(Session, ReproducibleForSameSeed) {
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  runtime::SwingSimDevice device_a(99), device_b(99);
  AutotuningSession a(&task, &device_a, fast_options());
  AutotuningSession b(&task, &device_b, fast_options());
  const SessionResult ra = a.run(StrategyKind::kYtopt);
  const SessionResult rb = b.run(StrategyKind::kYtopt);
  ASSERT_EQ(ra.db.size(), rb.db.size());
  for (std::size_t i = 0; i < ra.db.size(); ++i) {
    EXPECT_EQ(ra.db.record(i).tiles, rb.db.record(i).tiles);
    EXPECT_DOUBLE_EQ(ra.db.record(i).runtime_s, rb.db.record(i).runtime_s);
  }
}

TEST(Session, MaxTimeBudgetStopsEarly) {
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kExtraLarge);
  runtime::SwingSimDevice device;
  SessionOptions options = fast_options(100);
  options.max_time_s = 200.0;  // a handful of XL evaluations at most
  AutotuningSession session(&task, &device, options);
  const SessionResult result = session.run(StrategyKind::kAutotvmRandom);
  EXPECT_LT(result.evaluations, 100u);
  EXPECT_GT(result.evaluations, 0u);
}

TEST(Session, StreamingTimeBudgetStopsSubmittingAndDrains) {
  // The streaming loop's time budget is wall-clock: once it is spent the
  // session asks for nothing more, drains the trials already in flight
  // and tells every asked configuration back.
  autotvm::Task task = kernels::make_task("lu", kernels::Dataset::kLarge);
  task.instantiate = [&task](const std::vector<std::int64_t>& knobs) {
    runtime::MeasureInput input;
    input.workload = task.workload;
    input.tiles = knobs;
    input.run = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    return input;
  };
  runtime::CpuDevice device;
  SessionOptions options = fast_options(1000);
  options.max_time_s = 0.1;
  options.async = true;
  options.measure.parallel = true;
  AutotuningSession session(&task, &device, options);
  ytopt::BayesianOptimizer bo(&task.config.space(), 3);
  StrategyTraits traits;
  traits.batch_size = 1;
  traits.repeat = 1;
  const SessionResult result = session.run_strategy(bo, traits);

  EXPECT_GT(result.evaluations, 0u);
  EXPECT_LT(result.evaluations, 1000u);
  EXPECT_GE(result.total_time_s, options.max_time_s);
  EXPECT_EQ(result.db.size(), result.evaluations);
  EXPECT_EQ(bo.history().size(), result.evaluations);
  EXPECT_EQ(bo.pending_count(), 0u);
  // Only trials in flight when the budget ran out (at most one per
  // slot) may complete after it.
  std::size_t late = 0;
  for (const runtime::TrialRecord& record : result.db.records()) {
    late += record.elapsed_s >= options.max_time_s ? 1 : 0;
  }
  EXPECT_LE(late, default_thread_pool().num_threads());
}

TEST(Session, RunAllCoversFiveStrategies) {
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  runtime::SwingSimDevice device;
  AutotuningSession session(&task, &device, fast_options(20));
  const auto results = session.run_all();
  ASSERT_EQ(results.size(), 5u);
  std::set<std::string> names;
  for (const auto& result : results) names.insert(result.strategy);
  EXPECT_EQ(names.size(), 5u);
  EXPECT_TRUE(names.contains("ytopt"));
  EXPECT_TRUE(names.contains("autotvm-xgb"));
}

TEST(Session, StrategyNameMapping) {
  EXPECT_STREQ(strategy_name(StrategyKind::kYtopt), "ytopt");
  EXPECT_STREQ(strategy_name(StrategyKind::kAutotvmGridSearch),
               "autotvm-gridsearch");
  EXPECT_EQ(all_strategies().size(), 5u);
}

/// Counts the calls a session makes into a random tuner.
class CountingTuner : public tuners::Tuner {
 public:
  explicit CountingTuner(const cs::ConfigurationSpace* space)
      : Tuner(space, 1), inner_(space, 1) {}
  std::string name() const override { return "counting"; }
  std::vector<cs::Configuration> next_batch(std::size_t n) override {
    ++asks;
    return inner_.next_batch(n);
  }
  void update(std::span<const tuners::Trial> trials) override {
    ++updates;
    Tuner::update(trials);
  }
  int asks = 0;
  int updates = 0;

 private:
  tuners::RandomTuner inner_;
};

cs::ConfigurationSpace two_tile_space() {
  cs::ConfigurationSpace space;
  space.add(cs::tile_factor_param("P0", 2000));
  space.add(cs::tile_factor_param("P1", 2000));
  return space;
}

runtime::MeasureResult measured(double runtime_s, bool valid = true,
                                double energy_j = 0.0) {
  runtime::MeasureResult result;
  result.runtime_s = runtime_s;
  result.valid = valid;
  result.energy_j = energy_j;
  return result;
}

TEST(AskTellSession, WaveIsOneAskAndOneUpdate) {
  // Tuners that retrain per update (XGB, GA) must see one refit per
  // measured wave, and a wave never overdraws the budget.
  const auto space = two_tile_space();
  CountingTuner tuner(&space);
  AskTellSession session(tuner, 10, Objective::kRuntime, space, "counting",
                         "w", "sim", 1);
  std::vector<cs::Configuration> wave = session.ask(8);
  ASSERT_EQ(wave.size(), 8u);
  const std::vector<cs::Configuration> asked = wave;
  EXPECT_EQ(session.in_flight(), 8u);
  const std::vector<runtime::MeasureResult> results(8, measured(1.0));
  const std::vector<double> elapsed(8, 0.0);
  const auto records = session.tell(wave, results, elapsed);
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].eval_index, static_cast<int>(i));
    EXPECT_EQ(records[i].tiles, space.values_int(asked[i]));
  }
  EXPECT_EQ(tuner.asks, 1);
  EXPECT_EQ(tuner.updates, 1);
  EXPECT_EQ(session.told(), 8u);

  EXPECT_EQ(session.ask(8).size(), 2u);  // capped by the remaining budget
  EXPECT_FALSE(session.can_ask());
  EXPECT_TRUE(session.ask(8).empty());
  EXPECT_EQ(tuner.asks, 2);
  session.abandon();
  session.abandon();
  EXPECT_TRUE(session.done());
  wave = asked;
  EXPECT_THROW(session.tell(wave, results, elapsed),
               CheckError);  // nothing in flight
}

TEST(AskTellSession, RecordsNumberToldTrialsAndKeepFirstLowestBest) {
  const auto space = two_tile_space();
  tuners::RandomTuner tuner(&space, 3);
  AskTellSession run(tuner, 10, Objective::kRuntime, space, "alice/1/random",
                     "gemm-mini", "jit", 4);
  const std::vector<cs::Configuration> configs = run.ask(4);
  ASSERT_EQ(configs.size(), 4u);
  const runtime::TrialRecord first = run.tell(configs[0], measured(2.0), 0.5);
  EXPECT_EQ(first.eval_index, 0);
  EXPECT_EQ(first.strategy, "alice/1/random");
  EXPECT_EQ(first.workload_id, "gemm-mini");
  EXPECT_EQ(first.backend, "jit");
  EXPECT_EQ(first.nthreads, 4);
  EXPECT_EQ(first.tiles, space.values_int(configs[0]));
  EXPECT_DOUBLE_EQ(first.elapsed_s, 0.5);
  // Ties: the first lowest record stays best; an invalid lower one never
  // becomes best.
  run.tell(configs[1], measured(1.0), 1.0);
  run.tell(configs[2], measured(1.0), 1.5);
  const runtime::TrialRecord failed =
      run.tell(configs[3], measured(0.5, /*valid=*/false), 2.0);
  EXPECT_FALSE(failed.valid);
  ASSERT_TRUE(run.best().has_value());
  EXPECT_EQ(run.best()->eval_index, 1);
  EXPECT_EQ(run.best()->tiles, space.values_int(configs[1]));
  // An abandoned trial takes no eval index.
  ASSERT_TRUE(run.ask().has_value());
  run.abandon();
  const std::optional<cs::Configuration> next = run.ask();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(run.tell(*next, measured(3.0), 2.5).eval_index, 4);
  EXPECT_EQ(run.told(), 5u);
  EXPECT_EQ(run.in_flight(), 0u);
  EXPECT_EQ(tuner.history().size(), 5u);

  // Energy objective on a device without a power model (energy_j == 0):
  // the objective is undefined, so records are invalid and never best.
  tuners::RandomTuner energy_tuner(&space, 3);
  AskTellSession energy(energy_tuner, 10, Objective::kEnergy, space, "e",
                        "gemm-mini", "native", 1);
  for (const cs::Configuration& config : energy.ask(3)) {
    EXPECT_FALSE(energy.tell(config, measured(1.0), 0.0).valid);
  }
  EXPECT_FALSE(energy.best().has_value());
  // With a meter the lowest energy wins, whatever the runtime.
  const std::vector<cs::Configuration> metered = energy.ask(2);
  ASSERT_EQ(metered.size(), 2u);
  energy.tell(metered[0], measured(1.0, true, 4.0), 0.0);
  energy.tell(metered[1], measured(9.0, true, 2.0), 0.0);
  ASSERT_TRUE(energy.best().has_value());
  EXPECT_EQ(energy.best()->eval_index, 4);
}

TEST(Figures, ProcessTableHasRowPerEvaluation) {
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  runtime::SwingSimDevice device;
  AutotuningSession session(&task, &device, fast_options(10));
  std::vector<SessionResult> results{session.run(StrategyKind::kYtopt),
                                     session.run(StrategyKind::kAutotvmGa)};
  const CsvTable table = process_over_time_table(results);
  EXPECT_EQ(table.num_rows(), 20u);
  EXPECT_EQ(table.header()[0], "strategy");
  EXPECT_EQ(table.cell(0, "strategy"), "ytopt");
}

TEST(Figures, MinimumTableOneRowPerStrategy) {
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  runtime::SwingSimDevice device;
  AutotuningSession session(&task, &device, fast_options(10));
  const auto results = session.run_all();
  const CsvTable table = minimum_runtimes_table(results);
  EXPECT_EQ(table.num_rows(), 5u);
}

TEST(Figures, BestSoFarIsNonIncreasing) {
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  runtime::SwingSimDevice device;
  AutotuningSession session(&task, &device, fast_options(15));
  std::vector<SessionResult> results{
      session.run(StrategyKind::kAutotvmRandom)};
  const CsvTable table = best_so_far_table(results);
  double previous = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const double value = std::stod(table.cell(r, "best_so_far_s"));
    EXPECT_LE(value, previous + 1e-12);
    previous = value;
  }
}

TEST(Figures, TilesToString) {
  EXPECT_EQ(tiles_to_string({400, 50}), "400x50");
  EXPECT_EQ(tiles_to_string({1000, 32, 600, 2, 15, 40}),
            "(1000x32, 600x2, 15x40)");
  EXPECT_EQ(tiles_to_string({1, 2, 3}), "(1, 2, 3)");
}

TEST(Figures, RenderTableAlignsColumns) {
  CsvTable table({"a", "long_header"});
  table.add_row({"x", "1"});
  const std::string text = render_table(table);
  EXPECT_NE(text.find("| a "), std::string::npos);
  EXPECT_NE(text.find("| long_header "), std::string::npos);
}

TEST(Figures, YtoptResultsTableLayout) {
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  runtime::SwingSimDevice device;
  AutotuningSession session(&task, &device, fast_options(8));
  const SessionResult result = session.run(StrategyKind::kYtopt);
  const CsvTable table =
      ytopt_results_table(result, task.config.space());
  EXPECT_EQ(table.num_rows(), 8u);
  ASSERT_EQ(table.num_columns(), 4u);  // tile_y, tile_x, objective, elapsed
  EXPECT_EQ(table.header().back(), "elapsed_sec");
  // Tile values must be members of the divisor domain.
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const long long tile = std::stoll(table.row(r)[0]);
    EXPECT_EQ(2000 % tile, 0) << "tile " << tile;
  }
  // elapsed_sec is non-decreasing (sequential ytopt evaluations).
  double previous = 0.0;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const double elapsed = std::stod(table.cell(r, "elapsed_sec"));
    EXPECT_GE(elapsed, previous);
    previous = elapsed;
  }
}

TEST(CodeMold, RendersPaperMold) {
  const auto dims = kernels::polybench_dims(
      "3mm", kernels::Dataset::kExtraLarge);
  const cs::ConfigurationSpace space = kernels::build_space("3mm", dims);
  CodeMold mold(paper_3mm_mold(), &space);
  EXPECT_EQ(mold.placeholders().size(), 6u);
  cs::Configuration config = space.default_configuration();
  config.set_index(0, 16);  // P0 -> 400
  const std::string code = mold.render(config);
  EXPECT_NE(code.find("split(y, 400)"), std::string::npos);
  EXPECT_EQ(code.find("#P"), std::string::npos);  // fully substituted
}

TEST(CodeMold, UnknownPlaceholderThrows) {
  cs::ConfigurationSpace space;
  space.add(cs::tile_factor_param("P0", 8));
  EXPECT_THROW(CodeMold("split(y, #P7)", &space), CheckError);
}

TEST(CodeMold, MoldWithoutPlaceholdersThrows) {
  cs::ConfigurationSpace space;
  space.add(cs::tile_factor_param("P0", 8));
  EXPECT_THROW(CodeMold("no placeholders here", &space), CheckError);
}

}  // namespace
}  // namespace tvmbo::framework

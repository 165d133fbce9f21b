// Energy-objective extension tests: the simulated device's power model
// and the session's multi-objective support (toward the ytopt
// performance+energy tuning line of work the paper builds on).
#include <gtest/gtest.h>

#include "framework/session.h"
#include "kernels/polybench.h"
#include "runtime/cpu_device.h"
#include "runtime/swing_sim.h"

namespace tvmbo {
namespace {

using kernels::Dataset;

TEST(Energy, PowerWithinBoardEnvelope) {
  runtime::SwingSimDevice device;
  const auto workload = kernels::make_workload("lu", Dataset::kLarge);
  const auto space = kernels::build_space("lu", workload.dims);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto tiles = space.values_int(space.sample(rng));
    const double watts = device.power_watts(workload, tiles);
    EXPECT_GE(watts, 50.0);
    EXPECT_LE(watts, 420.0);
  }
}

TEST(Energy, FasterConfigsDrawMorePower) {
  runtime::SwingSimDevice device;
  const auto workload = kernels::make_workload("lu", Dataset::kLarge);
  const std::int64_t good[2] = {25, 50};    // near the surface optimum
  const std::int64_t bad[2] = {2000, 1};    // pathological
  EXPECT_LT(device.surface_runtime(workload, good),
            device.surface_runtime(workload, bad));
  EXPECT_GT(device.power_watts(workload, good),
            device.power_watts(workload, bad));
}

TEST(Energy, RaceToIdleUsuallyWinsOnEnergyToo) {
  // The runtime gap between good and terrible configs dwarfs the power
  // gap, so the fast config also consumes less total energy.
  runtime::SwingSimDevice device;
  const auto workload = kernels::make_workload("lu", Dataset::kLarge);
  const std::int64_t good[2] = {25, 50};
  const std::int64_t bad[2] = {2000, 1};
  EXPECT_LT(device.surface_energy(workload, good),
            device.surface_energy(workload, bad));
}

TEST(Energy, EnergyAndRuntimeOptimaCanDiffer) {
  // Exhaustively check the LU-large space: the argmin of energy need not
  // equal the argmin of runtime (that tension is what makes energy tuning
  // a distinct problem). We assert the weaker, always-true property that
  // the energy-optimal config is not energy-dominated, and report both.
  runtime::SwingSimDevice device;
  const auto workload = kernels::make_workload("lu", Dataset::kLarge);
  const auto space = kernels::build_space("lu", workload.dims);
  double best_runtime = 1e300, best_energy = 1e300;
  std::vector<std::int64_t> runtime_tiles, energy_tiles;
  for (std::uint64_t flat = 0; flat < space.cardinality(); ++flat) {
    const auto tiles = space.values_int(space.from_flat_index(flat));
    const double t = device.surface_runtime(workload, tiles);
    const double e = device.surface_energy(workload, tiles);
    if (t < best_runtime) {
      best_runtime = t;
      runtime_tiles = tiles;
    }
    if (e < best_energy) {
      best_energy = e;
      energy_tiles = tiles;
    }
  }
  // Energy at the runtime optimum must be >= the energy optimum.
  EXPECT_GE(device.surface_energy(workload, runtime_tiles),
            best_energy * 0.999999);
}

TEST(Energy, MeasureReportsEnergy) {
  runtime::SwingSimDevice device;
  runtime::MeasureInput input;
  input.workload = kernels::make_workload("lu", Dataset::kLarge);
  input.tiles = {25, 50};
  const auto result = device.measure(input, runtime::MeasureOption{});
  EXPECT_GT(result.energy_j, 0.0);
  EXPECT_NEAR(result.energy_j,
              device.power_watts(input.workload, input.tiles) *
                  result.runtime_s,
              1e-9);
}

TEST(Energy, CpuDeviceReportsZeroEnergy) {
  runtime::CpuDevice device;
  runtime::MeasureInput input;
  input.workload = kernels::make_workload("lu", Dataset::kMini);
  input.tiles = {2, 2};
  input.run = [] {};
  const auto result = device.measure(input, runtime::MeasureOption{});
  EXPECT_DOUBLE_EQ(result.energy_j, 0.0);
}

TEST(Energy, SessionTunesForEnergyObjective) {
  const autotvm::Task task = kernels::make_task("lu", Dataset::kLarge);
  runtime::SwingSimDevice device(11);
  framework::SessionOptions options;
  options.max_evaluations = 60;
  options.objective = framework::Objective::kEnergy;
  framework::AutotuningSession session(&task, &device, options);
  const auto result = session.run(framework::StrategyKind::kYtopt);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_GT(result.best->energy_j, 0.0);
  // The chosen best must be the energy minimum of the database.
  for (const auto& record : result.db.records()) {
    if (record.valid) {
      EXPECT_LE(result.best->energy_j, record.energy_j + 1e-12);
    }
  }
}

/// Energy and EDP tuning on both loop policies (parameter: async). At
/// ytopt's batch size 1 the wave loop and the single-slot stream visit
/// the same configurations, so both must pick the same best record: the
/// objective's minimum over the database.
class EnergySession : public ::testing::TestWithParam<bool> {};

TEST_P(EnergySession, TunesForEnergyObjective) {
  const autotvm::Task task = kernels::make_task("lu", Dataset::kLarge);
  for (const framework::Objective objective :
       {framework::Objective::kEnergy, framework::Objective::kEnergyDelay}) {
    SCOPED_TRACE(framework::objective_name(objective));
    auto run = [&](bool async) {
      runtime::SwingSimDevice device(11);
      framework::SessionOptions options;
      options.max_evaluations = 60;
      options.objective = objective;
      options.async = async;
      framework::AutotuningSession session(&task, &device, options);
      return session.run(framework::StrategyKind::kYtopt);
    };
    auto metric = [&](const runtime::TrialRecord& record) {
      return objective == framework::Objective::kEnergy
                 ? record.energy_j
                 : record.energy_j * record.runtime_s;
    };
    const auto result = run(GetParam());
    ASSERT_TRUE(result.best.has_value());
    EXPECT_GT(result.best->energy_j, 0.0);
    for (const auto& record : result.db.records()) {
      if (record.valid) {
        EXPECT_LE(metric(*result.best), metric(record));
      }
    }
    const auto wave = GetParam() ? run(false) : result;
    ASSERT_TRUE(wave.best.has_value());
    EXPECT_EQ(result.best->eval_index, wave.best->eval_index);
    EXPECT_EQ(result.best->tiles, wave.best->tiles);
    EXPECT_DOUBLE_EQ(result.best->runtime_s, wave.best->runtime_s);
    EXPECT_DOUBLE_EQ(result.best->energy_j, wave.best->energy_j);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, EnergySession, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "stream" : "wave";
                         });

TEST(Energy, EnergyObjectiveInvalidWithoutPowerMeter) {
  // On a device without a power model, energy tuning cannot proceed:
  // every trial is marked invalid and no best is found.
  autotvm::Task task = kernels::make_task(
      "lu", "mini", kernels::polybench_dims("lu", Dataset::kMini),
      /*executable=*/true);
  runtime::CpuDevice device;
  framework::SessionOptions options;
  options.max_evaluations = 5;
  options.objective = framework::Objective::kEnergy;
  options.charge_strategy_overhead = false;
  framework::AutotuningSession session(&task, &device, options);
  const auto result = session.run(framework::StrategyKind::kAutotvmRandom);
  EXPECT_FALSE(result.best.has_value());
}

TEST(Energy, EdpObjectiveSelectsByProduct) {
  const autotvm::Task task = kernels::make_task("lu", Dataset::kLarge);
  runtime::SwingSimDevice device(13);
  framework::SessionOptions options;
  options.max_evaluations = 40;
  options.objective = framework::Objective::kEnergyDelay;
  framework::AutotuningSession session(&task, &device, options);
  const auto result = session.run(framework::StrategyKind::kAutotvmRandom);
  ASSERT_TRUE(result.best.has_value());
  const double best_edp = result.best->energy_j * result.best->runtime_s;
  for (const auto& record : result.db.records()) {
    if (record.valid) {
      EXPECT_LE(best_edp, record.energy_j * record.runtime_s + 1e-9);
    }
  }
}

TEST(Energy, RecordsRoundTripEnergyThroughJson) {
  runtime::TrialRecord record;
  record.eval_index = 1;
  record.strategy = "ytopt";
  record.workload_id = "lu/large[2000]";
  record.tiles = {25, 50};
  record.runtime_s = 1.66;
  record.energy_j = 512.5;
  const auto restored =
      runtime::TrialRecord::from_json(record.to_json());
  EXPECT_DOUBLE_EQ(restored.energy_j, 512.5);
}

TEST(Energy, ObjectiveNames) {
  EXPECT_STREQ(framework::objective_name(framework::Objective::kRuntime),
               "runtime");
  EXPECT_STREQ(framework::objective_name(framework::Objective::kEnergy),
               "energy");
  EXPECT_STREQ(
      framework::objective_name(framework::Objective::kEnergyDelay),
      "energy-delay");
}

}  // namespace
}  // namespace tvmbo

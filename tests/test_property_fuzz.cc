// Randomized property tests ("fuzz-lite"): random schedule pipelines must
// preserve kernel semantics; random JSON/CSV documents must round-trip;
// parallel and serial Random-Forest fits must be bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <thread>

#include "codegen/jit_program.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "configspace/divisors.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "kernels/reference.h"
#include "kernels/te_programs.h"
#include "runtime/cpu_device.h"
#include "surrogate/random_forest.h"
#include "te/interp.h"
#include "te/transform.h"

namespace tvmbo {
namespace {

// --- random schedule pipelines on a matmul ----------------------------------

struct RandomScheduleCase {
  std::uint64_t seed;
};

class RandomSchedules : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSchedules, AnyLegalPipelinePreservesMatmulSemantics) {
  Rng rng(GetParam());
  const std::int64_t m = 6 + rng.uniform_int(8);   // 6..13
  const std::int64_t n = 6 + rng.uniform_int(8);
  const std::int64_t k = 4 + rng.uniform_int(8);

  te::Tensor a = te::placeholder({m, k}, "A");
  te::Tensor b = te::placeholder({k, n}, "B");
  te::IterVar kk = te::reduce_axis(k, "k");
  te::Tensor c = te::compute(
      {m, n}, "C",
      [&](const std::vector<te::Var>& i) {
        return te::sum(te::access(a, {i[0], kk->var}) *
                           te::access(b, {kk->var, i[1]}),
                       {kk->var});
      },
      {kk});

  te::Schedule sched({c});
  te::Stage& stage = sched[c];

  // Random pipeline: a few split/reorder/annotate actions on live leaves.
  const int actions = 1 + static_cast<int>(rng.uniform_int(4));
  for (int act = 0; act < actions; ++act) {
    const auto& leaves = stage.leaf_iter_vars();
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(leaves.size())));
    const te::IterVar target = leaves[pick];
    switch (rng.uniform_int(3)) {
      case 0: {  // split by a random factor (dividing or not)
        const std::int64_t factor = 1 + rng.uniform_int(target->extent + 2);
        stage.split(target, factor);
        break;
      }
      case 1: {  // reorder a random shuffle of all leaves
        std::vector<te::IterVar> order = stage.leaf_iter_vars();
        rng.shuffle(order);
        stage.reorder(order);
        break;
      }
      case 2: {  // annotate (never changes interpreter semantics)
        // parallel is only legal on data axes (reductions stay serial per
        // output element — the lowering pass enforces this); split children
        // inherit the parent's kind, so the check is well-defined on leaves.
        if (rng.bernoulli(0.5) || target->kind != te::IterKind::kData) {
          stage.unroll(target);
        } else {
          stage.parallel(target);
        }
        break;
      }
    }
  }

  runtime::NDArray ma({m, k}), mb({k, n});
  kernels::init_gemm(ma, mb);
  runtime::NDArray expected({m, n});
  kernels::ref_matmul(ma, mb, expected);

  // Lower, then push through the full pass pipeline.
  te::Stmt program = te::lower(sched);
  te::validate(program);
  program = te::unroll_loops(te::simplify(program));
  te::validate(program);

  runtime::NDArray out({m, n});
  te::Interpreter interp;
  interp.bind(a, &ma);
  interp.bind(b, &mb);
  interp.bind(c, &out);
  interp.run(program);
  EXPECT_TRUE(out.allclose(expected, 1e-10))
      << "seed " << GetParam() << " (m,n,k)=(" << m << "," << n << ","
      << k << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSchedules,
                         ::testing::Range<std::uint64_t>(0, 30));

// --- random (tile x parallel-axis x thread-count) combinations --------------

// Every sampled combination must leave the closure (and, every third
// trial, the JIT) bit-identical to the serial interpreter oracle. On
// failure the assertion message is a one-line repro: re-run the same
// kernel/tiles/axis/threads by appending [axis, threads] to the tile
// vector of a TeProgramInstance.
TEST(PropertyFuzz, ParallelScheduleComboFuzz) {
  const std::vector<std::string> te_kernels = {"3mm", "gemm", "2mm",
                                               "syrk", "lu", "cholesky"};
  codegen::JitOptions jit_options;
  jit_options.cache_dir = testing::TempDir() + "tvmbo-parallel-fuzz-cache";
  const bool jit = codegen::JitProgram::toolchain_available(jit_options);
  const std::int64_t nproc = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::thread::hardware_concurrency()));

  constexpr std::uint64_t kBaseSeed = 7100;
  constexpr int kTrials = 12;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    const std::string kernel = te_kernels[static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(te_kernels.size())))];
    const std::vector<std::int64_t> dims =
        kernels::polybench_dims(kernel, kernels::Dataset::kMini);
    const cs::ConfigurationSpace space = kernels::build_space(kernel, dims);
    const auto data = kernels::make_te_kernel_data(kernel, dims);

    std::vector<std::int64_t> tiles = space.values_int(space.sample(rng));
    const std::int64_t axis = rng.uniform_int(
        static_cast<std::int64_t>(kernels::te_num_parallel_axes(kernel)) + 1);
    const std::vector<std::int64_t> thread_pool = {1, 2, 3, nproc};
    const std::int64_t threads = thread_pool[static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(thread_pool.size())))];

    std::ostringstream repro;
    repro << "repro: kernel=" << kernel << " seed=" << seed << " tiles=[";
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      repro << (i > 0 ? "," : "") << tiles[i];
    }
    repro << "] axis=" << axis << " threads=" << threads;

    const runtime::NDArray oracle = kernels::run_te_backend(
        data, tiles, runtime::ExecBackend::kInterp);
    std::vector<std::int64_t> extended = tiles;
    extended.push_back(axis);
    extended.push_back(threads);

    const runtime::NDArray closure = kernels::run_te_backend(
        data, extended, runtime::ExecBackend::kClosure);
    ASSERT_EQ(oracle.shape(), closure.shape()) << repro.str();
    {
      std::span<const double> ov = oracle.f64(), cv = closure.f64();
      for (std::size_t i = 0; i < ov.size(); ++i) {
        ASSERT_EQ(ov[i], cv[i])
            << repro.str() << " (closure, flat index " << i << ")";
      }
    }

    if (jit && trial % 3 == 0) {
      const runtime::NDArray jitted = kernels::run_te_backend(
          data, extended, runtime::ExecBackend::kJit, jit_options);
      ASSERT_EQ(oracle.shape(), jitted.shape()) << repro.str();
      std::span<const double> ov = oracle.f64(), jv = jitted.f64();
      for (std::size_t i = 0; i < ov.size(); ++i) {
        ASSERT_EQ(ov[i], jv[i])
            << repro.str() << " (jit, flat index " << i << ")";
      }
    }
  }
}

// --- random (tile x vectorize x unroll x pack x parallel) combinations ------

// The widened schedule tier: every sampled combination of tiles,
// parallel axis/threads, vectorize axis, unroll factor, and array
// packing must leave the closure (and, every third trial, the JIT)
// bit-identical to the serial interpreter oracle at float64. On failure
// the assertion message is a one-line repro: append
// [axis, threads, vec, unroll, pack] to the tile vector of a
// TeProgramInstance (or pass it to `tvmbo_lint --tiles`).
TEST(PropertyFuzz, VectorizeUnrollPackComboFuzz) {
  const std::vector<std::string> te_kernels = {"3mm", "gemm", "2mm",
                                               "syrk", "lu", "cholesky"};
  codegen::JitOptions jit_options;
  jit_options.cache_dir = testing::TempDir() + "tvmbo-vecpack-fuzz-cache";
  const bool jit = codegen::JitProgram::toolchain_available(jit_options);

  constexpr std::uint64_t kBaseSeed = 8200;
  constexpr int kTrials = 18;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    const std::string kernel = te_kernels[static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(te_kernels.size())))];
    const std::vector<std::int64_t> dims =
        kernels::polybench_dims(kernel, kernels::Dataset::kMini);
    const cs::ConfigurationSpace space = kernels::build_space(kernel, dims);
    const auto data = kernels::make_te_kernel_data(kernel, dims);

    std::vector<std::int64_t> tiles = space.values_int(space.sample(rng));
    const std::int64_t axis = rng.uniform_int(
        static_cast<std::int64_t>(kernels::te_num_parallel_axes(kernel)) + 1);
    const std::int64_t threads = 1 + rng.uniform_int(3);  // 1..3
    const std::int64_t vec = rng.uniform_int(3);          // 0..2
    const std::vector<std::int64_t> unroll_pool = cs::unroll_factors();
    const std::int64_t unroll = unroll_pool[static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(unroll_pool.size())))];
    const std::int64_t pack = rng.uniform_int(2);  // 0..1

    std::ostringstream repro;
    repro << "repro: kernel=" << kernel << " seed=" << seed << " tiles=[";
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      repro << (i > 0 ? "," : "") << tiles[i];
    }
    repro << "] axis=" << axis << " threads=" << threads << " vec=" << vec
          << " unroll=" << unroll << " pack=" << pack;

    const runtime::NDArray oracle = kernels::run_te_backend(
        data, tiles, runtime::ExecBackend::kInterp);
    std::vector<std::int64_t> extended = tiles;
    extended.insert(extended.end(), {axis, threads, vec, unroll, pack});

    const runtime::NDArray closure = kernels::run_te_backend(
        data, extended, runtime::ExecBackend::kClosure);
    ASSERT_EQ(oracle.shape(), closure.shape()) << repro.str();
    {
      std::span<const double> ov = oracle.f64(), cv = closure.f64();
      for (std::size_t i = 0; i < ov.size(); ++i) {
        ASSERT_EQ(ov[i], cv[i])
            << repro.str() << " (closure, flat index " << i << ")";
      }
    }

    if (jit && trial % 3 == 0) {
      const runtime::NDArray jitted = kernels::run_te_backend(
          data, extended, runtime::ExecBackend::kJit, jit_options);
      ASSERT_EQ(oracle.shape(), jitted.shape()) << repro.str();
      std::span<const double> ov = oracle.f64(), jv = jitted.f64();
      for (std::size_t i = 0; i < ov.size(); ++i) {
        ASSERT_EQ(ov[i], jv[i])
            << repro.str() << " (jit, flat index " << i << ")";
      }
    }
  }
}

// Trajectory identity, space level: with the vectorize/unroll/pack knobs
// disabled, the knob-aware space must be indistinguishable from the
// pre-existing spaces — same parameters, same cardinality, and the same
// fixed-seed sample stream — so existing tuning trajectories replay
// unchanged.
TEST(PropertyFuzz, DisabledKnobsPreserveSpaceAndSampleStreams) {
  const std::vector<std::string> te_kernels = {"3mm", "gemm", "2mm",
                                               "syrk", "lu", "cholesky"};
  for (const std::string& kernel : te_kernels) {
    const std::vector<std::int64_t> dims =
        kernels::polybench_dims(kernel, kernels::Dataset::kMini);

    // All knobs off: byte-identical to the base (tiles-only) space.
    const cs::ConfigurationSpace base = kernels::build_space(kernel, dims);
    kernels::ScheduleKnobs off;
    const cs::ConfigurationSpace knob_off =
        kernels::build_space(kernel, dims, off);
    ASSERT_EQ(base.num_params(), knob_off.num_params()) << kernel;
    for (std::size_t p = 0; p < base.num_params(); ++p) {
      EXPECT_EQ(base.param(p).name(), knob_off.param(p).name()) << kernel;
    }
    EXPECT_EQ(base.cardinality(), knob_off.cardinality()) << kernel;
    Rng ra(4242), rb(4242);
    for (int draw = 0; draw < 32; ++draw) {
      EXPECT_EQ(base.values_int(base.sample(ra)),
                knob_off.values_int(knob_off.sample(rb)))
          << kernel << " draw " << draw;
    }

    // Parallel tier only: exactly the two parallel knobs are appended and
    // none of the new P_vec/P_unroll/P_pack parameters appear.
    kernels::ScheduleKnobs par_only;
    par_only.enabled = true;
    par_only.max_threads = 4;
    const cs::ConfigurationSpace par_space =
        kernels::build_space(kernel, dims, par_only);
    ASSERT_EQ(par_space.num_params(), base.num_params() + 2u) << kernel;
    for (std::size_t p = 0; p < par_space.num_params(); ++p) {
      const std::string& name = par_space.param(p).name();
      EXPECT_NE(name, "P_vec") << kernel;
      EXPECT_NE(name, "P_unroll") << kernel;
      EXPECT_NE(name, "P_pack") << kernel;
    }

    // Fully widened: five knobs appended, in the documented order.
    kernels::ScheduleKnobs wide = par_only;
    wide.vectorize = wide.unroll = wide.pack = true;
    const cs::ConfigurationSpace wide_space =
        kernels::build_space(kernel, dims, wide);
    ASSERT_EQ(wide_space.num_params(), base.num_params() + 5u) << kernel;
    EXPECT_EQ(wide_space.param(base.num_params() + 2).name(), "P_vec");
    EXPECT_EQ(wide_space.param(base.num_params() + 3).name(), "P_unroll");
    EXPECT_EQ(wide_space.param(base.num_params() + 4).name(), "P_pack");
  }
}

// Trajectory identity, session level: a fixed-seed tuning session over a
// task built through the knob-aware make_task overload with every new
// knob disabled proposes the exact same configuration sequence as one
// built through the plain backend overload.
TEST(PropertyFuzz, FixedSeedSessionTrajectoryIdenticalWithKnobsDisabled) {
  codegen::JitOptions jit_options;
  const autotvm::Task plain = kernels::make_task(
      "gemm", kernels::Dataset::kMini, runtime::ExecBackend::kClosure,
      jit_options);
  const autotvm::Task knob_off = kernels::make_task(
      "gemm", kernels::Dataset::kMini, runtime::ExecBackend::kClosure,
      jit_options, kernels::ScheduleKnobs{});

  runtime::CpuDevice device;
  framework::SessionOptions options;
  options.max_evaluations = 4;
  options.seed = 99;
  options.charge_strategy_overhead = false;

  auto tile_sequence = [&](const autotvm::Task& task) {
    framework::AutotuningSession session(&task, &device, options);
    const framework::SessionResult result =
        session.run(framework::StrategyKind::kAutotvmRandom);
    EXPECT_EQ(result.evaluations, options.max_evaluations);
    std::vector<std::vector<std::int64_t>> sequence;
    for (const auto& record : result.db.records()) {
      EXPECT_TRUE(record.valid);
      sequence.push_back(record.tiles);
    }
    return sequence;
  };

  EXPECT_EQ(tile_sequence(plain), tile_sequence(knob_off));
}

// --- serialization round trips ----------------------------------------------

Json random_json(Rng& rng, int depth) {
  const std::int64_t kind = rng.uniform_int(depth > 2 ? 4 : 6);
  switch (kind) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.bernoulli(0.5));
    case 2:
      return Json(rng.bernoulli(0.3)
                      ? static_cast<double>(rng.uniform_int(-1000, 1000))
                      : rng.uniform(-1e6, 1e6));
    case 3: {
      std::string text;
      const std::int64_t length = rng.uniform_int(12);
      for (std::int64_t i = 0; i < length; ++i) {
        // Mix printable ASCII with characters that need escaping.
        const char pool[] = "abcXYZ019 ,\"\\\n\t{}[]";
        text.push_back(pool[rng.uniform_int(sizeof(pool) - 1)]);
      }
      return Json(text);
    }
    case 4: {
      Json array = Json::array();
      const std::int64_t size = rng.uniform_int(5);
      for (std::int64_t i = 0; i < size; ++i) {
        array.push_back(random_json(rng, depth + 1));
      }
      return array;
    }
    default: {
      Json object = Json::object();
      const std::int64_t size = rng.uniform_int(5);
      for (std::int64_t i = 0; i < size; ++i) {
        object.set("k" + std::to_string(i), random_json(rng, depth + 1));
      }
      return object;
    }
  }
}

TEST(PropertyFuzz, JsonRoundTripsRandomDocuments) {
  Rng rng(404);
  for (int i = 0; i < 300; ++i) {
    const Json document = random_json(rng, 0);
    EXPECT_EQ(Json::parse(document.dump()), document) << document.dump();
    EXPECT_EQ(Json::parse(document.dump_pretty()), document);
  }
}

TEST(PropertyFuzz, CsvRoundTripsRandomTables) {
  Rng rng(505);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t columns =
        1 + static_cast<std::size_t>(rng.uniform_int(5));
    std::vector<std::string> header;
    for (std::size_t c = 0; c < columns; ++c) {
      header.push_back("col" + std::to_string(c));
    }
    CsvTable table(header);
    const std::int64_t rows = rng.uniform_int(6);
    for (std::int64_t r = 0; r < rows; ++r) {
      std::vector<std::string> row;
      for (std::size_t c = 0; c < columns; ++c) {
        std::string cell;
        const std::int64_t length = rng.uniform_int(8);
        for (std::int64_t i = 0; i < length; ++i) {
          const char pool[] = "ab1 ,\"\n";
          cell.push_back(pool[rng.uniform_int(sizeof(pool) - 1)]);
        }
        row.push_back(std::move(cell));
      }
      table.add_row(row);
    }
    const CsvTable parsed = CsvTable::parse(table.to_string());
    ASSERT_EQ(parsed.num_rows(), table.num_rows()) << trial;
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      EXPECT_EQ(parsed.row(r), table.row(r)) << trial;
    }
  }
}

// --- parallel determinism ----------------------------------------------------

TEST(PropertyFuzz, ParallelForestFitIsBitIdenticalToSerial) {
  Rng data_rng(606);
  surrogate::Dataset data;
  for (int i = 0; i < 120; ++i) {
    const double x0 = data_rng.uniform(), x1 = data_rng.uniform();
    data.add({x0, x1}, x0 * x0 + 0.3 * x1 + data_rng.normal(0.0, 0.01));
  }
  surrogate::ForestOptions options;
  options.num_trees = 24;

  // Forest fits fan out on the default pool, except inside one of its
  // workers, where they run inline: a fit in a pool task is the serial fit.
  surrogate::RandomForest serial(options);
  surrogate::RandomForest parallel(options);
  Rng ra(7), rb(7);
  default_thread_pool().submit([&] { serial.fit(data, ra); }).get();
  parallel.fit(data, rb);

  Rng probe(8);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{probe.uniform(), probe.uniform()};
    const auto ps = serial.predict_with_std(x);
    const auto pp = parallel.predict_with_std(x);
    EXPECT_DOUBLE_EQ(ps.mean, pp.mean);
    EXPECT_DOUBLE_EQ(ps.std, pp.std);
  }
}

}  // namespace
}  // namespace tvmbo

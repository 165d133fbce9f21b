#include "kernels/polybench.h"

#include <memory>

#include "common/logging.h"
#include "configspace/divisors.h"
#include "kernels/matvec.h"
#include "kernels/native.h"
#include "kernels/reference.h"
#include "kernels/te_programs.h"

namespace tvmbo::kernels {

const char* dataset_name(Dataset dataset) {
  switch (dataset) {
    case Dataset::kMini: return "mini";
    case Dataset::kSmall: return "small";
    case Dataset::kMedium: return "medium";
    case Dataset::kLarge: return "large";
    case Dataset::kExtraLarge: return "extralarge";
  }
  return "?";
}

Dataset dataset_from_name(const std::string& name) {
  for (Dataset d : {Dataset::kMini, Dataset::kSmall, Dataset::kMedium,
                    Dataset::kLarge, Dataset::kExtraLarge}) {
    if (name == dataset_name(d)) return d;
  }
  TVMBO_CHECK(false) << "unknown dataset '" << name << "'";
  return Dataset::kMini;
}

std::vector<std::int64_t> polybench_dims(const std::string& kernel,
                                         Dataset dataset) {
  if (kernel == "3mm") {
    switch (dataset) {
      case Dataset::kMini: return {16, 18, 20, 22, 24};
      case Dataset::kSmall: return {40, 50, 60, 70, 80};
      case Dataset::kMedium: return {180, 190, 200, 210, 220};
      case Dataset::kLarge: return {800, 900, 1000, 1100, 1200};
      case Dataset::kExtraLarge: return {1600, 1800, 2000, 2200, 2400};
    }
  }
  if (kernel == "lu" || kernel == "cholesky") {
    switch (dataset) {
      case Dataset::kMini: return {40};
      case Dataset::kSmall: return {120};
      case Dataset::kMedium: return {400};
      case Dataset::kLarge: return {2000};
      case Dataset::kExtraLarge: return {4000};
    }
  }
  if (kernel == "gemm") {
    switch (dataset) {
      case Dataset::kMini: return {20, 25, 30};
      case Dataset::kSmall: return {60, 70, 80};
      case Dataset::kMedium: return {200, 220, 240};
      case Dataset::kLarge: return {1000, 1100, 1200};
      case Dataset::kExtraLarge: return {2000, 2300, 2600};
    }
  }
  if (kernel == "syrk") {
    // {N, M}: C is N x N, A is N x M (PolyBench 4.2).
    switch (dataset) {
      case Dataset::kMini: return {30, 20};
      case Dataset::kSmall: return {80, 60};
      case Dataset::kMedium: return {240, 200};
      case Dataset::kLarge: return {1200, 1000};
      case Dataset::kExtraLarge: return {2600, 2000};
    }
  }
  if (kernel == "atax") {
    // {M, N}: A is M x N (PolyBench 4.2 extents).
    switch (dataset) {
      case Dataset::kMini: return {38, 42};
      case Dataset::kSmall: return {116, 124};
      case Dataset::kMedium: return {390, 410};
      case Dataset::kLarge: return {1900, 2100};
      case Dataset::kExtraLarge: return {1800, 2200};
    }
  }
  if (kernel == "bicg") {
    // {N, M}: A is N x M.
    switch (dataset) {
      case Dataset::kMini: return {42, 38};
      case Dataset::kSmall: return {124, 116};
      case Dataset::kMedium: return {410, 390};
      case Dataset::kLarge: return {2100, 1900};
      case Dataset::kExtraLarge: return {2200, 1800};
    }
  }
  if (kernel == "mvt") {
    switch (dataset) {
      case Dataset::kMini: return {40};
      case Dataset::kSmall: return {120};
      case Dataset::kMedium: return {400};
      case Dataset::kLarge: return {2000};
      case Dataset::kExtraLarge: return {4000};
    }
  }
  if (kernel == "2mm") {
    switch (dataset) {
      case Dataset::kMini: return {16, 18, 22, 24};
      case Dataset::kSmall: return {40, 50, 70, 80};
      case Dataset::kMedium: return {180, 190, 210, 220};
      case Dataset::kLarge: return {800, 900, 1100, 1200};
      case Dataset::kExtraLarge: return {1600, 1800, 2200, 2400};
    }
  }
  TVMBO_CHECK(false) << "unknown kernel '" << kernel << "'";
  return {};
}

double kernel_flops(const std::string& kernel,
                    const std::vector<std::int64_t>& dims) {
  auto d = [&](std::size_t i) { return static_cast<double>(dims[i]); };
  if (kernel == "3mm") {
    TVMBO_CHECK_EQ(dims.size(), 5u) << "3mm dims must be {N,L,M,O,P}";
    // E(NxM depth L) + F(MxP depth O) + G(NxP depth M), 2 flops each.
    return 2.0 * (d(0) * d(2) * d(1) + d(2) * d(4) * d(3) +
                  d(0) * d(4) * d(2));
  }
  if (kernel == "lu") {
    TVMBO_CHECK_EQ(dims.size(), 1u) << "lu dims must be {N}";
    return 2.0 / 3.0 * d(0) * d(0) * d(0);
  }
  if (kernel == "cholesky") {
    TVMBO_CHECK_EQ(dims.size(), 1u) << "cholesky dims must be {N}";
    return 1.0 / 3.0 * d(0) * d(0) * d(0);
  }
  if (kernel == "gemm") {
    TVMBO_CHECK_EQ(dims.size(), 3u) << "gemm dims must be {NI,NJ,NK}";
    return 2.0 * d(0) * d(1) * d(2);
  }
  if (kernel == "2mm") {
    TVMBO_CHECK_EQ(dims.size(), 4u) << "2mm dims must be {NI,NJ,NK,NL}";
    return 2.0 * (d(0) * d(1) * d(2) + d(0) * d(3) * d(1));
  }
  if (kernel == "syrk") {
    TVMBO_CHECK_EQ(dims.size(), 2u) << "syrk dims must be {N, M}";
    return d(0) * d(0) * d(1);  // triangular: half of 2*N^2*M
  }
  if (kernel == "atax" || kernel == "bicg") {
    TVMBO_CHECK_EQ(dims.size(), 2u) << kernel << " dims must be 2-D";
    return 4.0 * d(0) * d(1);  // two matrix-vector traversals
  }
  if (kernel == "mvt") {
    TVMBO_CHECK_EQ(dims.size(), 1u) << "mvt dims must be {N}";
    return 4.0 * d(0) * d(0);
  }
  TVMBO_CHECK(false) << "unknown kernel '" << kernel << "'";
  return 0.0;
}

runtime::Workload make_workload(const std::string& kernel,
                                Dataset dataset) {
  return make_workload(kernel, dataset_name(dataset),
                       polybench_dims(kernel, dataset));
}

runtime::Workload make_workload(const std::string& kernel,
                                const std::string& size_name,
                                std::vector<std::int64_t> dims) {
  runtime::Workload workload;
  workload.kernel = kernel;
  workload.size_name = size_name;
  workload.flops = kernel_flops(kernel, dims);
  workload.dims = std::move(dims);
  return workload;
}

namespace {

// For simulated devices on "3mm", the sim expects dims {N,L,M,O,P} and
// tiles {y0,x0,y1,x1,y2,x2}. The divisor sets follow the paper's §4
// listing: {div(M), div(N), div(P), div(M), div(P), div(N)} for P0..P5.
std::vector<std::int64_t> space_extents(
    const std::string& kernel, const std::vector<std::int64_t>& dims) {
  if (kernel == "3mm") {
    const std::int64_t N = dims[0], M = dims[2], P = dims[4];
    return {M, N, P, M, P, N};
  }
  if (kernel == "lu" || kernel == "cholesky") {
    return {dims[0], dims[0]};
  }
  if (kernel == "gemm") {
    return {dims[0], dims[1]};
  }
  if (kernel == "syrk") {
    return {dims[0], dims[0]};  // both tiles block the N x N output
  }
  if (kernel == "atax" || kernel == "bicg") {
    return {dims[0], dims[1]};  // (row, reduction) blocking of A
  }
  if (kernel == "mvt") {
    return {dims[0], dims[0]};
  }
  if (kernel == "2mm") {
    // Stage tmp is NI x NJ; stage D is NI x NL.
    return {dims[0], dims[1], dims[0], dims[3]};
  }
  TVMBO_CHECK(false) << "unknown kernel '" << kernel << "'";
  return {};
}

}  // namespace

cs::ConfigurationSpace build_space(const std::string& kernel,
                                   const std::vector<std::int64_t>& dims) {
  return build_space(kernel, dims, ScheduleKnobs{});
}

cs::ConfigurationSpace build_space(const std::string& kernel,
                                   const std::vector<std::int64_t>& dims,
                                   const ScheduleKnobs& knobs) {
  cs::ConfigurationSpace space;
  const std::vector<std::int64_t> extents = space_extents(kernel, dims);
  for (std::size_t i = 0; i < extents.size(); ++i) {
    space.add(cs::tile_factor_param("P" + std::to_string(i), extents[i]));
  }
  if (knobs.extended()) {
    TVMBO_CHECK(te_backend_supported(kernel))
        << "schedule knobs require a TE program; kernel '" << kernel
        << "' has none";
    if (knobs.enabled) {
      space.add(cs::parallel_axis_param(
          "P_par",
          static_cast<std::int64_t>(te_num_parallel_axes(kernel))));
      space.add(cs::thread_count_param("P_threads", knobs.max_threads));
    } else {
      // Widened tile vectors always carry the [par_axis, threads] slots;
      // without the parallel tier they collapse to serial singletons.
      space.add(std::make_shared<cs::OrdinalHyperparameter>(
          "P_par", std::vector<double>{0.0}));
      space.add(std::make_shared<cs::OrdinalHyperparameter>(
          "P_threads", std::vector<double>{1.0}));
    }
    if (knobs.widened()) {
      space.add(cs::vectorize_axis_param("P_vec", knobs.vectorize));
      space.add(cs::unroll_factor_param("P_unroll", knobs.unroll));
      space.add(cs::pack_flag_param("P_pack", knobs.pack));
    }
  }
  return space;
}

namespace {

// Shared buffers for an executable task; allocated once per task so the
// 100-evaluation loop reuses them (as TVM's measure infrastructure does).
struct ExecBuffers3mm {
  runtime::NDArray a, b, c, d, e, f, g;
  ExecBuffers3mm(std::int64_t n, std::int64_t l, std::int64_t m,
                 std::int64_t o, std::int64_t p)
      : a({n, l}), b({l, m}), c({m, o}), d({o, p}), e({n, m}), f({m, p}),
        g({n, p}) {
    init_3mm(a, b, c, d);
  }
};

struct ExecBuffersSquare {
  runtime::NDArray original, work;
  ExecBuffersSquare(std::int64_t n, bool spd)
      : original({n, n}), work({n, n}) {
    if (spd) {
      init_spd(original);
    } else {
      init_lu(original);
    }
  }
};

}  // namespace

autotvm::Task make_task(const std::string& kernel, Dataset dataset,
                        bool executable) {
  return make_task(kernel, dataset_name(dataset),
                   polybench_dims(kernel, dataset), executable);
}

autotvm::Task make_task(const std::string& kernel,
                        const std::string& size_name,
                        std::vector<std::int64_t> dims, bool executable) {
  autotvm::Task task;
  task.name = kernel + "_" + size_name;
  task.workload = make_workload(kernel, size_name, dims);

  // Knobs mirror the ytopt space candidate-for-candidate.
  const std::vector<std::int64_t> extents = space_extents(kernel, dims);
  static const char* kKnobNames3mm[6] = {"tile_y",  "tile_x",  "tile_y1",
                                         "tile_x1", "tile_y2", "tile_x2"};
  for (std::size_t i = 0; i < extents.size(); ++i) {
    const std::string name =
        extents.size() == 6 ? kKnobNames3mm[i]
                            : (i == 0 ? "tile_y" : "tile_x");
    std::string unique = name;
    if (extents.size() != 6 && extents.size() > 2) {
      unique = "tile_" + std::to_string(i);
    }
    task.config.define_knob(unique, cs::divisors(extents[i]));
  }

  if (executable) {
    const runtime::Workload workload = task.workload;
    if (kernel == "3mm") {
      auto buffers = std::make_shared<ExecBuffers3mm>(
          dims[0], dims[1], dims[2], dims[3], dims[4]);
      task.instantiate =
          [workload, buffers](const std::vector<std::int64_t>& tiles) {
            runtime::MeasureInput input;
            input.workload = workload;
            input.tiles = tiles;
            input.run = [buffers, tiles] {
              const std::int64_t t[6] = {tiles[0], tiles[1], tiles[2],
                                         tiles[3], tiles[4], tiles[5]};
              threemm_tiled(buffers->a, buffers->b, buffers->c, buffers->d,
                            buffers->e, buffers->f, buffers->g, t);
            };
            return input;
          };
    } else if (kernel == "lu" || kernel == "cholesky") {
      const bool spd = kernel == "cholesky";
      auto buffers = std::make_shared<ExecBuffersSquare>(dims[0], spd);
      task.instantiate =
          [workload, buffers, spd](const std::vector<std::int64_t>& tiles) {
            runtime::MeasureInput input;
            input.workload = workload;
            input.tiles = tiles;
            input.run = [buffers, tiles, spd] {
              buffers->work = buffers->original;  // factorize a fresh copy
              if (spd) {
                cholesky_tiled(buffers->work, tiles[0], tiles[1]);
              } else {
                lu_tiled(buffers->work, tiles[0], tiles[1]);
              }
            };
            return input;
          };
    } else if (kernel == "syrk") {
      auto a = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0], dims[1]});
      auto c0 = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0], dims[0]});
      auto work = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0], dims[0]});
      init_syrk(*a, *c0);
      task.instantiate =
          [workload, a, c0, work](const std::vector<std::int64_t>& tiles) {
            runtime::MeasureInput input;
            input.workload = workload;
            input.tiles = tiles;
            input.run = [a, c0, work, tiles] {
              *work = *c0;  // the update is destructive; refresh C
              syrk_tiled(*a, *work, tiles[0], tiles[1]);
            };
            return input;
          };
    } else if (kernel == "atax") {
      auto a = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0], dims[1]});
      auto x = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[1]});
      auto tmp = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0]});
      auto y = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[1]});
      init_atax(*a, *x);
      task.instantiate =
          [workload, a, x, tmp, y](const std::vector<std::int64_t>& tiles) {
            runtime::MeasureInput input;
            input.workload = workload;
            input.tiles = tiles;
            input.run = [a, x, tmp, y, tiles] {
              atax_tiled(*a, *x, *tmp, *y, tiles[0], tiles[1]);
            };
            return input;
          };
    } else if (kernel == "mvt") {
      auto a = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0], dims[0]});
      auto x1 = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0]});
      auto x2 = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0]});
      auto y1 = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0]});
      auto y2 = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0]});
      init_mvt(*a, *x1, *x2, *y1, *y2);
      task.instantiate =
          [workload, a, x1, x2, y1,
           y2](const std::vector<std::int64_t>& tiles) {
            runtime::MeasureInput input;
            input.workload = workload;
            input.tiles = tiles;
            input.run = [a, x1, x2, y1, y2, tiles] {
              mvt_tiled(*a, *x1, *x2, *y1, *y2, tiles[0], tiles[1]);
            };
            return input;
          };
    } else if (kernel == "gemm") {
      auto a = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0], dims[2]});
      auto b = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[2], dims[1]});
      auto c = std::make_shared<runtime::NDArray>(
          std::vector<std::int64_t>{dims[0], dims[1]});
      init_gemm(*a, *b);
      task.instantiate =
          [workload, a, b, c](const std::vector<std::int64_t>& tiles) {
            runtime::MeasureInput input;
            input.workload = workload;
            input.tiles = tiles;
            input.run = [a, b, c, tiles] {
              matmul_tiled(*a, *b, *c, tiles[0], tiles[1]);
            };
            return input;
          };
    }
  }
  return task;
}

autotvm::Task make_task(const std::string& kernel, Dataset dataset,
                        runtime::ExecBackend backend,
                        const codegen::JitOptions& jit_options) {
  return make_task(kernel, dataset_name(dataset),
                   polybench_dims(kernel, dataset), backend, jit_options);
}

autotvm::Task make_task(const std::string& kernel,
                        const std::string& size_name,
                        std::vector<std::int64_t> dims,
                        runtime::ExecBackend backend,
                        const codegen::JitOptions& jit_options) {
  if (backend == runtime::ExecBackend::kNative) {
    return make_task(kernel, size_name, std::move(dims), /*executable=*/true);
  }
  TVMBO_CHECK(te_backend_supported(kernel))
      << "kernel '" << kernel << "' has no TE program; only the native "
      << "backend can run it";

  // Start from the non-executable task to reuse the space/knob setup,
  // then swap in the TE-backed instantiate.
  autotvm::Task task = make_task(kernel, size_name, dims,
                                 /*executable=*/false);
  const runtime::Workload workload = task.workload;
  auto data = make_te_kernel_data(kernel, dims);
  task.instantiate =
      [workload, data, backend,
       jit_options](const std::vector<std::int64_t>& tiles) {
        return make_te_measure_input(data, workload, tiles, backend,
                                     jit_options);
      };
  return task;
}

autotvm::Task make_task(const std::string& kernel, Dataset dataset,
                        runtime::ExecBackend backend,
                        const codegen::JitOptions& jit_options,
                        const ScheduleKnobs& knobs) {
  return make_task(kernel, dataset_name(dataset),
                   polybench_dims(kernel, dataset), backend, jit_options,
                   knobs);
}

autotvm::Task make_task(const std::string& kernel,
                        const std::string& size_name,
                        std::vector<std::int64_t> dims,
                        runtime::ExecBackend backend,
                        const codegen::JitOptions& jit_options,
                        const ScheduleKnobs& knobs) {
  if (!knobs.extended()) {
    return make_task(kernel, size_name, std::move(dims), backend,
                     jit_options);
  }
  TVMBO_CHECK(backend != runtime::ExecBackend::kNative)
      << "schedule knobs require a TE-program backend "
      << "(interp/closure/jit); the native kernels are serial";
  autotvm::Task task =
      make_task(kernel, size_name, std::move(dims), backend, jit_options);
  // Trailing knobs append to the instantiate tile vector in definition
  // order, matching TeProgramInstance's extended [.., parallel_axis,
  // threads, vec_axis, unroll, pack] convention and build_space's
  // P_par/P_threads/P_vec/P_unroll/P_pack (disabled knobs collapse to
  // the same singletons build_space uses).
  if (knobs.enabled) {
    std::vector<std::int64_t> axes;
    for (std::int64_t a = 0;
         a <= static_cast<std::int64_t>(te_num_parallel_axes(kernel)); ++a) {
      axes.push_back(a);
    }
    task.config.define_knob("parallel_axis", std::move(axes));
    task.config.define_knob("threads", cs::thread_counts(knobs.max_threads));
  } else {
    task.config.define_knob("parallel_axis", {0});
    task.config.define_knob("threads", {1});
  }
  if (knobs.widened()) {
    task.config.define_knob(
        "vec_axis", knobs.vectorize ? std::vector<std::int64_t>{0, 1, 2}
                                    : std::vector<std::int64_t>{0});
    task.config.define_knob("unroll",
                            knobs.unroll ? cs::unroll_factors()
                                         : std::vector<std::int64_t>{0});
    task.config.define_knob("pack",
                            knobs.pack ? std::vector<std::int64_t>{0, 1}
                                       : std::vector<std::int64_t>{0});
  }
  return task;
}

std::vector<PaperExperiment> paper_experiments() {
  return {
      {"lu", Dataset::kLarge, "Fig4", "Fig5", 1.659},
      {"lu", Dataset::kExtraLarge, "Fig6", "Fig7", 13.77},
      {"cholesky", Dataset::kLarge, "Fig8", "Fig9", 1.65},
      {"cholesky", Dataset::kExtraLarge, "Fig10", "Fig11", 13.99},
      {"3mm", Dataset::kExtraLarge, "Fig12", "Fig13", 30.99},
      {"3mm", Dataset::kLarge, "", "", 0.0},
  };
}

}  // namespace tvmbo::kernels

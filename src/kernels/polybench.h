// PolyBench 4.2 dataset sizes, workload descriptors, and the paper's exact
// parameter spaces for 3mm, LU, and Cholesky (plus gemm/2mm extensions).
//
// The paper derives each tile-factor candidate list from the divisors of
// the matrix extents; Table 1's space sizes follow:
//   3mm   large 74,649,600 | extralarge 228,614,400
//   LU    large 400        | extralarge 576
//   Cholesky large 400     | extralarge 576
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "autotvm/autotvm.h"
#include "codegen/artifact_cache.h"
#include "configspace/configspace.h"
#include "runtime/exec_backend.h"
#include "runtime/measure.h"

namespace tvmbo::kernels {

enum class Dataset { kMini, kSmall, kMedium, kLarge, kExtraLarge };

const char* dataset_name(Dataset dataset);
Dataset dataset_from_name(const std::string& name);

/// PolyBench 4.2 extents. 3mm returns {N, L, M, O, P}; lu/cholesky {N};
/// gemm {NI, NJ, NK}; 2mm {NI, NJ, NK, NL}.
std::vector<std::int64_t> polybench_dims(const std::string& kernel,
                                         Dataset dataset);

/// Nominal floating-point work of a kernel instance.
double kernel_flops(const std::string& kernel,
                    const std::vector<std::int64_t>& dims);

/// Workload descriptor (kernel + dataset + dims + flops).
runtime::Workload make_workload(const std::string& kernel, Dataset dataset);
runtime::Workload make_workload(const std::string& kernel,
                                const std::string& size_name,
                                std::vector<std::int64_t> dims);

/// The paper's ytopt parameter space for a kernel instance:
///   3mm: P0..P5 ordinals over divisor sets of {M, N, P, M, P, N}
///        (exactly the sequences listed in §4),
///   lu/cholesky: P0, P1 over divisors(N),
///   gemm: P0, P1 over divisors(NI)/divisors(NJ),
///   2mm: P0..P3 over divisors of the stage extents.
cs::ConfigurationSpace build_space(const std::string& kernel,
                                   const std::vector<std::int64_t>& dims);

/// Optional schedule knobs appended after the tile parameters (Wu et al.
/// and CATBench both put parallelization in the same search space as
/// tiling; the vectorize/unroll/pack tier extends that to the full
/// codegen schedule). Only meaningful for TE-program kernels executed on
/// a non-native backend — the hand-written native kernels are serial.
struct ScheduleKnobs {
  /// Parallel tier: P_par over {0..te_num_parallel_axes} and P_threads.
  bool enabled = false;
  /// Cap for the thread-count candidates; 0 = hardware_concurrency.
  std::int64_t max_threads = 0;
  /// Vectorize tier: P_vec over {0 = none, 1 = innermost,
  /// 2 = second-innermost}, annotated kVectorized (race-proof-gated).
  bool vectorize = false;
  /// Unroll tier: P_unroll over cs::unroll_factors() — structural split +
  /// kUnrolled annotation.
  bool unroll = false;
  /// Array-packing tier: P_pack over {0, 1} (Stage::cache_write).
  bool pack = false;

  /// True when any of the vectorize/unroll/pack knobs widen the space.
  bool widened() const { return vectorize || unroll || pack; }
  /// True when the tile vector carries trailing schedule knobs at all.
  bool extended() const { return enabled || widened(); }
};

/// build_space plus trailing schedule ordinals. When `knobs.enabled`,
/// P_par over {0..te_num_parallel_axes} (0 = serial) and P_threads over
/// thread_counts(knobs.max_threads). When `knobs.widened()`, P_vec,
/// P_unroll, and P_pack follow (each collapsing to the singleton {0}
/// when its flag is off, and P_par/P_threads collapsing to {0}/{1} when
/// only the widened tier is on) so the tile vector is always base,
/// base + 2, or base + 5 entries — matching TeProgramInstance.
cs::ConfigurationSpace build_space(const std::string& kernel,
                                   const std::vector<std::int64_t>& dims,
                                   const ScheduleKnobs& knobs);

/// An AutoTVM task for the same kernel instance: knobs match the ytopt
/// space candidate-for-candidate (as in the paper, where both frameworks
/// tune the same predefined space). `executable` additionally wires a
/// real CPU runnable (needed for CpuDevice; simulated devices don't use
/// it and skipping it avoids allocating the matrices).
autotvm::Task make_task(const std::string& kernel, Dataset dataset,
                        bool executable = false);
autotvm::Task make_task(const std::string& kernel,
                        const std::string& size_name,
                        std::vector<std::int64_t> dims,
                        bool executable = false);

/// Backend-selecting overloads. kNative builds the executable task above
/// (hand-written tiled kernels); the other tiers route every configuration
/// through the TE program path (te_programs.h) — the schedule is lowered
/// and compiled in MeasureInput::prepare so CpuDevice charges real compile
/// time, and `jit_options` picks the kJit compiler/flags/cache directory.
/// Throws CheckError when the kernel has no TE program and backend is not
/// kNative.
autotvm::Task make_task(const std::string& kernel, Dataset dataset,
                        runtime::ExecBackend backend,
                        const codegen::JitOptions& jit_options = {});
autotvm::Task make_task(const std::string& kernel,
                        const std::string& size_name,
                        std::vector<std::int64_t> dims,
                        runtime::ExecBackend backend,
                        const codegen::JitOptions& jit_options = {});

/// Backend task plus trailing schedule knobs matching build_space's
/// P_par/P_threads/P_vec/P_unroll/P_pack candidate-for-candidate
/// ("parallel_axis", "threads", then "vec_axis", "unroll", "pack" when
/// the space is widened). The extended knob values flow straight into
/// the TE instantiate path (TeProgramInstance's extended tile vector).
/// Throws CheckError when any knob is enabled on the native backend.
autotvm::Task make_task(const std::string& kernel, Dataset dataset,
                        runtime::ExecBackend backend,
                        const codegen::JitOptions& jit_options,
                        const ScheduleKnobs& knobs);
autotvm::Task make_task(const std::string& kernel,
                        const std::string& size_name,
                        std::vector<std::int64_t> dims,
                        runtime::ExecBackend backend,
                        const codegen::JitOptions& jit_options,
                        const ScheduleKnobs& knobs);

/// All (kernel, dataset) pairs evaluated in the paper's §5.
struct PaperExperiment {
  std::string kernel;
  Dataset dataset;
  const char* figure_process;  ///< process-over-time figure, "" if none
  const char* figure_minimum;  ///< minimum-runtimes figure, "" if none
  double paper_best_runtime_s;  ///< best runtime the paper reports (0 = n/a)
};
std::vector<PaperExperiment> paper_experiments();

}  // namespace tvmbo::kernels

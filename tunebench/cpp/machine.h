// The machine record printed with every result, and the fp64 peak probe
// that gives kernels.peak_frac a ceiling measured in the same run.
#pragma once

#include <string>

#include "codegen/artifact_cache.h"

namespace tunebench {

struct MachineRecord {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string build_type;
  std::string cc_version;
  std::string jit_flags;
  bool openmp = false;
  bool simd = false;
  double fp64_peak_gflops = 0.0;  ///< one core, from fp64_peak_probe()
  std::string peak_kind;          ///< "fma-avx2" or "mul+add-sse2"

  std::string to_json() const;
};

/// Single-core fp64 peak: the best of three timed passes over independent
/// fused multiply-add chains (AVX2 FMA when the CPU has it, else SSE2
/// multiply + add). `kind` receives which one ran.
double fp64_peak_probe(std::string* kind);

/// Fills every field; the OpenMP/SIMD probes compile into `jit`'s cache
/// directory.
MachineRecord probe_machine(const tvmbo::codegen::JitOptions& jit);

}  // namespace tunebench

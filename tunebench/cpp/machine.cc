#include "machine.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "codegen/jit_program.h"
#include "trace.h"

#ifndef TUNEBENCH_BUILD_TYPE
#define TUNEBENCH_BUILD_TYPE "unknown"
#endif

namespace tunebench {

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

constexpr long kProbeIters = 20'000'000;

#if defined(__x86_64__)
// Ten independent chains, spelled out so they stay in registers, cover the
// FMA latency on two pipes.
__attribute__((target("avx2,fma"))) double fma_chains(long iters,
                                                      double seed) {
  const __m256d m = _mm256_set1_pd(0.999999);
  const __m256d c = _mm256_set1_pd(1e-7);
  __m256d a0 = _mm256_set1_pd(seed), a1 = _mm256_set1_pd(seed + 1),
          a2 = _mm256_set1_pd(seed + 2), a3 = _mm256_set1_pd(seed + 3),
          a4 = _mm256_set1_pd(seed + 4), a5 = _mm256_set1_pd(seed + 5),
          a6 = _mm256_set1_pd(seed + 6), a7 = _mm256_set1_pd(seed + 7),
          a8 = _mm256_set1_pd(seed + 8), a9 = _mm256_set1_pd(seed + 9);
  for (long it = 0; it < iters; ++it) {
    a0 = _mm256_fmadd_pd(a0, m, c);
    a1 = _mm256_fmadd_pd(a1, m, c);
    a2 = _mm256_fmadd_pd(a2, m, c);
    a3 = _mm256_fmadd_pd(a3, m, c);
    a4 = _mm256_fmadd_pd(a4, m, c);
    a5 = _mm256_fmadd_pd(a5, m, c);
    a6 = _mm256_fmadd_pd(a6, m, c);
    a7 = _mm256_fmadd_pd(a7, m, c);
    a8 = _mm256_fmadd_pd(a8, m, c);
    a9 = _mm256_fmadd_pd(a9, m, c);
  }
  const __m256d sum = _mm256_add_pd(
      _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3)),
      _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(a4, a5), _mm256_add_pd(a6, a7)),
                    _mm256_add_pd(a8, a9)));
  double lanes[4];
  _mm256_storeu_pd(lanes, sum);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}
constexpr double kFmaFlopsPerIter = 10 * 4 * 2;
#endif

using v2d = double __attribute__((vector_size(16)));

double mul_add_chains(long iters, double seed) {
  const v2d m = {0.999999, 0.999999};
  const v2d c = {1e-7, 1e-7};
  v2d a0 = {seed, seed + 1}, a1 = {seed + 2, seed + 3},
      a2 = {seed + 4, seed + 5}, a3 = {seed + 6, seed + 7},
      a4 = {seed + 8, seed + 9}, a5 = {seed + 10, seed + 11},
      a6 = {seed + 12, seed + 13}, a7 = {seed + 14, seed + 15};
  for (long it = 0; it < iters; ++it) {
    a0 = a0 * m + c;
    a1 = a1 * m + c;
    a2 = a2 * m + c;
    a3 = a3 * m + c;
    a4 = a4 * m + c;
    a5 = a5 * m + c;
    a6 = a6 * m + c;
    a7 = a7 * m + c;
  }
  const v2d sum = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
  return sum[0] + sum[1];
}
constexpr double kMulAddFlopsPerIter = 8 * 2 * 2;

}  // namespace

double fp64_peak_probe(std::string* kind) {
  volatile double seed = 1.0;
  volatile double sink = 0.0;
  bool fma = false;
#if defined(__x86_64__)
  fma = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = now_s();
    double flops = 0.0;
#if defined(__x86_64__)
    if (fma) {
      sink = sink + fma_chains(kProbeIters, seed);
      flops = kFmaFlopsPerIter * kProbeIters;
    }
#endif
    if (!fma) {
      sink = sink + mul_add_chains(kProbeIters, seed);
      flops = kMulAddFlopsPerIter * kProbeIters;
    }
    best = std::max(best, flops / (now_s() - t0) * 1e-9);
  }
  if (kind != nullptr) *kind = fma ? "fma-avx2" : "mul+add-sse2";
  return best;
}

MachineRecord probe_machine(const tvmbo::codegen::JitOptions& jit) {
  MachineRecord record;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) record.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  record.nproc = std::thread::hardware_concurrency();
  record.build_type = TUNEBENCH_BUILD_TYPE;
  const std::string command = jit.resolved_compiler() + " --version 2>&1";
  if (std::FILE* pipe = ::popen(command.c_str(), "r"); pipe != nullptr) {
    char buffer[256] = {};
    if (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
      record.cc_version = buffer;
      while (!record.cc_version.empty() &&
             (record.cc_version.back() == '\n' ||
              record.cc_version.back() == '\r')) {
        record.cc_version.pop_back();
      }
    }
    ::pclose(pipe);
  }
  record.jit_flags = jit.flags;
  record.openmp = tvmbo::codegen::JitProgram::openmp_available(jit);
  record.simd = tvmbo::codegen::JitProgram::simd_available(jit);
  record.fp64_peak_gflops = fp64_peak_probe(&record.peak_kind);
  return record;
}

std::string MachineRecord::to_json() const {
  std::ostringstream out;
  out << "{\"cpu_model\":" << json_string(cpu_model)
      << ",\"nproc\":" << nproc
      << ",\"build_type\":" << json_string(build_type)
      << ",\"cc_version\":" << json_string(cc_version)
      << ",\"jit_flags\":" << json_string(jit_flags)
      << ",\"openmp_available\":" << (openmp ? "true" : "false")
      << ",\"simd_available\":" << (simd ? "true" : "false")
      << ",\"fp64_peak_gflops_1core\":" << fp64_peak_gflops
      << ",\"peak_probe\":" << json_string(peak_kind) << "}";
  return out.str();
}

}  // namespace tunebench

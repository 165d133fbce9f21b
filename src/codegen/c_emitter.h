// C-source emission from lowered loop IR — the front half of the JIT
// backend (the analogue of TVM's C codegen target).
//
// emit_c_source() prints a te::Stmt as one standalone C translation unit
// that includes no header (c_prelude() declares what it uses), exporting
//
//   void <fn_name>(double** bufs);
//
// where bufs[i] is the storage of params[i] (row-major, float64, shapes
// baked in as constant strides). Realize regions become calloc'd scoped
// buffers, matching the interpreter's fresh-zero allocation semantics.
// Integer expressions (indices, conditions) are emitted as int64_t
// arithmetic with floor division/modulo helpers, value expressions as
// double arithmetic — both mirror te::Interpreter operation for operation,
// so a -ffp-contract=off build of the emitted source is bit-identical to
// the interpreter on the same buffers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "te/ir.h"

namespace tvmbo::codegen {

/// Emission knobs.
struct EmitOptions {
  /// When set, loops annotated kParallel get a
  /// `#pragma omp parallel for schedule(static)` above them. The pragma
  /// is only meaningful under -fopenmp; without it the compiler ignores
  /// the unknown pragma and the kernel runs serially — same float64 bits
  /// either way, since parallel chunks write disjoint elements. Off by
  /// default so serial emissions stay byte-identical to earlier releases
  /// (stable artifact-cache keys).
  bool parallel = false;
  /// Thread count for the pragma's num_threads() clause; 0 omits the
  /// clause (OpenMP runtime default, i.e. all cores).
  int num_threads = 0;
  /// When set, loops annotated kVectorized get `#pragma omp simd` with an
  /// aligned() clause over the in-scope buffers, and every parameter /
  /// realize pointer is declared restrict. Emission is gated on the same
  /// machine-checked race-freedom proof as the parallel pragma, so a simd
  /// lane can never be licensed across a loop-carried dependence; under
  /// -ffp-contract=off the vectorized loop is still bit-identical to the
  /// serial interpreter. Meaningful under -fopenmp or -fopenmp-simd;
  /// without either the pragma is ignored. Off by default so plain
  /// emissions stay byte-identical (stable artifact-cache keys).
  bool vectorize = false;
  /// When set, residual kUnrolled loops (those the jit pre-pass left
  /// intact because their extent exceeds te::kUnrollMaxExtent) get a
  /// `#pragma GCC unroll <unroll_factor>` hint. Unrolling only rewrites
  /// control flow, so no proof is needed and float64 bits are unchanged.
  bool unroll = false;
  /// Factor for the unroll pragma; values < 2 suppress it.
  int unroll_factor = 0;
};

/// The fixed text every emitted translation unit starts with: a comment
/// line, then declarations of exactly what generated code references
/// (int64_t, INT64_C, size_t, INFINITY, floor/fabs/sqrt/exp/log,
/// calloc/free/abort) in place of the standard headers.
std::string_view c_prelude();

/// Emits a C translation unit computing `stmt`. `params` lists every
/// externally bound tensor (placeholders and outputs) in bufs[] order;
/// tensors not listed must be enclosed in Realize regions. Throws
/// CheckError on free tensors or non-lowered expressions (Reduce markers).
std::string emit_c_source(const te::Stmt& stmt,
                          const std::vector<te::Tensor>& params,
                          const std::string& fn_name = "tvmbo_kernel",
                          const EmitOptions& options = {});

}  // namespace tvmbo::codegen

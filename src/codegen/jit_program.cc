#include "codegen/jit_program.h"

#include <mutex>
#include <unordered_map>

#include "codegen/c_emitter.h"
#include "common/logging.h"
#include "te/transform.h"

namespace tvmbo::codegen {

namespace {

constexpr const char* kKernelSymbol = "tvmbo_kernel";

/// Link flag for builds that need no OpenMP runtime. A kernel calls at
/// most calloc/free/abort from libc and floor/fabs/sqrt/exp/log from libm
/// (the command keeps -lm, so libm stays NEEDED); dlopen resolves the
/// libc ones from the process, which always has libc loaded. Skipping the
/// startup files and default libraries roughly halves the link step.
/// OpenMP builds keep the default link: clang drops its OpenMP runtime
/// under -nostdlib.
constexpr const char* kLeanLink = " -nostdlib";

/// One memoized probe per (extra flags, compiler, flags, cache dir):
/// compiles `source` with `extra_flags` through the shared cache, loads
/// it and checks that its tvmbo_kernel stores 64.0 in bufs[0][0]. Each
/// caller passes one fixed source with its own extra flags, so the key
/// need not cover the source. Sources come ready-made because compile()
/// consults these probes and so must not be called from one.
bool probe(const JitOptions& options, const std::string& source,
           const std::string& extra_flags, bool pin) {
  static std::mutex mutex;
  static std::unordered_map<std::string, bool>* probed =
      new std::unordered_map<std::string, bool>();
  const std::string key = extra_flags + "\x1f" +
                          options.resolved_compiler() + "\x1f" +
                          options.flags + "\x1f" +
                          options.resolved_cache_dir();
  std::lock_guard<std::mutex> lock(mutex);
  if (auto it = probed->find(key); it != probed->end()) return it->second;
  bool ok = false;
  try {
    const Artifact artifact = ArtifactCache::shared(options).get_or_compile(
        source, options.resolved_compiler(), options.flags + extra_flags);
    const std::shared_ptr<JitModule> module =
        JitModule::load(artifact.so_path, pin);
    const auto fn =
        reinterpret_cast<void (*)(double**)>(module->symbol(kKernelSymbol));
    double value = 0.0;
    double* buf = &value;
    fn(&buf);
    ok = value == 64.0;
  } catch (const std::exception&) {
    ok = false;
  }
  (*probed)[key] = ok;
  return ok;
}

}  // namespace

JitProgram JitProgram::compile(
    const te::Stmt& stmt,
    const std::vector<std::pair<te::Tensor, runtime::NDArray*>>& bindings,
    const JitOptions& options) {
  TVMBO_CHECK(stmt != nullptr) << "compile of null statement";

  std::vector<te::Tensor> params;
  std::vector<double*> args;
  params.reserve(bindings.size());
  args.reserve(bindings.size());
  for (const auto& [tensor, array] : bindings) {
    TVMBO_CHECK(tensor != nullptr && array != nullptr)
        << "null binding passed to JIT compile";
    TVMBO_CHECK(array->dtype() == runtime::DType::kFloat64)
        << "JIT programs support float64 buffers only";
    TVMBO_CHECK(tensor->shape == array->shape())
        << "shape mismatch binding tensor '" << tensor->name << "'";
    params.push_back(tensor);
    args.push_back(array->f64().data());
  }

  // Structural unroll pre-pass: kUnrolled loops within the shared
  // te::kUnrollMaxExtent limit are straight-lined before emission, exactly
  // like the interpreter-side pass pipeline would expand them — same
  // bodies in the same order, so float64 bits are unchanged. Larger
  // kUnrolled loops survive and pick up a `#pragma GCC unroll` hint below.
  // Un-annotated programs skip the pass entirely and emit byte-identical
  // source (stable cache keys).
  te::Stmt working = stmt;
  if (te::has_loop_kind(stmt, te::ForKind::kUnrolled)) {
    working = te::unroll_loops(stmt);
  }

  // Parallel builds: emit OpenMP pragmas on kParallel loops and add
  // -fopenmp when the toolchain supports it. The pragma goes in even
  // without -fopenmp (the compiler ignores it -> serial fallback), so the
  // source text alone already separates parallel from serial cache keys.
  // The same contract covers kVectorized (`#pragma omp simd` +
  // -fopenmp-simd; a full -fopenmp build subsumes the flag) and residual
  // kUnrolled loops (`#pragma GCC unroll`, no flag needed). Every build
  // but an OpenMP one links lean (kLeanLink).
  EmitOptions emit_options;
  std::string flags = options.flags;
  bool openmp = false;
  if (options.parallel_threads != 1 && te::has_parallel_loop(working)) {
    emit_options.parallel = true;
    emit_options.num_threads =
        options.parallel_threads > 0 ? options.parallel_threads : 0;
    openmp = openmp_available(options);
    if (openmp) flags += " -fopenmp";
  }
  if (te::has_loop_kind(working, te::ForKind::kVectorized)) {
    emit_options.vectorize = true;
    if (!openmp && simd_available(options)) flags += " -fopenmp-simd";
  }
  if (te::has_loop_kind(working, te::ForKind::kUnrolled)) {
    emit_options.unroll = true;
    emit_options.unroll_factor = options.unroll_factor;
  }
  if (!openmp) flags += kLeanLink;

  JitProgram program;
  program.source_ = std::make_shared<const std::string>(
      emit_c_source(working, params, kKernelSymbol, emit_options));
  const Artifact artifact = ArtifactCache::shared(options).get_or_compile(
      *program.source_, options.resolved_compiler(), flags);
  program.cache_hit_ = artifact.cache_hit;
  program.compile_s_ = artifact.compile_s;
  // OpenMP kernels stay pinned: unmapping them can tear the OpenMP
  // runtime out from under its parked worker threads (see JitModule::load).
  program.module_ = JitModule::load(artifact.so_path, /*pin=*/openmp);
  program.fn_ = reinterpret_cast<KernelFn>(
      program.module_->symbol(kKernelSymbol));
  program.args_ = std::move(args);
  return program;
}

void JitProgram::run() const {
  TVMBO_CHECK(fn_ != nullptr) << "run of empty JIT program";
  // The generated kernel only reads the pointer array; const_cast keeps
  // the emitted double** signature simple.
  fn_(const_cast<double**>(args_.data()));
}

bool JitProgram::toolchain_available(const JitOptions& options) {
  // The full emit -> cc -> dlopen -> dlsym pipeline on a trivial kernel,
  // linked as compile() links every serial build.
  static const std::string source = [] {
    const te::Tensor out = te::placeholder({1}, "probe");
    const te::Var i = te::make_var("i");
    return emit_c_source(
        te::make_for(i, 1, te::ForKind::kSerial,
                     te::make_store(out, {i}, te::make_float(64.0))),
        {out}, kKernelSymbol);
  }();
  return probe(options, source, kLeanLink, /*pin=*/false);
}

bool JitProgram::openmp_available(const JitOptions& options) {
  // A real OpenMP reduction verifies both -fopenmp acceptance and a
  // working runtime (libgomp/libomp), not just flag parsing.
  return probe(options,
               "void tvmbo_kernel(double** bufs) {\n"
               "  double acc = 0.0;\n"
               "  #pragma omp parallel for reduction(+:acc) schedule(static)\n"
               "  for (int i = 0; i < 64; ++i) acc += 1.0;\n"
               "  bufs[0][0] = acc;\n"
               "}\n",
               " -fopenmp", /*pin=*/true);
}

bool JitProgram::simd_available(const JitOptions& options) {
  // A `#pragma omp simd` reduction proves the flag is accepted and the
  // pragma does not miscompile.
  return probe(options,
               "void tvmbo_kernel(double** bufs) {\n"
               "  double acc = 0.0;\n"
               "  #pragma omp simd reduction(+:acc)\n"
               "  for (int i = 0; i < 64; ++i) acc += 1.0;\n"
               "  bufs[0][0] = acc;\n"
               "}\n",
               " -fopenmp-simd", /*pin=*/false);
}

}  // namespace tvmbo::codegen

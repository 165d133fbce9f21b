#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <regex>
#include <thread>
#include <vector>

#include "codegen/artifact_cache.h"
#include "codegen/c_emitter.h"
#include "codegen/jit_program.h"
#include "common/logging.h"
#include "common/rng.h"
#include "kernels/polybench.h"
#include "kernels/te_kernels.h"
#include "kernels/te_programs.h"
#include "te/interp.h"
#include "te/lower.h"
#include "te/transform.h"

namespace tvmbo::codegen {
namespace {

JitOptions test_options(const std::string& subdir) {
  JitOptions options;
  options.cache_dir = testing::TempDir() + "tvmbo-codegen-" + subdir;
  // Hit/miss assertions assume a cold cache; wipe leftovers from prior
  // test runs (the dir is stable across runs by construction).
  std::filesystem::remove_all(options.cache_dir);
  return options;
}

/// A kernel that references every name the prelude declares: a Realize
/// region (calloc/free/abort, size_t), floor division on values (floor),
/// fabs, sqrt, exp, log, an infinite constant (INFINITY) and int64_t
/// index arithmetic (INT64_C).
struct PreludeKernel {
  te::Tensor in = te::placeholder({4, 6}, "in");
  te::Tensor out = te::placeholder({4, 6}, "out");
  te::Stmt stmt;

  PreludeKernel() {
    const te::Tensor tmp = te::placeholder({6}, "tmp");
    const te::Var i = te::make_var("i");
    const te::Var j = te::make_var("j");
    const te::Var k = te::make_var("k");
    const te::Expr x = te::access(in, {i, j});
    const te::Expr value =
        te::sqrt_expr(te::abs_expr(x)) + te::exp_expr(x * te::make_float(0.25)) +
        te::log_expr(te::abs_expr(x) + te::make_float(1.5)) +
        te::floor_div(x, te::make_float(0.75)) +
        te::min_expr(x, te::make_float(std::numeric_limits<double>::infinity()));
    stmt = te::make_for(
        i, 4, te::ForKind::kSerial,
        te::make_realize(
            tmp,
            te::make_seq(
                {te::make_for(j, 6, te::ForKind::kSerial,
                              te::make_store(tmp, {j}, value)),
                 te::make_for(k, 6, te::ForKind::kSerial,
                              te::make_store(out, {i, k},
                                             te::access(tmp, {k})))})));
  }
};

/// The three headers the prelude replaced.
constexpr const char* kStandardHeaders =
    "/* generated by tvmbo::codegen (do not edit) */\n"
    "#include <math.h>\n"
    "#include <stdint.h>\n"
    "#include <stdlib.h>\n\n";

/// Compiles `source` to assembly with `flags` and returns it with the
/// .file/.ident lines dropped and local labels (.L<prefix><n>) renumbered
/// in order of first appearance, so only the instructions and data are
/// compared.
std::string normalized_assembly(const std::string& source,
                                const std::string& compiler,
                                const std::string& flags,
                                const std::string& stem) {
  const std::string c_path = stem + ".c";
  const std::string s_path = stem + ".s";
  std::ofstream(c_path) << source;
  const std::string command = compiler + " " + flags + " -S -o " + s_path +
                              " " + c_path + " > " + stem + ".log 2>&1";
  if (std::system(command.c_str()) != 0) return "compile failed: " + stem;
  static const std::regex label(R"(\.L([A-Za-z_]*)([0-9]+))");
  std::map<std::string, std::size_t> renumbered;
  std::ifstream in(s_path);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("\t.file", 0) == 0 || line.rfind("\t.ident", 0) == 0) {
      continue;
    }
    std::string rewritten;
    std::size_t last = 0;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), label);
         it != std::sregex_iterator(); ++it) {
      const auto [pos, inserted] =
          renumbered.emplace(it->str(), renumbered.size());
      rewritten += line.substr(last, it->position() - last);
      rewritten += ".L" + (*it)[1].str() + "#" + std::to_string(pos->second);
      last = it->position() + it->length();
    }
    out += rewritten + line.substr(last) + "\n";
  }
  return out;
}

TEST(Fnv1a, DeterministicAndSensitive) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("ab"));
}

TEST(CEmitter, EmitsKernelSignatureAndHelpers) {
  const te::Tensor out = te::placeholder({4}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt stmt = te::make_for(
      i, 4, te::ForKind::kSerial, te::make_store(out, {i}, te::make_float(2.5)));
  const std::string source = emit_c_source(stmt, {out});
  EXPECT_NE(source.find("void tvmbo_kernel(double** bufs)"),
            std::string::npos);
  EXPECT_NE(source.find("bufs[0]"), std::string::npos);
  EXPECT_NE(source.find("tvmbo_fdiv"), std::string::npos);
  // Float constants are emitted as hexfloat so the value round-trips
  // bit-exactly through the C compiler.
  EXPECT_NE(source.find("0x1.4p+1"), std::string::npos);
  EXPECT_NE(source.find("for (int64_t"), std::string::npos);
}

TEST(CEmitter, PreludeReplacesTheStandardHeaders) {
  const PreludeKernel kernel;
  const std::string source = emit_c_source(kernel.stmt, {kernel.in, kernel.out});
  EXPECT_EQ(source.rfind(c_prelude(), 0), 0u);
  EXPECT_EQ(source.find("#include"), std::string::npos);
  for (const char* name : {"calloc(", "free(", "abort()", "sqrt(", "fabs(",
                           "exp(", "log(", "floor(", "INFINITY"}) {
    EXPECT_NE(source.find(name, c_prelude().size()), std::string::npos)
        << name << " is not exercised by the prelude kernel";
  }
}

/// The prelude must not move a single instruction: every kernel, with
/// every schedule knob on, assembles identically with the prelude and
/// with the standard headers it replaced.
TEST(CEmitter, PreludeAssemblesIdenticallyToStandardHeaders) {
  const JitOptions options = test_options("prelude-asm");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  std::string flags = options.flags;
  if (JitProgram::openmp_available(options)) {
    flags += " -fopenmp";
  } else if (JitProgram::simd_available(options)) {
    flags += " -fopenmp-simd";
  }
  EmitOptions emit;
  emit.parallel = true;
  emit.num_threads = 2;
  emit.vectorize = true;
  emit.unroll = true;
  emit.unroll_factor = 4;

  std::vector<std::pair<std::string, std::string>> sources;
  const PreludeKernel prelude_kernel;
  sources.emplace_back("prelude", emit_c_source(prelude_kernel.stmt,
                                                {prelude_kernel.in,
                                                 prelude_kernel.out}));
  kernels::ScheduleKnobs knobs;
  knobs.enabled = true;
  knobs.max_threads = 2;
  knobs.vectorize = true;
  knobs.unroll = true;
  knobs.pack = true;
  for (const char* kernel : {"3mm", "gemm", "2mm", "syrk", "lu", "cholesky"}) {
    const std::vector<std::int64_t> dims =
        kernels::polybench_dims(kernel, kernels::Dataset::kMini);
    const auto space = kernels::build_space(kernel, dims, knobs);
    const std::size_t base = kernels::te_num_tiles(kernel);
    // The first sampled configuration with every knob on.
    Rng rng(17);
    std::vector<std::int64_t> tiles = space.values_int(space.sample(rng));
    for (int draw = 0; draw < 500; ++draw) {
      const bool all_on = tiles[base] != 0 && tiles[base + 2] != 0 &&
                          tiles[base + 3] != 0 && tiles[base + 4] != 0;
      if (all_on) break;
      tiles = space.values_int(space.sample(rng));
    }
    const kernels::TeLoweredProgram lowered =
        kernels::lower_te_program(kernel, dims, tiles);
    te::Stmt stmt = lowered.stmt;
    if (te::has_loop_kind(stmt, te::ForKind::kUnrolled)) {
      stmt = te::unroll_loops(stmt);
    }
    sources.emplace_back(kernel,
                         emit_c_source(stmt, lowered.params, "tvmbo_kernel",
                                       emit));
  }

  const std::string stem = options.cache_dir + "/";
  std::filesystem::create_directories(options.cache_dir);
  for (const auto& [name, source] : sources) {
    ASSERT_EQ(source.rfind(c_prelude(), 0), 0u) << name;
    const std::string with_headers =
        kStandardHeaders + source.substr(c_prelude().size());
    const std::string lean = normalized_assembly(
        source, options.resolved_compiler(), flags, stem + name + "-prelude");
    const std::string standard =
        normalized_assembly(with_headers, options.resolved_compiler(), flags,
                            stem + name + "-headers");
    EXPECT_GT(lean.size(), 200u) << name << ": " << lean;
    EXPECT_EQ(lean, standard) << name << " assembles differently";
  }
}

TEST(CEmitter, RealizeRegionsAllocateAndFree) {
  // A scheduled 3mm has two Realize intermediates (E and F).
  kernels::ThreeMmTensors t = kernels::make_3mm(4, 5, 6, 7, 8);
  const std::int64_t tiles[6] = {2, 2, 2, 2, 2, 2};
  const te::Stmt stmt = te::lower(kernels::schedule_3mm(t, tiles));
  const std::string source =
      emit_c_source(stmt, {t.A, t.B, t.C, t.D, t.G});
  EXPECT_NE(source.find("calloc"), std::string::npos);
  EXPECT_NE(source.find("free("), std::string::npos);
  EXPECT_NE(source.find("/* realize E */"), std::string::npos);
  EXPECT_NE(source.find("/* realize F */"), std::string::npos);
}

TEST(CEmitter, SimdPragmaOnlyOnProvenVectorizedLoops) {
  // A provably race-free kVectorized loop gets `#pragma omp simd` with an
  // aligned() clause, and the buffer pointers turn restrict — but only
  // when vectorize emission is requested; the default emission stays
  // byte-identical to earlier releases (stable cache keys).
  const te::Tensor out = te::placeholder({8}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt proven = te::make_for(
      i, 8, te::ForKind::kVectorized,
      te::make_store(out, {i}, te::make_float(1.0)));
  EmitOptions vec;
  vec.vectorize = true;
  const std::string vec_source =
      emit_c_source(proven, {out}, "tvmbo_kernel", vec);
  EXPECT_NE(vec_source.find("#pragma omp simd aligned("), std::string::npos)
      << vec_source;
  EXPECT_NE(vec_source.find("restrict"), std::string::npos);

  const std::string plain = emit_c_source(proven, {out});
  EXPECT_EQ(plain.find("#pragma"), std::string::npos);
  EXPECT_EQ(plain.find("restrict"), std::string::npos);

  // An unproven kVectorized loop (every lane accumulates into the same
  // element) must NOT get the pragma even with vectorize on: emission is
  // keyed on the dependence prover's certificate, not the annotation.
  const te::Tensor acc = te::placeholder({1}, "acc");
  const te::Var k = te::make_var("k");
  const te::Stmt racy = te::make_for(
      k, 8, te::ForKind::kVectorized,
      te::make_store(acc, {te::make_int(0)},
                     te::access(acc, {te::make_int(0)}) +
                         te::make_float(1.0)));
  const std::string racy_source =
      emit_c_source(racy, {acc}, "tvmbo_kernel", vec);
  EXPECT_EQ(racy_source.find("#pragma omp simd"), std::string::npos)
      << racy_source;
}

TEST(CEmitter, UnrollPragmaRequiresFactor) {
  // Residual kUnrolled loops (extent beyond the pre-pass straight-lining
  // limit) get a GCC unroll hint only when a factor >= 2 is supplied.
  const te::Tensor out = te::placeholder({100}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt stmt = te::make_for(
      i, 100, te::ForKind::kUnrolled,
      te::make_store(out, {i}, te::make_float(1.0)));
  EmitOptions hinted;
  hinted.unroll = true;
  hinted.unroll_factor = 4;
  EXPECT_NE(emit_c_source(stmt, {out}, "tvmbo_kernel", hinted)
                .find("#pragma GCC unroll 4"),
            std::string::npos);
  hinted.unroll_factor = 0;
  EXPECT_EQ(emit_c_source(stmt, {out}, "tvmbo_kernel", hinted)
                .find("#pragma"),
            std::string::npos);
  EXPECT_EQ(emit_c_source(stmt, {out}).find("#pragma"), std::string::npos);
}

TEST(CEmitter, RejectsUnboundTensor) {
  const te::Tensor out = te::placeholder({4}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt stmt = te::make_for(
      i, 4, te::ForKind::kSerial, te::make_store(out, {i}, te::make_float(0.0)));
  EXPECT_THROW(emit_c_source(stmt, {}), CheckError);
}

TEST(JitProgram, CompilesRunsAndMatchesInterpreter) {
  const JitOptions options = test_options("basic");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const te::Stmt stmt =
      te::lower(kernels::schedule_gemm(t, 3, 4));

  runtime::NDArray a({6, 5}), b({5, 7}), c_jit({6, 7}), c_ref({6, 7});
  for (std::int64_t i = 0; i < a.num_elements(); ++i) {
    a.f64()[i] = 0.25 * static_cast<double>(i % 11) - 1.0;
  }
  for (std::int64_t i = 0; i < b.num_elements(); ++i) {
    b.f64()[i] = 0.5 * static_cast<double>(i % 7) - 1.5;
  }

  JitProgram program = JitProgram::compile(
      stmt, {{t.A, &a}, {t.B, &b}, {t.C, &c_jit}}, options);
  program.run();

  te::Interpreter interp;
  interp.bind(t.A, &a);
  interp.bind(t.B, &b);
  interp.bind(t.C, &c_ref);
  interp.run(stmt);

  for (std::int64_t i = 0; i < c_ref.num_elements(); ++i) {
    EXPECT_EQ(c_jit.f64()[i], c_ref.f64()[i]) << "element " << i;
  }
  EXPECT_FALSE(program.source().empty());
  EXPECT_FALSE(program.artifact_path().empty());
}

/// Serial builds link with -nostdlib: calloc/free/abort must resolve
/// from the process's libc and sqrt/exp/log/floor from libm at an
/// RTLD_NOW dlopen, with results bit-identical to the interpreter.
TEST(JitProgram, LeanLinkedKernelCallsLibcAndLibm) {
  const JitOptions options = test_options("lean-link");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  const PreludeKernel kernel;
  runtime::NDArray in({4, 6}), out_jit({4, 6}), out_ref({4, 6});
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.f64()[i] = 0.37 * static_cast<double>(i % 9) - 1.3;
  }
  JitProgram program = JitProgram::compile(
      kernel.stmt, {{kernel.in, &in}, {kernel.out, &out_jit}}, options);
  program.run();
  te::Interpreter interp;
  interp.bind(kernel.in, &in);
  interp.bind(kernel.out, &out_ref);
  interp.run(kernel.stmt);
  for (std::int64_t i = 0; i < out_ref.num_elements(); ++i) {
    EXPECT_EQ(out_jit.f64()[i], out_ref.f64()[i]) << "element " << i;
  }
  // The artifact is the one keyed by the lean-link flags.
  const Artifact lean = ArtifactCache::shared(options).get_or_compile(
      program.source(), options.resolved_compiler(),
      options.flags + " -nostdlib");
  EXPECT_TRUE(lean.cache_hit);
  EXPECT_EQ(lean.so_path, program.artifact_path());
}

/// OpenMP builds keep the default link, so the runtime is there and a
/// parallel region really runs on several threads.
TEST(JitProgram, OpenMpBuildRunsOnSeveralThreads) {
  const JitOptions base = test_options("openmp-link");
  if (!JitProgram::toolchain_available(base) ||
      !JitProgram::openmp_available(base)) {
    GTEST_SKIP() << "no OpenMP toolchain";
  }
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const te::Stmt stmt =
      te::lower(kernels::schedule_gemm(t, 3, 4, /*par_axis=*/1));
  runtime::NDArray a({6, 5}), b({5, 7}), c({6, 7});
  JitOptions options = base;
  options.parallel_threads = 4;
  JitProgram program =
      JitProgram::compile(stmt, {{t.A, &a}, {t.B, &b}, {t.C, &c}}, options);
  ArtifactCache& cache = ArtifactCache::shared(options);
  const Artifact openmp = cache.get_or_compile(
      program.source(), options.resolved_compiler(),
      options.flags + " -fopenmp");
  EXPECT_TRUE(openmp.cache_hit) << "OpenMP builds must not link lean";
  EXPECT_EQ(openmp.so_path, program.artifact_path());

  // Same flags, a region that marks which threads ran it.
  const Artifact marker = cache.get_or_compile(
      "int omp_get_thread_num(void);\n"
      "void tvmbo_kernel(double** bufs) {\n"
      "  #pragma omp parallel num_threads(4)\n"
      "  bufs[0][omp_get_thread_num()] = 1.0;\n"
      "}\n",
      options.resolved_compiler(), options.flags + " -fopenmp");
  const std::shared_ptr<JitModule> module =
      JitModule::load(marker.so_path, /*pin=*/true);
  const auto fn =
      reinterpret_cast<void (*)(double**)>(module->symbol("tvmbo_kernel"));
  double seen[4] = {0.0, 0.0, 0.0, 0.0};
  double* buf = seen;
  fn(&buf);
  EXPECT_GT(seen[0] + seen[1] + seen[2] + seen[3], 1.0);
}

TEST(JitProgram, ValidatesBindings) {
  const te::Tensor out = te::placeholder({4}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt stmt = te::make_for(
      i, 4, te::ForKind::kSerial, te::make_store(out, {i}, te::make_float(0.0)));
  runtime::NDArray wrong_shape({5});
  EXPECT_THROW(
      JitProgram::compile(stmt, {{out, &wrong_shape}}, test_options("val")),
      CheckError);
}

TEST(ArtifactCache, SecondCompileIsACacheHit) {
  const JitOptions options = test_options("hits");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  const te::Tensor out = te::placeholder({3}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt stmt = te::make_for(
      i, 3, te::ForKind::kSerial, te::make_store(out, {i}, te::make_float(7.0)));
  runtime::NDArray buffer({3});

  ArtifactCache& cache = ArtifactCache::shared(options);
  cache.reset_stats();

  JitProgram first = JitProgram::compile(stmt, {{out, &buffer}}, options);
  JitProgram second = JitProgram::compile(stmt, {{out, &buffer}}, options);
  EXPECT_TRUE(second.cache_hit());
  EXPECT_EQ(second.compile_s(), 0.0);
  EXPECT_EQ(first.artifact_path(), second.artifact_path());

  const CacheStats stats = cache.stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.failures, 0u);
  // Different flags -> different key, even for identical source.
  JitOptions debug = options;
  debug.flags = "-O0 -shared -fPIC -ffp-contract=off -std=c11";
  JitProgram third = JitProgram::compile(stmt, {{out, &buffer}}, debug);
  EXPECT_FALSE(third.cache_hit());
  EXPECT_NE(third.artifact_path(), first.artifact_path());
}

TEST(ArtifactCache, ParallelFlagsProduceDistinctKeysAndWarmHits) {
  JitOptions base = test_options("parallel-keys");
  if (!JitProgram::toolchain_available(base)) {
    GTEST_SKIP() << "no C toolchain";
  }
  // One parallel-annotated schedule, three thread budgets. The pragma
  // text (and num_threads clause) lands in the emitted source and the
  // -fopenmp flag in the compile command, so each budget must get its own
  // content-addressed artifact.
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const te::Stmt stmt =
      te::lower(kernels::schedule_gemm(t, 3, 4, /*par_axis=*/1));
  runtime::NDArray a({6, 5}), b({5, 7}), c({6, 7});
  const std::vector<std::pair<te::Tensor, runtime::NDArray*>> bindings = {
      {t.A, &a}, {t.B, &b}, {t.C, &c}};

  const int budgets[] = {1, 2, 4};
  std::vector<std::string> paths;
  // Cold pass: compile every variant (the OpenMP probe fires lazily on
  // the first parallel compile and costs one cache miss of its own, so it
  // must happen before the stats reset below).
  for (int threads : budgets) {
    JitOptions options = base;
    options.parallel_threads = threads;
    paths.push_back(
        JitProgram::compile(stmt, bindings, options).artifact_path());
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_NE(paths[i], paths[j])
          << "budgets " << budgets[i] << " and " << budgets[j];
    }
  }

  // Warm pass: identical configs must be pure cache hits.
  ArtifactCache& cache = ArtifactCache::shared(base);
  cache.reset_stats();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    JitOptions options = base;
    options.parallel_threads = budgets[i];
    JitProgram warm = JitProgram::compile(stmt, bindings, options);
    EXPECT_TRUE(warm.cache_hit()) << "budget " << budgets[i];
    EXPECT_EQ(warm.artifact_path(), paths[i]);
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.hit_rate(), 1.0);
}

TEST(ArtifactCache, SimdUnrollPackProduceDistinctKeysAndWarmHits) {
  JitOptions base = test_options("vecpack-keys");
  if (!JitProgram::toolchain_available(base)) {
    GTEST_SKIP() << "no C toolchain";
  }
  // The widened-tier knobs must each land in the content-addressed key:
  // the simd pragma text (plus -fopenmp-simd when supported), the
  // straight-lined unroll bodies, and the pack scratch nest all change
  // the emitted source, so no two variants may collide — and a second
  // pass over the same variants must be 100% cache hits.
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const te::Stmt serial = te::lower(kernels::schedule_gemm(t, 3, 4));
  const te::Stmt vec = te::lower(
      kernels::schedule_gemm(t, 3, 4, /*par_axis=*/0, /*vec_axis=*/1));
  const te::Stmt unrolled = te::lower(kernels::schedule_gemm(
      t, 3, 4, /*par_axis=*/0, /*vec_axis=*/0, /*unroll=*/2));
  const te::Stmt packed = te::lower(kernels::schedule_gemm(
      t, 3, 4, /*par_axis=*/0, /*vec_axis=*/0, /*unroll=*/0, /*pack=*/true));
  runtime::NDArray a({6, 5}), b({5, 7}), c({6, 7});
  const std::vector<std::pair<te::Tensor, runtime::NDArray*>> bindings = {
      {t.A, &a}, {t.B, &b}, {t.C, &c}};
  // A residual kUnrolled loop (extent beyond the straight-lining limit):
  // only the `#pragma GCC unroll <N>` hint separates the variants, so the
  // pragma text alone must split the key.
  const te::Tensor big = te::placeholder({100}, "big");
  const te::Var i = te::make_var("i");
  const te::Stmt residual = te::make_for(
      i, 100, te::ForKind::kUnrolled,
      te::make_store(big, {i}, te::make_float(1.0)));
  runtime::NDArray big_buf({100});
  const std::vector<std::pair<te::Tensor, runtime::NDArray*>>
      residual_bindings = {{big, &big_buf}};

  JitOptions hint2 = base, hint4 = base;
  hint2.unroll_factor = 2;
  hint4.unroll_factor = 4;

  // Cold pass (the simd probe fires lazily on the first vectorized
  // compile and costs a miss of its own, so it must precede the reset).
  std::vector<std::string> paths;
  paths.push_back(JitProgram::compile(serial, bindings, base)
                      .artifact_path());
  JitProgram vec_program = JitProgram::compile(vec, bindings, base);
  paths.push_back(vec_program.artifact_path());
  paths.push_back(JitProgram::compile(unrolled, bindings, base)
                      .artifact_path());
  JitProgram pack_program = JitProgram::compile(packed, bindings, base);
  paths.push_back(pack_program.artifact_path());
  paths.push_back(JitProgram::compile(residual, residual_bindings, hint2)
                      .artifact_path());
  paths.push_back(JitProgram::compile(residual, residual_bindings, hint4)
                      .artifact_path());
  for (std::size_t x = 0; x < paths.size(); ++x) {
    for (std::size_t y = x + 1; y < paths.size(); ++y) {
      EXPECT_NE(paths[x], paths[y]) << "variants " << x << " and " << y;
    }
  }
  // The knob effects are visible in the emitted text itself.
  if (JitProgram::simd_available(base)) {
    EXPECT_NE(vec_program.source().find("#pragma omp simd aligned("),
              std::string::npos);
  }
  EXPECT_NE(pack_program.source().find("C_A_pack"), std::string::npos)
      << pack_program.source();

  // Warm pass: identical variants must be pure cache hits.
  ArtifactCache& cache = ArtifactCache::shared(base);
  cache.reset_stats();
  EXPECT_TRUE(JitProgram::compile(serial, bindings, base).cache_hit());
  EXPECT_TRUE(JitProgram::compile(vec, bindings, base).cache_hit());
  EXPECT_TRUE(JitProgram::compile(unrolled, bindings, base).cache_hit());
  EXPECT_TRUE(JitProgram::compile(packed, bindings, base).cache_hit());
  EXPECT_TRUE(
      JitProgram::compile(residual, residual_bindings, hint2).cache_hit());
  EXPECT_TRUE(
      JitProgram::compile(residual, residual_bindings, hint4).cache_hit());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.hit_rate(), 1.0);
}

TEST(ArtifactCache, CompileFailureReportsLog) {
  const JitOptions options = test_options("fail");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  ArtifactCache& cache = ArtifactCache::shared(options);
  cache.reset_stats();
  try {
    cache.get_or_compile("this is not C\n", options.resolved_compiler(),
                         options.flags);
    ADD_FAILURE() << "a broken source compiled";
  } catch (const CheckError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("JIT compile failed (exit "), std::string::npos)
        << message;
    // The tail of the compiler's log names the offending source line.
    EXPECT_NE(message.find("this is not C", message.find('\n')),
              std::string::npos)
        << message;
  }
  EXPECT_EQ(cache.stats().failures, 1u);
  EXPECT_EQ(cache.in_flight(), 0u);
  // A compiler that cannot be started fails the same way.
  try {
    cache.get_or_compile("void f(void) {}\n", "tvmbo-no-such-compiler",
                         options.flags);
    ADD_FAILURE() << "a missing compiler compiled";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("cannot start"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(cache.stats().failures, 2u);
}

/// The compiler is spawned without a shell, so a cache directory whose
/// path holds a space, a double quote and a dollar sign works as is.
TEST(ArtifactCache, PathWithShellMetacharactersCompilesAndHits) {
  const JitOptions options = test_options("quote \" $HOME dir");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  ArtifactCache& cache = ArtifactCache::shared(options);
  cache.reset_stats();
  const std::size_t probes = cache.artifacts();
  const std::string source =
      "void tvmbo_kernel(double** bufs) { bufs[0][0] = 64.0; }\n";
  const Artifact first = cache.get_or_compile(
      source, options.resolved_compiler(), options.flags);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(std::filesystem::path(first.so_path).parent_path(),
            std::filesystem::path(options.cache_dir));
  const Artifact second = cache.get_or_compile(
      source, options.resolved_compiler(), options.flags);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.so_path, first.so_path);
  EXPECT_EQ(cache.artifacts(), probes + 1);
  const std::shared_ptr<JitModule> module =
      JitModule::load(second.so_path, /*pin=*/false);
  const auto fn =
      reinterpret_cast<void (*)(double**)>(module->symbol("tvmbo_kernel"));
  double value = 0.0;
  double* buf = &value;
  fn(&buf);
  EXPECT_EQ(value, 64.0);
}

/// Per-key mutexes live only while a request for the key is in progress:
/// after many distinct concurrent compiles none is left, and two racing
/// requests for one key still compile it once.
TEST(ArtifactCache, InFlightEntriesAreErasedAfterUse) {
  const JitOptions options = test_options("in-flight");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  ArtifactCache& cache = ArtifactCache::shared(options);
  cache.reset_stats();
  constexpr int kDistinct = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kDistinct; ++i) {
    // Two requests per source, so each key is raced.
    for (int copy = 0; copy < 2; ++copy) {
      threads.emplace_back([&, i] {
        try {
          cache.get_or_compile("void tvmbo_kernel(double** bufs) { "
                               "bufs[0][0] = " +
                                   std::to_string(i) + ".0; }\n",
                               options.resolved_compiler(), options.flags);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.in_flight(), 0u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::size_t>(kDistinct));
  EXPECT_EQ(stats.hits, static_cast<std::size_t>(kDistinct));
}

TEST(ArtifactCache, ConcurrentIdenticalRequestsCompileOnce) {
  const JitOptions options = test_options("threads");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  ArtifactCache& cache = ArtifactCache::shared(options);
  cache.reset_stats();
  const std::string source =
      "void tvmbo_kernel(double** bufs) { bufs[0][0] = 42.0; }\n";

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::vector<std::string> paths(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      try {
        paths[i] = cache
                       .get_or_compile(source, options.resolved_compiler(),
                                       options.flags)
                       .so_path;
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(paths[i], paths[0]);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups(), static_cast<std::size_t>(kThreads));
  // The per-key mutex serializes identical requests: exactly one miss.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::size_t>(kThreads - 1));
  EXPECT_EQ(cache.in_flight(), 0u);
}

}  // namespace
}  // namespace tvmbo::codegen

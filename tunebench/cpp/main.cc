// tunebench: the end-to-end tuning benchmark.
//
//   tunebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run sets a workload up at least three times (setup_s is the median),
// then repeats fixed-budget tuning sessions of that workload until the next
// one would overrun --seconds. It runs the self-tests, checks every
// session's outputs, and prints the metrics as the last line of stdout:
//   --trace 0  end-to-end metrics of the untraced sessions;
//   --trace 1  per-layer metrics of traced sessions, which alternate with
//              untraced ones so the tracing overhead is measured too.
// Wall times come from the benchmark's own steady clock, never from
// SessionResult::total_time_s (a modeled clock on the batch path).
//
// The tuner's seed is part of each workload's definition (kTunerSeed), as
// in fixed-seed tuner comparisons; --seed generates the problem's inputs:
// the matrices on the CPU workloads, the simulated device's per-config
// noise field on the simulator. A tuner seed drawn from --seed would change
// which configurations a run visits, and with them its work, by more than
// any bound a later change could be held to.
//
// Workloads (why each one is here):
//   search-sim-3mm  ytopt's strict sequential loop on the simulated A100,
//                   3mm extralarge: compile and run are modeled, so the wall
//                   time is the tuner's ask (forest refit + LCB acquisition).
//                   The trajectory is a pure function of the seed.
//   cold-jit-lu     ytopt's strict sequential loop on the host CPU with the
//                   JIT tier, static pre-screen on and an empty artifact
//                   cache: analysis, lowering and `cc` on the critical path
//                   (the cache's write path).
//   warm-jit-cholesky  the AutoTVM random strategy, whose proposals do not
//                   depend on measured runtimes, with the vectorize, unroll
//                   and pack knobs, each batch measured three at a time:
//                   set-up replays the fixed-seed session into a fresh
//                   cache, so every timed prepare hits (the cache's read
//                   path) and kernel execution dominates. Not in
//                   BENCHMARK.json: its throughput follows the shared host's
//                   speed by more than the bound allows (NOTES.md).
//   fleet-jit-lu    ytopt streaming (async + parallel) with two trials in
//                   flight in out-of-process workers (distd::ProcDevice):
//                   the concurrent twin of cold-jit-lu, so a distd or async
//                   gain shows here and not there.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/proof_cache.h"
#include "codegen/artifact_cache.h"
#include "codegen/c_emitter.h"
#include "common/rng.h"
#include "distd/proc_device.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "kernels/reference.h"
#include "kernels/te_programs.h"
#include "machine.h"
#include "probes.h"
#include "runtime/cpu_device.h"
#include "runtime/swing_sim.h"
#include "runtime/trace_log.h"
#include "selftest.h"
#include "surrogate/dataset.h"
#include "surrogate/random_forest.h"
#include "trace.h"
#include "ytopt/bayes_opt.h"

namespace fs = std::filesystem;
namespace fw = tvmbo::framework;
namespace rt = tvmbo::runtime;
namespace kn = tvmbo::kernels;
using tvmbo::codegen::ArtifactCache;
using tvmbo::codegen::CacheStats;
using tvmbo::codegen::JitOptions;

namespace tunebench {
namespace {

enum class DeviceKind { kSim, kCpu, kProc };

struct WorkloadSpec {
  std::string name;
  std::string kernel;
  kn::Dataset dataset;
  DeviceKind device;
  fw::StrategyKind strategy;
  std::size_t evals;
  std::string predicted;  ///< span expected to dominate self time
  bool prescreen = false;
  /// Measurements in flight; 0 measures one at a time.
  std::size_t slots = 0;
  /// Completion-driven streaming (SessionOptions::async) instead of waves.
  bool stream = false;
  kn::ScheduleKnobs knobs = {};
  /// Set-up replays the session into the fresh cache, so the timed
  /// sessions, which all share that set-up, only read it.
  bool warm = false;
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "search-sim-3mm",
       .kernel = "3mm",
       .dataset = kn::Dataset::kExtraLarge,
       .device = DeviceKind::kSim,
       .strategy = fw::StrategyKind::kYtopt,
       .evals = 200,
       .predicted = "ask"},
      {.name = "cold-jit-lu",
       .kernel = "lu",
       .dataset = kn::Dataset::kSmall,
       .device = DeviceKind::kCpu,
       .strategy = fw::StrategyKind::kYtopt,
       .evals = 40,
       .predicted = "cc",
       .prescreen = true},
      {.name = "warm-jit-cholesky",
       .kernel = "cholesky",
       .dataset = kn::Dataset::kSmall,
       .device = DeviceKind::kCpu,
       .strategy = fw::StrategyKind::kAutotvmRandom,
       .evals = 48,
       .predicted = "run",
       // Three measurement threads: one thread's speed moved between runs
       // by more than the bound allows, three by less, though not by
       // little enough when the host is busy (NOTES.md).
       .slots = 3,
       .knobs = {.vectorize = true, .unroll = true, .pack = true},
       .warm = true},
      {.name = "fleet-jit-lu",
       .kernel = "lu",
       .dataset = kn::Dataset::kSmall,
       .device = DeviceKind::kProc,
       .strategy = fw::StrategyKind::kYtopt,
       .evals = 60,
       .predicted = "roundtrip",
       .prescreen = true,
       // Two workers, not three: three plus the tuning loop kept all four
       // vCPUs busy, and the run's speed then followed the host's load
       // (NOTES.md).
       .slots = 2,
       .stream = true},
  };
  return specs;
}

// Set-ups before the first session: at least kSetups, and more while they
// fit in kSetupWindowS (up to kMaxSetups), so that a set-up of microseconds
// is the median of many samples and one of seconds (the warm pre-fill) of
// three. Every later session of a cold workload gets a set-up of its own;
// setup_s is the median of them all.
constexpr std::size_t kSetups = 3;
constexpr std::size_t kMaxSetups = 50;
constexpr double kSetupWindowS = 0.25;
// Re-timing the chosen configuration: at least kRetimeRuns runs, and as
// many more as fit in kRetimeWindowS.
constexpr int kRetimeRuns = 9;
constexpr double kRetimeWindowS = 0.25;
constexpr std::uint64_t kTunerSeed = 2023;
constexpr std::size_t kDirectSessions = 3;  ///< sessions probed by direct calls

// --- set-up -----------------------------------------------------------------

struct Setup {
  tvmbo::autotvm::Task task;
  JitOptions jit;
  std::shared_ptr<kn::TeKernelData> data;  ///< CPU workloads' matrix
  rt::SwingSimParams sim;                  ///< simulator workloads
};

/// A seeded stand-in for PolyBench's fixed LU / Cholesky initialization: a
/// symmetric matrix of uniform [0, 1) entries with a dominant diagonal, so
/// it is positive definite and LU without pivoting is stable.
void fill_input(kn::TeKernelData& data, std::uint64_t seed) {
  rt::NDArray& a = data.inputs.at(0);
  const std::int64_t n = a.shape().at(0);
  tvmbo::Rng rng(seed);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < i; ++j) {
      const double v = rng.uniform();
      a.set2(i, j, v);
      a.set2(j, i, v);
    }
    a.set2(i, i, static_cast<double>(n) + 1.0);
  }
}

fw::SessionOptions session_options(const WorkloadSpec& spec) {
  fw::SessionOptions options;
  options.max_evaluations = spec.evals;
  options.seed = kTunerSeed;
  // Only the modeled clock reads this; wall time is measured here.
  options.charge_strategy_overhead = false;
  options.measure.prescreen = spec.prescreen;
  options.async = spec.stream;
  options.measure.parallel = spec.slots > 0;
  options.measure.max_concurrency = spec.slots;
  return options;
}

/// Task, space and data construction. `cache_dir` must not exist yet.
Setup make_setup(const WorkloadSpec& spec, const std::string& cache_dir,
                 std::uint64_t seed) {
  Setup setup;
  setup.jit.cache_dir = cache_dir;
  if (spec.device == DeviceKind::kSim) {
    setup.task = kn::make_task(spec.kernel, spec.dataset, false);
    setup.sim.surface_seed = tvmbo::hash_combine(setup.sim.surface_seed, seed);
    return setup;
  }
  setup.task = kn::make_task(spec.kernel, spec.dataset, rt::ExecBackend::kJit,
                             setup.jit, spec.knobs);
  // Same measure inputs as make_task's own, over the seeded matrices. The
  // out-of-process fleet's workers rebuild theirs with PolyBench's fixed
  // initialization (only workload + tiles cross the process boundary).
  setup.data = kn::make_te_kernel_data(spec.kernel, setup.task.workload.dims);
  fill_input(*setup.data, seed);
  setup.task.instantiate = [workload = setup.task.workload, data = setup.data,
                            jit = setup.jit](
                               const std::vector<std::int64_t>& tiles) {
    return kn::make_te_measure_input(data, workload, tiles,
                                     rt::ExecBackend::kJit, jit);
  };
  return setup;
}

// --- one session --------------------------------------------------------------

struct SessionOutcome {
  bool traced = false;
  double start = 0.0;
  double wall_s = 0.0;
  fw::SessionResult result;
  std::vector<Completion> completions;
  std::vector<Span> spans;
  std::vector<double> ask_end;  ///< per trial, traced sessions only
  CacheStats cache_delta;
  tvmbo::analysis::AnalysisCacheStats proof_before;
  tvmbo::analysis::AnalysisCacheStats proof_after;
  bool cache_was_empty = true;
  std::size_t artifacts = 0;
  std::size_t respawns = 0;
  double spawn_s = 0.0;
  std::string cache_dir;
};

std::size_t count_artifacts(const std::string& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".so") ++n;
  }
  return n;
}

bool dir_empty(const std::string& dir) {
  std::error_code ec;
  return !fs::exists(dir, ec) || fs::is_empty(dir, ec);
}

SessionOutcome run_session(const WorkloadSpec& spec, const Setup& setup,
                           bool traced) {
  SessionOutcome out;
  out.traced = traced;
  out.cache_dir = setup.jit.cache_dir;
  const fw::SessionOptions options = session_options(spec);
  SpanLog log;
  SessionProbe probe(traced ? &log : nullptr);

  rt::SwingSimDevice sim(setup.sim, kTunerSeed);
  rt::CpuDevice cpu;
  std::ostringstream fleet_events;
  std::unique_ptr<rt::TraceLog> fleet_log;
  std::unique_ptr<tvmbo::distd::ProcDevice> proc;
  rt::Device* inner = &cpu;
  if (spec.device == DeviceKind::kSim) {
    inner = &sim;
  } else if (spec.device == DeviceKind::kProc) {
    fleet_log = std::make_unique<rt::TraceLog>(&fleet_events);
    tvmbo::distd::ProcDeviceOptions proc_options;
    proc_options.backend = rt::ExecBackend::kJit;
    proc_options.jit = setup.jit;
    proc_options.seed = kTunerSeed;
    proc_options.pool.num_workers = spec.slots;
    proc_options.pool.transport = "tcp";  // loopback: no socket file to place
    proc_options.pool.trace = fleet_log.get();
    const double t = now_s();
    proc = std::make_unique<tvmbo::distd::ProcDevice>(std::move(proc_options));
    out.spawn_s = now_s() - t;
    inner = proc.get();
  }
  TracedDevice device(inner, &probe,
                      spec.device == DeviceKind::kProc ? "roundtrip"
                                                       : "measure");
  ArtifactCache* cache = spec.device == DeviceKind::kSim
                             ? nullptr
                             : &ArtifactCache::shared(setup.jit);
  if (cache != nullptr) out.cache_was_empty = dir_empty(setup.jit.cache_dir);
  if (cache != nullptr && !spec.warm) {
    // A cold session starts from empty caches: the proof cache is
    // process-global and would otherwise remember earlier sessions.
    tvmbo::analysis::ProofCache::global().clear();
  }
  const CacheStats cache_before = cache != nullptr ? cache->stats()
                                                   : CacheStats{};
  out.proof_before = tvmbo::analysis::ProofCache::global().stats();

  if (!traced) {
    fw::AutotuningSession session(&setup.task, &device, options);
    out.start = now_s();
    out.result = session.run(spec.strategy);
    out.wall_s = now_s() - out.start;
  } else {
    // The in-process cache's compile_s splits cc out of each prepare only
    // while prepares run one at a time.
    const tvmbo::autotvm::Task task = traced_task(
        setup.task, &probe,
        spec.device == DeviceKind::kCpu && spec.slots == 0 ? cache : nullptr);
    fw::AutotuningSession session(&task, &device, options);
    fw::StrategyFactoryOptions factory;
    factory.bo = options.bo;
    factory.xgb_paper_eval_cap = options.xgb_paper_eval_cap;
    TracedTuner tuner(fw::make_strategy_tuner(spec.strategy,
                                              &task.config.space(),
                                              kTunerSeed, factory),
                      &task.config.space(), &probe);
    const int root = log.open_root("session");
    out.start = now_s();
    out.result =
        session.run_strategy(tuner, run_traits(spec.strategy, options));
    out.wall_s = now_s() - out.start;
    log.end(root);
    out.spans = log.spans();
    for (int t = 0;; ++t) {
      const double end = probe.ask_end(t);
      if (end < 0.0) break;
      out.ask_end.push_back(end);
    }
  }
  proc.reset();  // joins the fleet before its event log is read
  out.completions = probe.completions();
  std::sort(out.completions.begin(), out.completions.end(),
            [](const Completion& a, const Completion& b) {
              return a.end < b.end;
            });
  out.proof_after = tvmbo::analysis::ProofCache::global().stats();
  if (cache != nullptr) {
    const CacheStats after = cache->stats();
    out.cache_delta.hits = after.hits - cache_before.hits;
    out.cache_delta.misses = after.misses - cache_before.misses;
    out.cache_delta.failures = after.failures - cache_before.failures;
    out.cache_delta.compile_s = after.compile_s - cache_before.compile_s;
    out.artifacts = count_artifacts(setup.jit.cache_dir);
  }
  const std::string events = fleet_events.str();
  for (std::size_t at = events.find("worker_respawn");
       at != std::string::npos; at = events.find("worker_respawn", at + 1)) {
    ++out.respawns;
  }
  return out;
}

std::vector<double> trial_gaps_ms(const SessionOutcome& s) {
  std::vector<double> gaps;
  double prev = s.start;
  for (const Completion& c : s.completions) {
    gaps.push_back((c.end - prev) * 1e3);
    prev = c.end;
  }
  return gaps;
}

double time_to_best_s(const SessionOutcome& s) {
  if (!s.result.best.has_value()) return 0.0;
  for (const Completion& c : s.completions) {
    if (c.tiles == s.result.best->tiles) return c.end - s.start;
  }
  return 0.0;
}

/// Evaluations over tuning wall time, pooled across sessions.
double trials_per_s(const std::vector<const SessionOutcome*>& sessions) {
  double evaluations = 0.0;
  double wall_s = 0.0;
  for (const SessionOutcome* s : sessions) {
    evaluations += static_cast<double>(s->result.evaluations);
    wall_s += s->wall_s;
  }
  return wall_s > 0.0 ? evaluations / wall_s : 0.0;
}

std::size_t invalid_trials(const SessionOutcome& s) {
  std::size_t n = 0;
  for (const rt::TrialRecord& r : s.result.db.records()) n += r.valid ? 0 : 1;
  return n;
}

// --- correctness and re-timing of the chosen configuration --------------------

struct BestCheck {
  bool ok = false;
  double runtime_s = 0.0;  ///< fastest of the re-timing runs
  std::string detail;
};

/// Compares the best configuration's output with the independent loops of
/// kernels/reference (ref_lu and lu_residual, or ref_cholesky and
/// cholesky_residual over the lower triangle, which is all a Cholesky
/// factor defines), then re-times it outside any timed window.
BestCheck check_best(const WorkloadSpec& spec,
                     const std::shared_ptr<kn::TeKernelData>& data,
                     const std::vector<std::int64_t>& tiles,
                     const JitOptions& jit) {
  BestCheck out;
  const rt::NDArray got =
      kn::run_te_backend(data, tiles, rt::ExecBackend::kJit, jit);
  const rt::NDArray& original = data->inputs.at(0);
  rt::NDArray want = original;
  const bool lu = spec.kernel == "lu";
  double residual = 0.0;
  if (lu) {
    kn::ref_lu(want);
    residual = kn::lu_residual(got, original);
  } else {
    kn::ref_cholesky(want);
    residual = kn::cholesky_residual(got, original);
  }
  const std::int64_t n = want.shape().at(0);
  double max_diff = 0.0;
  double max_ref = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < (lu ? n : i + 1); ++j) {
      const double diff = std::fabs(got.at2(i, j) - want.at2(i, j));
      max_diff = std::max(max_diff, diff);
      max_ref = std::max(max_ref, std::fabs(want.at2(i, j)));
    }
  }
  out.ok = max_diff <= 1e-9 * std::max(1.0, max_ref) &&
           residual <= 1e-9 * std::max(1.0, max_ref);
  char buf[160];
  std::snprintf(buf, sizeof buf, "max|out-ref| %.3g, residual %.3g", max_diff,
                residual);
  out.detail = buf;

  rt::MeasureInput input = kn::make_te_measure_input(
      data, kn::make_workload(spec.kernel, spec.dataset), tiles,
      rt::ExecBackend::kJit, jit);
  input.prepare();
  input.run();  // warm-up
  // The minimum: on a shared host, other tenants only ever add time to a
  // run, and a median moved with them by a quarter between runs.
  double best = 0.0;
  const double start = now_s();
  for (int i = 0; i < kRetimeRuns || now_s() - start < kRetimeWindowS; ++i) {
    const double t = now_s();
    input.run();
    const double elapsed = now_s() - t;
    best = i == 0 ? elapsed : std::min(best, elapsed);
  }
  out.runtime_s = best;
  return out;
}

// --- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

/// Peak RSS so far. Read after the first session: later sessions only add
/// the benchmark's own records of them, whose number follows the host's
/// speed.
double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- per-layer metrics from the traced sessions --------------------------------

struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  std::vector<const SessionOutcome*> traced;
  std::vector<const SessionOutcome*> untraced;
  double best_runtime_s = 0.0;  ///< measured (CPU) or modeled (sim)
  double fp64_peak_gflops = 0.0;
  std::uint64_t seed = 0;
};

/// Spans of several sessions in one list, parent indices rebased.
std::vector<Span> concat_spans(
    const std::vector<const SessionOutcome*>& sessions) {
  std::vector<Span> all;
  for (const SessionOutcome* s : sessions) {
    const int offset = static_cast<int>(all.size());
    for (Span span : s->spans) {
      if (span.parent >= 0) span.parent += offset;
      all.push_back(std::move(span));
    }
  }
  return all;
}

std::vector<double> durations_ms(const SessionOutcome& s,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& span : s.spans) {
    if (span.name == name) out.push_back(span.duration() * 1e3);
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

double median_of_range(const std::vector<double>& v, std::size_t lo,
                       std::size_t hi) {
  lo = std::min(lo, v.size());
  hi = std::min(hi, v.size());
  return median(std::vector<double>(v.begin() + static_cast<long>(lo),
                                    v.begin() + static_cast<long>(hi)));
}

/// Direct surrogate fits on a session's encoded observations with the
/// forest options ytopt uses: {first min(60, n), all n} -> median ms of
/// three fits each.
std::pair<double, double> direct_fit_ms(const tvmbo::autotvm::Task& task,
                                        const fw::SessionResult& result,
                                        std::uint64_t seed) {
  const tvmbo::cs::ConfigurationSpace& space = task.config.space();
  tvmbo::surrogate::FeatureEncoder encoder(&space);
  double worst = 0.0;
  for (const rt::TrialRecord& r : result.db.records()) {
    if (r.valid && r.runtime_s > 0.0) worst = std::max(worst, r.runtime_s);
  }
  tvmbo::surrogate::Dataset all;
  for (const rt::TrialRecord& r : result.db.records()) {
    std::vector<double> values(r.tiles.begin(), r.tiles.end());
    const double y = r.valid && r.runtime_s > 0.0 ? r.runtime_s : worst * 2.0;
    all.add(encoder.encode(space.from_values(values)), std::log(y));
  }
  auto fit_ms = [&](std::size_t n) {
    tvmbo::surrogate::Dataset data;
    for (std::size_t i = 0; i < n && i < all.size(); ++i) {
      data.add(all.x[i], all.y[i]);
    }
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
      tvmbo::surrogate::RandomForest forest(
          tvmbo::ytopt::BoOptions{}.forest);
      tvmbo::Rng rng(seed + static_cast<std::uint64_t>(rep));
      const double t = now_s();
      forest.fit(data, rng);
      times.push_back((now_s() - t) * 1e3);
    }
    return median(times);
  };
  if (all.size() < 2) return {0.0, 0.0};
  return {fit_ms(std::min<std::size_t>(60, all.size())), fit_ms(all.size())};
}

std::vector<Metric> layer_metrics(const LayerInputs& in,
                                  const Setup& setup) {
  const WorkloadSpec& spec = *in.spec;
  const bool cpu = spec.device != DeviceKind::kSim;
  const bool fleet = spec.device == DeviceKind::kProc;
  const int repeat =
      run_traits(spec.strategy, session_options(spec)).repeat;
  std::vector<double> ask, tell, measure, roundtrip, prepare, prepare_nocc,
      cc, run, screen, instantiate, framework_self, queue_wait, kernel,
      distd_overhead, ask_n60, ask_nmax;
  double wall = 0.0;
  double cc_s = 0.0;  // compiler seconds in this process, all threads
  double spawn_ms = 0.0;
  std::size_t rejects = 0, failed = 0, respawns = 0;
  std::vector<double> hits, misses, artifacts;  // per traced session
  tvmbo::analysis::AnalysisCacheStats proof;
  for (const SessionOutcome* s : in.traced) {
    wall += s->wall_s;
    const std::vector<double> asks = durations_ms(*s, "ask");
    ask.insert(ask.end(), asks.begin(), asks.end());
    ask_n60.push_back(median_of_range(asks, 50, 70));
    ask_nmax.push_back(
        median_of_range(asks, asks.size() > 20 ? asks.size() - 20 : 0,
                        asks.size()));
    const std::pair<const char*, std::vector<double>*> named[] = {
        {"tell", &tell},   {"measure", &measure},
        {"roundtrip", &roundtrip}, {"run", &run},
        {"static_check", &screen}, {"instantiate", &instantiate},
        {"prepare", &prepare}, {"cc", &cc}};
    for (const auto& [name, dst] : named) {
      const std::vector<double> d = durations_ms(*s, name);
      dst->insert(dst->end(), d.begin(), d.end());
    }
    // A prepare's self time is what it spends outside its cc child.
    const std::vector<double> self = self_times(s->spans);
    for (std::size_t i = 0; i < s->spans.size(); ++i) {
      if (s->spans[i].name == "prepare") prepare_nocc.push_back(self[i] * 1e3);
    }
    cc_s += s->cache_delta.compile_s;
    // Per trial: the completion gap minus what the root's direct
    // children (ask, tell, measure, ...) cover of it.
    std::vector<std::pair<double, double>> children;
    for (const Span& span : s->spans) {
      if (span.parent == 0) children.emplace_back(span.start, span.end);
    }
    double prev = s->start;
    for (const Completion& c : s->completions) {
      framework_self.push_back(
          (c.end - prev - covered(children, prev, c.end)) * 1e3);
      prev = c.end;
      if (c.trial >= 0 &&
          static_cast<std::size_t>(c.trial) < s->ask_end.size()) {
        queue_wait.push_back(
            (c.start - s->ask_end[static_cast<std::size_t>(c.trial)]) * 1e3);
      }
      if (cpu && c.result.valid) kernel.push_back(c.result.runtime_s * 1e3);
      if (fleet) {
        // The worker times its own prepare as compile_s.
        prepare.push_back(c.result.compile_s * 1e3);
        distd_overhead.push_back(
            (c.end - c.start - c.result.compile_s -
             c.result.runtime_s * repeat) *
            1e3);
      }
    }
    rejects += s->result.analysis_rejects;
    failed += invalid_trials(*s);
    proof.loop_queries += s->proof_after.loop_queries -
                          s->proof_before.loop_queries;
    proof.loop_hits += s->proof_after.loop_hits - s->proof_before.loop_hits;
    proof.prover_runs +=
        s->proof_after.prover_runs - s->proof_before.prover_runs;
    proof.verify_queries +=
        s->proof_after.verify_queries - s->proof_before.verify_queries;
    proof.verify_hits +=
        s->proof_after.verify_hits - s->proof_before.verify_hits;
    if (fleet) {
      // Workers compile, so this process's cache counters stay at zero;
      // every artifact in the fresh directory is one worker-side miss.
      const std::size_t dispatched =
          s->result.evaluations - s->result.analysis_rejects;
      misses.push_back(static_cast<double>(s->artifacts));
      hits.push_back(static_cast<double>(
          dispatched - std::min(s->artifacts, dispatched)));
    } else {
      hits.push_back(static_cast<double>(s->cache_delta.hits));
      misses.push_back(static_cast<double>(s->cache_delta.misses));
    }
    artifacts.push_back(static_cast<double>(s->artifacts));
    respawns += s->respawns;
    spawn_ms += s->spawn_s * 1e3;
  }
  const double n_traced = static_cast<double>(std::max<std::size_t>(
      1, in.traced.size()));

  // Lowering, emission and refit, called directly after the timed loop on
  // the configurations the first traced sessions visited.
  std::vector<double> lower_ms, emit_ms, fit_n60, fit_nmax;
  const bool ytopt = spec.strategy == fw::StrategyKind::kYtopt;
  for (std::size_t k = 0; k < in.traced.size() && k < kDirectSessions; ++k) {
    const SessionOutcome* s = in.traced[k];
    if (ytopt) {
      const auto [n60, nmax] = direct_fit_ms(setup.task, s->result, in.seed);
      fit_n60.push_back(n60);
      fit_nmax.push_back(nmax);
    }
    if (!cpu) continue;
    const auto& records = s->result.db.records();
    for (std::size_t i = 0; i < records.size() && i < 20; ++i) {
      double t = now_s();
      const kn::TeLoweredProgram lowered = kn::lower_te_program(
          spec.kernel, setup.task.workload.dims, records[i].tiles);
      lower_ms.push_back((now_s() - t) * 1e3);
      t = now_s();
      [[maybe_unused]] const std::string source =
          tvmbo::codegen::emit_c_source(lowered.stmt, lowered.params);
      emit_ms.push_back((now_s() - t) * 1e3);
    }
  }

  const double untraced_tps = trials_per_s(in.untraced);
  const double traced_tps = trials_per_s(in.traced);

  std::vector<LayerSummary> layers = summarize(concat_spans(in.traced), wall);
  layers.erase(std::remove_if(layers.begin(), layers.end(),
                              [](const LayerSummary& l) {
                                return l.name == "session";
                              }),
               layers.end());
  const bool met = !layers.empty() && layers.front().name == spec.predicted;

  const double flops = setup.task.workload.flops;
  const double n = static_cast<double>(setup.task.workload.dims.at(0));
  const double best_gflops =
      cpu && in.best_runtime_s > 0.0 ? flops / in.best_runtime_s * 1e-9 : 0.0;
  const double bytes = 2.0 * 8.0 * n * n;  // matrix read + written once
  const double lookups = sum(hits) + sum(misses);
  const double hit_rate = lookups > 0 ? sum(hits) / lookups : 0.0;
  auto rate = [](std::size_t a, std::size_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };

  return {
      {"ytopt.ask_ms.p50", median(ask), "ms"},
      {"ytopt.ask_ms.tail", tail(ask).value, "ms"},
      {"ytopt.ask_ms.n60", median(ask_n60), "ms"},
      {"ytopt.ask_ms.nmax", median(ask_nmax), "ms"},
      {"ytopt.tell_ms.p50", median(tell), "ms"},
      {"ytopt.ask_busy_frac", wall > 0 ? sum(ask) * 1e-3 / wall : 0.0,
       "ratio"},
      {"surrogate.fit_ms.n60", median(fit_n60), "ms"},
      {"surrogate.fit_ms.nmax", median(fit_nmax), "ms"},
      {"ytopt.acquire_ms.nmax",
       ytopt ? median(ask_nmax) - median(fit_nmax) : 0.0, "ms"},
      {"framework.self_ms.p50", median(framework_self), "ms"},
      {"analysis.screen_ms.p50", median(screen), "ms"},
      {"analysis.rejects", static_cast<double>(rejects), "count"},
      {"analysis.verify_hit_rate",
       rate(proof.verify_hits, proof.verify_queries), "ratio"},
      {"analysis.loop_hit_rate", rate(proof.loop_hits, proof.loop_queries),
       "ratio"},
      {"analysis.prover_runs", static_cast<double>(proof.prover_runs),
       "count"},
      {"te.lower_ms.p50", median(lower_ms), "ms"},
      {"kernels.instantiate_ms.p50", median(instantiate), "ms"},
      {"codegen.prepare_ms.p50", median(prepare), "ms"},
      {"codegen.prepare_ms.tail", tail(prepare).value, "ms"},
      {"codegen.cc_ms.p50", median(cc), "ms"},
      {"codegen.cc_busy_frac", wall > 0 ? cc_s / wall : 0.0, "ratio"},
      {"codegen.prepare_nocc_ms.p50", median(prepare_nocc), "ms"},
      {"codegen.emit_ms.p50", median(emit_ms), "ms"},
      {"codegen.cache_hits", median(hits), "count"},
      {"codegen.cache_misses", median(misses), "count"},
      {"codegen.cache_hit_rate", hit_rate, "ratio"},
      {"codegen.artifacts", median(artifacts), "count"},
      {"runtime.measure_ms.p50", median(measure), "ms"},
      {"runtime.measure_ms.tail", tail(measure).value, "ms"},
      {"runtime.kernel_ms.p50", median(kernel), "ms"},
      {"runtime.kernel_busy_frac", wall > 0 ? sum(run) * 1e-3 / wall : 0.0,
       "ratio"},
      {"runtime.queue_wait_ms.p50", median(queue_wait), "ms"},
      {"runtime.failed", static_cast<double>(failed), "count"},
      {"kernels.best_gflops", best_gflops, "GFLOP/s"},
      {"kernels.flop_per_byte", cpu ? flops / bytes : 0.0, "flop/byte"},
      {"kernels.peak_frac",
       in.fp64_peak_gflops > 0 ? best_gflops / in.fp64_peak_gflops : 0.0,
       "ratio"},
      {"distd.roundtrip_ms.p50", median(roundtrip), "ms"},
      {"distd.roundtrip_ms.tail", tail(roundtrip).value, "ms"},
      {"distd.overhead_ms.p50", median(distd_overhead), "ms"},
      {"distd.worker_busy_frac",
       fleet && wall > 0
           ? sum(roundtrip) * 1e-3 / (wall * static_cast<double>(spec.slots))
           : 0.0,
       "ratio"},
      {"distd.respawns", static_cast<double>(respawns), "count"},
      {"distd.spawn_ms", spawn_ms / n_traced, "ms"},
      {"trace.overhead_frac",
       untraced_tps > 0 ? 1.0 - traced_tps / untraced_tps : 0.0, "ratio"},
      {"trace.prediction_met", met ? 1.0 : 0.0, "bool"},
  };
}

void print_layer_table(const WorkloadSpec& spec,
                       const std::vector<const SessionOutcome*>& traced) {
  const std::vector<Span> all = concat_spans(traced);
  double wall = 0.0;
  for (const SessionOutcome* s : traced) wall += s->wall_s;
  std::printf("span summary (%zu traced session(s), %.3f s wall):\n",
              traced.size(), wall);
  std::printf("  %-14s %7s %10s %10s %12s %8s\n", "span", "count",
              "self_s", "p50_ms", "tail_ms", "share");
  const std::vector<LayerSummary> layers = summarize(all, wall);
  for (const LayerSummary& l : layers) {
    std::printf("  %-14s %7zu %10.4f %10.4f %8.4f p%-2d %7.1f%%\n",
                l.name.c_str(), l.count, l.self_s, l.p50_ms,
                l.tail_ms.value, l.tail_ms.pct, 100.0 * l.share);
  }
  for (const LayerSummary& l : layers) {
    if (l.name == "session") continue;
    std::printf("dominant span: %s (%.1f%% of wall), predicted %s: %s\n",
                l.name.c_str(), 100.0 * l.share, spec.predicted.c_str(),
                l.name == spec.predicted ? "met" : "NOT MET");
    break;
  }
}

// --- the run ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_root = ".bench_build";
};

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
        if (value != "0" && value != "1") return std::nullopt;
      } else if (flag == "--work-root") {
        args.work_root = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return args;
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == args.workload) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const fs::path work = fs::absolute(args.work_root) / "work" /
                        (spec->name + "-" + std::to_string(::getpid()));
  fs::remove_all(work);
  fs::create_directories(work);
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{work};

  bool correct = true;
  auto gate = [&](bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::printf("GATE FAILED: %s\n", what.c_str());
    }
  };

  JitOptions probe_jit;
  probe_jit.cache_dir = (work / "probe").string();
  const MachineRecord machine = probe_machine(probe_jit);
  std::printf("machine: %s\n", machine.to_json().c_str());
  std::string selftest_report;
  gate(run_selftests(&selftest_report), "self-tests: " + selftest_report);

  // Set-ups; the last one is kept.
  std::vector<double> setup_s;
  int dirs = 0;
  auto next_dir = [&] {
    return (work / ("cache-" + std::to_string(dirs++))).string();
  };
  std::optional<Setup> setup;
  auto set_up = [&] {
    const std::string dir = next_dir();
    const double t = now_s();
    Setup s = make_setup(*spec, dir, args.seed);
    if (spec->warm) {
      // The cache pre-fill: the same fixed-seed session, outside the timed
      // sessions but inside setup_s.
      rt::CpuDevice cpu;
      fw::AutotuningSession(&s.task, &cpu, session_options(*spec))
          .run(spec->strategy);
    }
    setup_s.push_back(now_s() - t);
    setup = std::move(s);
  };
  const double setup_start = now_s();
  while (setup_s.size() < kSetups ||
         (setup_s.size() < kMaxSetups &&
          now_s() - setup_start < kSetupWindowS)) {
    set_up();
  }

  // Timed sessions until the next one would overrun --seconds. A traced
  // run alternates untraced and traced sessions and stops after a pair.
  std::vector<SessionOutcome> sessions;
  double rss_mb = 0.0;
  const double loop_start = now_s();
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    if (i > 0 && !spec->warm) set_up();
    sessions.push_back(run_session(*spec, *setup, traced));
    if (i == 0) rss_mb = peak_rss_mb();
    const double elapsed = now_s() - loop_start;
    const double per_session = elapsed / static_cast<double>(i + 1);
    const bool pair_done = !args.trace || i % 2 == 1;
    const int ahead = args.trace ? 2 : 1;
    if (pair_done && elapsed + ahead * per_session > args.seconds) break;
  }

  std::vector<const SessionOutcome*> untraced, traced;
  std::size_t attempted = 0, failed = 0;
  for (const SessionOutcome& s : sessions) {
    (s.traced ? traced : untraced).push_back(&s);
    attempted += s.result.evaluations;
    failed += invalid_trials(s);
    gate(s.result.evaluations == spec->evals,
         "session ran " + std::to_string(s.result.evaluations) + " of " +
             std::to_string(spec->evals) + " evaluations");
    gate(s.result.best.has_value(), "session found no valid configuration");
    if (spec->warm) {
      gate(s.cache_delta.misses == 0,
           std::to_string(s.cache_delta.misses) +
               " cache miss(es) in a session over the pre-filled cache");
    } else {
      gate(s.cache_was_empty, "session started from a non-empty cache");
    }
  }
  if (spec->device == DeviceKind::kSim) {
    // Fixed seed: every session — untraced through the plain
    // AutotuningSession::run, traced through all three decorators — must
    // produce the byte-identical trajectory.
    const std::string first = trajectory(sessions.front().result);
    for (const SessionOutcome& s : sessions) {
      gate(trajectory(s.result) == first,
           std::string(s.traced ? "traced" : "untraced") +
               " trajectory differs from the first session's");
    }
  }
  if (spec->warm) {
    // The random strategy's proposals do not depend on measured runtimes,
    // so every session, traced or not, visits the pre-filled
    // configurations in the same order.
    auto visited = [](const SessionOutcome& s) {
      std::vector<std::vector<std::int64_t>> tiles;
      for (const rt::TrialRecord& r : s.result.db.records()) {
        tiles.push_back(r.tiles);
      }
      return tiles;
    };
    for (const SessionOutcome& s : sessions) {
      gate(visited(s) == visited(sessions.front()),
           std::string(s.traced ? "traced" : "untraced") +
               " session's configurations differ from the first session's");
    }
  }
  if (!correct) {
    std::printf("%s\n", result_json(false, attempted, failed, {}).c_str());
    return 1;
  }

  // Correctness of, and the measured runtime of, each chosen config.
  std::vector<double> best_runtimes;
  if (spec->device == DeviceKind::kSim) {
    for (const SessionOutcome* s : untraced) {
      best_runtimes.push_back(s->result.best->runtime_s);
    }
  } else {
    // Each distinct chosen configuration is checked and re-timed once.
    std::map<std::vector<std::int64_t>, double> retimed;
    for (const SessionOutcome* s : untraced) {
      const std::vector<std::int64_t>& best = s->result.best->tiles;
      if (!retimed.contains(best)) {
        JitOptions jit = setup->jit;
        jit.cache_dir = s->cache_dir;
        const BestCheck check = check_best(*spec, setup->data, best, jit);
        std::string tiles;
        for (std::int64_t t : best) {
          tiles += (tiles.empty() ? "" : ",") + std::to_string(t);
        }
        std::printf("best config [%s]: measured %.6f s, re-timed %.6f s, "
                    "%s\n",
                    tiles.c_str(), s->result.best->runtime_s,
                    check.runtime_s, check.detail.c_str());
        gate(check.ok, "best configuration's output differs from the "
                       "reference: " + check.detail);
        retimed[best] = check.runtime_s;
      }
      best_runtimes.push_back(retimed[best]);
    }
  }
  const double best_runtime_s = median(best_runtimes);

  std::vector<double> ttb, gaps;
  for (const SessionOutcome* s : untraced) {
    ttb.push_back(time_to_best_s(*s));
    const std::vector<double> g = trial_gaps_ms(*s);
    gaps.insert(gaps.end(), g.begin(), g.end());
  }
  const Tail gap_tail = tail(gaps);
  std::printf("workload %s: seed %llu, %zu untraced + %zu traced session(s) "
              "of %zu evaluations\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              untraced.size(), traced.size(), spec->evals);
  std::printf("trial_tail_ms is p%d: %zu of %zu gaps beyond it\n",
              gap_tail.pct, gap_tail.beyond, gap_tail.n);

  // The end-to-end metrics. The outcome metrics go out with the per-layer
  // ones: which configuration a run picks, and when, moves with measurement
  // noise and the seed by more than the largest bound the end-to-end
  // metrics may have, and fail_frac reads 0 on these workloads.
  const std::vector<Metric> end_to_end = {
      {"trials_per_s", trials_per_s(untraced), "1/s"},
      {"trial_p50_ms", median(gaps), "ms"},
      {"trial_tail_ms", gap_tail.value, "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  const std::vector<Metric> outcome = {
      {"best_runtime_s", best_runtime_s, "s"},
      {"time_to_best_s", median(ttb), "s"},
      {"fail_frac",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
  };
  std::printf("end-to-end:\n");
  for (const Metric& m : end_to_end) {
    std::printf("  %-30s %14s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : outcome) {
    std::printf("  %-30s %14s %s (reported per layer)\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end;
  } else {
    LayerInputs in;
    in.spec = spec;
    in.traced = traced;
    in.untraced = untraced;
    in.best_runtime_s = best_runtime_s;
    in.fp64_peak_gflops = machine.fp64_peak_gflops;
    in.seed = args.seed;
    metrics = outcome;
    const std::vector<Metric> layers = layer_metrics(in, *setup);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    print_layer_table(*spec, traced);
    for (const Metric& m : metrics) {
      if (m.name == "trace.overhead_frac") {
        std::printf("tracing overhead: %.2f%% of untraced trials_per_s\n",
                    100.0 * m.value);
      }
    }
    const fs::path trace_dir = fs::absolute(args.work_root) / "traces";
    fs::create_directories(trace_dir);
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const fs::path path =
          trace_dir / (spec->name + "-seed" + std::to_string(args.seed) +
                       "-" + std::to_string(i) + ".jsonl");
      if (!write_spans_jsonl(traced[i]->spans, path.string())) {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
      }
    }
  }
  if (args.trace) {
    std::printf("per layer:\n");
    for (const Metric& m : metrics) {
      std::printf("  %-30s %14s %s\n", m.name.c_str(),
                  number(m.value).c_str(), m.unit.c_str());
    }
  }
  std::printf("%s\n",
              result_json(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tunebench

int main(int argc, char** argv) {
  const std::optional<tunebench::Args> args = tunebench::parse(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: tunebench --workload W --seed N --seconds S "
                 "--trace 0|1 [--work-root DIR]\n");
    return 2;
  }
  try {
    return tunebench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tunebench: %s\n", e.what());
    return 1;
  }
}

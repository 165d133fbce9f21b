#include "selftest.h"

#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "framework/session.h"
#include "kernels/polybench.h"
#include "probes.h"
#include "runtime/cpu_device.h"
#include "runtime/swing_sim.h"
#include "trace.h"

namespace tunebench {

namespace {

namespace fw = tvmbo::framework;
namespace rt = tvmbo::runtime;

struct Checker {
  std::ostringstream failures;
  bool ok = true;
  void expect(bool condition, const std::string& what) {
    if (!condition) {
      ok = false;
      failures << "FAIL " << what << "\n";
    }
  }
  void near(double got, double want, const std::string& what) {
    expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
           what + " (got " + std::to_string(got) + ", want " +
               std::to_string(want) + ")");
  }
};

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void check_tail_rule(Checker& c) {
  c.near(percentile({1, 2, 3, 4}, 50), 2.5, "p50 interpolates");
  c.near(percentile({}, 50), 0.0, "empty percentile");
  // 100 samples: p99 and p95 have 1 and 5 beyond them, p90 has 10.
  Tail t = tail(iota(100));
  c.expect(t.pct == 90 && t.beyond == 10, "100 samples -> p90");
  c.near(t.value, 90.1, "p90 of 1..100");
  // 1000 samples: p99 already has 10 beyond it.
  t = tail(iota(1000));
  c.expect(t.pct == 99 && t.beyond == 10, "1000 samples -> p99");
  // 20 samples: nothing qualifies; p75 is reported with its real count.
  t = tail(iota(20));
  c.expect(t.pct == 75 && t.beyond == 5 && t.n == 20,
           "20 samples -> p75 with 5 beyond");
}

void check_self_time(Checker& c) {
  c.near(covered({{1, 3}, {2, 5}, {7, 8}}, 0, 10), 5.0, "overlapping union");
  c.near(covered({{9, 12}, {-1, 0.5}}, 0, 10), 1.5, "clipped union");
  const std::vector<Span> spans = {
      {"root", 0, 10, -1, -1}, {"a", 1, 3, 0, 0},  {"b", 2, 5, 0, 1},
      {"c", 7, 8, 0, 2},       {"d", 9, 12, 0, 3}, {"e", 2.5, 4, 2, 1},
  };
  const std::vector<double> self = self_times(spans);
  c.near(self[0], 4.0, "root self = 10 - (4 + 1 + 1)");
  c.near(self[2], 1.5, "b self = 3 - 1.5 (nested child)");
  c.near(self[5], 1.5, "leaf self = duration");
  const std::vector<LayerSummary> layers = summarize(spans, 10.0);
  c.expect(layers.front().name == "root", "summary sorted by self time");
  c.near(layers.front().share, 0.4, "root share of wall");

  SpanLog log;
  const int root = log.open_root("session");
  const int outer = log.begin("outer", 0);
  const int inner = log.begin("inner", 0);
  log.end(inner);
  log.end(outer);
  const int after = log.begin("after", 1);
  log.end(after);
  // A span added with an explicit parent (the cc span of a prepare).
  const int prepare = log.begin("prepare", 2);
  log.end(prepare);
  const Span whole = log.spans()[static_cast<std::size_t>(prepare)];
  log.add("cc", whole.start, whole.end, prepare, 2);
  log.end(root);
  const std::vector<Span> recorded = log.spans();
  c.near(self_times(recorded)[static_cast<std::size_t>(prepare)], 0.0,
         "an added child counts against its parent's self time");
  c.expect(recorded[static_cast<std::size_t>(inner)].parent == outer,
           "nested span's parent is the enclosing span");
  c.expect(recorded[static_cast<std::size_t>(outer)].parent == root &&
               recorded[static_cast<std::size_t>(after)].parent == root,
           "top-level spans default to the root");
}

void check_task_forwarding(Checker& c) {
  tvmbo::autotvm::Task task;
  task.workload = tvmbo::kernels::make_workload("lu", tvmbo::kernels::Dataset::kMini);
  task.config.define_knob("t", {1, 2, 4});
  auto counts = std::make_shared<std::vector<int>>(3, 0);
  task.instantiate = [counts, w = task.workload](
                         const std::vector<std::int64_t>& tiles) {
    rt::MeasureInput input;
    input.workload = w;
    input.tiles = tiles;
    input.prepare = [counts] { ++(*counts)[0]; };
    input.run = [counts] { ++(*counts)[1]; };
    input.static_check = [counts] {
      ++(*counts)[2];
      return std::string("rule: message");
    };
    return input;
  };
  SpanLog log;
  log.open_root("session");
  SessionProbe probe(&log);
  const tvmbo::autotvm::Task traced = traced_task(task, &probe);
  const tvmbo::cs::Configuration config =
      task.config.space().from_values({2.0});
  rt::MeasureInput input = traced.measure_input(config);
  input.prepare();
  input.run();
  const std::string verdict = input.static_check();
  c.expect(input.tiles == std::vector<std::int64_t>{2},
           "traced instantiate forwards the tiles");
  c.expect(*counts == std::vector<int>{1, 1, 1},
           "each traced closure calls through exactly once");
  c.expect(verdict == "rule: message", "static_check verdict forwarded");
  c.expect(log.spans().size() == 5, "instantiate/prepare/run/check spans");

  tvmbo::autotvm::Task sim_task = tvmbo::kernels::make_task(
      "lu", tvmbo::kernels::Dataset::kMini, false);
  c.expect(!traced_task(sim_task, &probe).instantiate,
           "a task without instantiate stays without one");
}

void check_device_forwarding(Checker& c) {
  SessionProbe probe(nullptr);
  rt::CpuDevice cpu;
  rt::SwingSimDevice sim_a(7), sim_b(7);
  TracedDevice traced_cpu(&cpu, &probe, "measure");
  TracedDevice traced_sim(&sim_a, &probe, "measure");
  c.expect(traced_cpu.max_concurrent_measurements() ==
               cpu.max_concurrent_measurements(),
           "cpu concurrency forwarded");
  c.expect(traced_sim.max_concurrent_measurements() ==
               sim_b.max_concurrent_measurements(),
           "sim concurrency forwarded");
  c.expect(traced_sim.name() == sim_b.name(), "device name forwarded");
  rt::MeasureInput input;
  input.workload = tvmbo::kernels::make_workload(
      "lu", tvmbo::kernels::Dataset::kLarge);
  input.tiles = {8, 16};
  rt::MeasureOption option;
  for (int i = 0; i < 3; ++i) {
    const rt::MeasureResult got = traced_sim.measure(input, option);
    const rt::MeasureResult want = sim_b.measure(input, option);
    c.expect(got.runtime_s == want.runtime_s &&
                 got.compile_s == want.compile_s && got.valid == want.valid,
             "sim measurement forwarded bit-identically");
  }
  c.expect(probe.completions().size() == 3, "completions recorded");
}

/// A traced session through all three decorators equals the plain
/// AutotuningSession::run() on the simulator, for the sequential ytopt loop
/// and the batched random loop.
void check_session_identity(Checker& c) {
  const tvmbo::autotvm::Task task = tvmbo::kernels::make_task(
      "lu", tvmbo::kernels::Dataset::kLarge, false);
  for (fw::StrategyKind kind :
       {fw::StrategyKind::kYtopt, fw::StrategyKind::kAutotvmRandom}) {
    fw::SessionOptions options;
    options.max_evaluations = 24;
    options.seed = 11;
    options.charge_strategy_overhead = false;
    rt::SwingSimDevice plain_device(11);
    fw::AutotuningSession plain(&task, &plain_device, options);
    const std::string want = trajectory(plain.run(kind));

    SpanLog log;
    log.open_root("session");
    SessionProbe probe(&log);
    rt::SwingSimDevice inner(11);
    TracedDevice device(&inner, &probe, "measure");
    const tvmbo::autotvm::Task traced = traced_task(task, &probe);
    fw::AutotuningSession session(&traced, &device, options);
    TracedTuner tuner(
        fw::make_strategy_tuner(kind, &traced.config.space(), options.seed),
        &traced.config.space(), &probe);
    const std::string got =
        trajectory(session.run_strategy(tuner, run_traits(kind, options)));
    c.expect(!want.empty() && got == want,
             std::string("traced ") + fw::strategy_name(kind) +
                 " session equals the plain run");
  }
}

}  // namespace

bool run_selftests(std::string* report) {
  Checker c;
  check_tail_rule(c);
  check_self_time(c);
  check_task_forwarding(c);
  check_device_forwarding(c);
  check_session_identity(c);
  if (report != nullptr) *report = c.ok ? "ok" : c.failures.str();
  return c.ok;
}

}  // namespace tunebench

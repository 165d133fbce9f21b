// In-memory span recording and the statistics the benchmark reports.
//
// A span is {name, start, end, parent, trial}: the benchmark opens one
// around each call it makes into a layer (ask, tell, measure, prepare,
// run, ...). Spans are appended to a SpanLog under a mutex — measurement
// threads of a concurrent runner record too — and written out only when
// the run ends, so the timed loop never touches the disk.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tunebench {

/// Seconds on the benchmark's own steady clock (process-local epoch).
double now_s();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for the root
  int trial = -1;   ///< trial index the span belongs to, -1 for none

  double duration() const { return end - start; }
};

class SpanLog {
 public:
  /// Opens the root span every other span defaults to as parent.
  int open_root(const std::string& name);
  /// Opens a span on the calling thread. Its parent is the innermost span
  /// this thread has open in this log, else the root.
  int begin(const std::string& name, int trial);
  void end(int id);
  /// Records a finished span with an explicit interval and parent.
  void add(const std::string& name, double start, double end, int parent,
           int trial);
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  int root_ = -1;
};

/// Closes its span on scope exit; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int trial)
      : log_(log), id_(log != nullptr ? log->begin(name, trial) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Writes spans as JSON lines; false when the file cannot be written.
bool write_spans_jsonl(const std::vector<Span>& spans,
                       const std::string& path);

// --- statistics -----------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of unsorted values; 0
/// for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// The tail rule: the highest of p75/p90/p95/p99 that has at least ten
/// samples beyond it. When even p75 has fewer, p75 is reported with its
/// actual count so the shortfall is visible.
struct Tail {
  double value = 0.0;
  int pct = 75;
  std::size_t beyond = 0;  ///< samples strictly above the percentile rank
  std::size_t n = 0;
};
Tail tail(const std::vector<double>& values);

/// Length of the union of `intervals` clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi);

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (children may overlap each other).
std::vector<double> self_times(const std::vector<Span>& spans);

struct LayerSummary {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< summed self times
  double p50_ms = 0.0;   ///< median duration
  Tail tail_ms;          ///< tail duration
  double share = 0.0;    ///< self_s / wall_s
};

/// Per-span-name summary, sorted by descending self time. `wall_s` is the
/// wall time the shares are taken of.
std::vector<LayerSummary> summarize(const std::vector<Span>& spans,
                                    double wall_s);

}  // namespace tunebench

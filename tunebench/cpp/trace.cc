#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

namespace tunebench {

double now_s() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

namespace {

// Spans each thread has open, innermost last, tagged with their log.
thread_local std::vector<std::pair<const SpanLog*, int>> open_spans;

}  // namespace

int SpanLog::open_root(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, now_s(), 0.0, -1, -1});
  root_ = static_cast<int>(spans_.size()) - 1;
  return root_;
}

int SpanLog::begin(const std::string& name, int trial) {
  int parent = -1;
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (parent < 0) parent = root_;
    spans_.push_back({name, now_s(), 0.0, parent, trial});
    id = static_cast<int>(spans_.size()) - 1;
  }
  open_spans.emplace_back(this, id);
  return id;
}

void SpanLog::end(int id) {
  const double t = now_s();
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this && it->second == id) {
      open_spans.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

void SpanLog::add(const std::string& name, double start, double end,
                  int parent, int trial) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, parent, trial});
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool write_spans_jsonl(const std::vector<Span>& spans,
                       const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"trial\":%d}\n",
                 s.name.c_str(), s.start, s.end, s.parent, s.trial);
  }
  return std::fclose(out) == 0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

Tail tail(const std::vector<double>& values) {
  Tail out;
  out.n = values.size();
  for (int pct : {99, 95, 90, 75}) {
    const double value = percentile(values, pct);
    const std::size_t beyond = static_cast<std::size_t>(
        std::count_if(values.begin(), values.end(),
                      [value](double v) { return v > value; }));
    out = {value, pct, beyond, values.size()};
    if (beyond >= 10) break;
  }
  return out;
}

double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double run_start = 0.0;
  double run_end = -1.0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= run_end) {
      run_end = std::max(run_end, b);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = a;
    run_end = b;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() -
              covered(children[i], spans[i].start, spans[i].end);
  }
  return self;
}

std::vector<LayerSummary> summarize(const std::vector<Span>& spans,
                                    double wall_s) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(i);
  }
  std::vector<LayerSummary> out;
  for (const auto& [name, indices] : by_name) {
    LayerSummary layer;
    layer.name = name;
    layer.count = indices.size();
    std::vector<double> ms;
    for (std::size_t i : indices) {
      layer.total_s += spans[i].duration();
      layer.self_s += self[i];
      ms.push_back(spans[i].duration() * 1e3);
    }
    layer.p50_ms = median(ms);
    layer.tail_ms = tail(ms);
    layer.share = wall_s > 0.0 ? layer.self_s / wall_s : 0.0;
    out.push_back(std::move(layer));
  }
  std::sort(out.begin(), out.end(),
            [](const LayerSummary& a, const LayerSummary& b) {
              return a.self_s > b.self_s;
            });
  return out;
}

}  // namespace tunebench

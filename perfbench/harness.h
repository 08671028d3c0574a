// Pure logic of the benchmark harness: percentiles and the tail rule, span
// recording and self time, open-loop lateness and goodput, and the JSON
// lines plu_perfbench prints.  Nothing here touches the solver, so
// test_harness.cpp covers it without building a matrix.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.

/// Nearest-rank percentile (p in [0, 100]) of the samples; 0 for none.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  long rank = static_cast<long>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp(rank, 1L, static_cast<long>(v.size()));
  return v[rank - 1];
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// Samples strictly above the nearest-rank p-th percentile of n samples.
inline long ops_beyond(long n, double p) {
  if (n <= 0) return 0;
  const long rank = std::clamp(
      static_cast<long>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9)),
      1L, n);
  return n - rank;
}

/// Smallest sample count whose p-th percentile has at least `beyond`
/// samples above it -- the tail rule: a tail latency is only reported at a
/// percentile that ten or more ops lie beyond.
inline long min_ops_for_tail(double p, long beyond = 10) {
  long n = 1;
  while (ops_beyond(n, p) < beyond) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Spans.

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed interval around a call into a layer.  `parent` indexes the
/// enclosing span in the same recorder (-1 for an op's root span); every
/// span of one op carries that op's id.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  long op = 0;
};

/// In-memory span log for one thread.  Spans nest through an open-span
/// stack; they are written out only when the run ends.  A disabled recorder
/// records nothing, so the same replay code runs with and without tracing
/// and the difference is the tracing overhead.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  int open(const char* name, long op) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    spans_[id].start_ns = now_ns();
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes at scope exit.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name, long op)
      : rec_(rec), id_(rec.open(name, op)) {}
  ~Scoped() { rec_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Self time of every span in seconds: its duration minus the part of its
/// interval that its direct children cover (children clipped to the parent
/// and merged where they overlap).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_b = 0, cur_e = 0;
    bool open = false;
    for (auto [b, e] : iv) {
      b = std::max(b, p.start_ns);
      e = std::min(e, p.end_ns);
      if (e <= b) continue;
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
      } else {
        if (open) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
        open = true;
      }
    }
    if (open) covered += cur_e - cur_b;
    self[i] = static_cast<double>(p.end_ns - p.start_ns - covered) * 1e-9;
  }
  return self;
}

// ---------------------------------------------------------------------------
// Open loop.

/// One request of an open-loop run, in seconds from the schedule start.
struct OpenLoopSample {
  double due = 0.0;   // when the schedule said to send it
  double sent = 0.0;  // when the generator actually submitted it
  double done = 0.0;  // when its result was complete
  bool ok = false;    // finished correctly (state and residual checked)
};

/// Send time of request i at a fixed offered rate (requests per second).
inline double due_time(long i, double rate) {
  return static_cast<double>(i) / rate;
}

/// Latency as a user sees it: from the due time, so a stalled generator's
/// delay counts against every request it held back.
inline double latency_from_due(const OpenLoopSample& s) {
  return s.done - s.due;
}

/// How late the generator ran: the largest sent - due over the run.
inline double max_generator_lag(const std::vector<OpenLoopSample>& v) {
  double lag = 0.0;
  for (const OpenLoopSample& s : v) lag = std::max(lag, s.sent - s.due);
  return lag;
}

/// Requests that finished correctly within the latency limit (seconds).
/// A failed request counts as missing the limit whatever its latency.
inline long goodput_count(const std::vector<OpenLoopSample>& v,
                          double limit) {
  long good = 0;
  for (const OpenLoopSample& s : v) {
    if (s.ok && latency_from_due(s) <= limit) ++good;
  }
  return good;
}

// ---------------------------------------------------------------------------
// Output.

/// One metric as a JSON line.  The value travels as a "%.17g" string --
/// JsonRecord prints doubles with six digits, and a measurement is reported
/// with all of its digits; a non-finite value becomes null.
inline std::string metric_line(const std::string& name,
                               const std::string& unit, double value) {
  plu::bench::JsonRecord rec;
  rec.field("metric", name).field("unit", unit);
  if (std::isfinite(value)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    rec.field("value", std::string(buf));
  } else {
    rec.field("value", value);
  }
  return rec.str();
}

}  // namespace perfbench

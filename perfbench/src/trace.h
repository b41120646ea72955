// In-memory span recorder for the benchmark's traced replay.
//
// Spans sit at the benchmark's own calls into the qfs layers (see
// replay.h): name, start, end, parent span and request id. They stay in
// memory while the replay runs and are written out once at the end; the
// per-layer metrics are aggregates over them (total and self time per
// span name, where self time excludes the direct children).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "support/timer.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    int request = -1;
  };

  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;
    long count = 0;
  };

  Tracer() : origin_(qfs::MonotonicClock::now()) {}

  /// Spans opened from now on belong to request `id`.
  void begin_request(int id) { request_ = id; }

  /// Open a span nested in the innermost open one; returns its index.
  int open(const char* name);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed duration, summed self time and span count.
  std::map<std::string, Totals> totals() const;

  /// Per request id in [0, num_requests): summed root-span durations, i.e.
  /// the request's replayed wall time.
  std::vector<double> request_ms(int num_requests) const;

  /// Write every span as one JSON array; false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  double now_ms() const;

  qfs::MonotonicClock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int request_ = -1;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { tracer_.close(index_); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Run `fn` inside a span named `name` and return its result.
template <class F>
auto timed(Tracer& tracer, const char* name, F&& fn) {
  Scope scope(tracer, name);
  return fn();
}

}  // namespace perfbench

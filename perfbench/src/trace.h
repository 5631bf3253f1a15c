// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only around the calls the benchmark makes into the
// library's layers (and around its own set-up / measure / check phases);
// nothing inside the library is instrumented. Every span carries its name,
// start and end (ns since the tracer was created), the index of the span
// that was open when it started (its parent) and the run id — the
// benchmark episode it belongs to. Spans stay in memory until write_jsonl.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // string literal; the tracer never copies it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 = top level
  std::int32_t run = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : origin_(Clock::now()) {}

  /// While disabled, open/record/close do nothing (open returns -1).
  void set_enabled(bool on) { enabled_ = on; }
  void set_run(int run) { run_ = run; }

  /// Opens a span that later spans nest under until close(index).
  int open(const char* name);
  void close(int index);

  /// Records a finished leaf span under the innermost open span.
  void record(const char* name, Clock::time_point start,
              Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per span and line, with its self time. Returns false
  /// when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::int32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  // stack of open span indices
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

}  // namespace perfbench

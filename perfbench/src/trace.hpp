// Host clocks, and the in-memory span recorder for the traced benchmark run.
//
// Spans are recorded only around the harness's own calls into the
// simulator's public API (nothing inside src/ is instrumented). Each span
// has a name, start, end, parent span and, where one exists, a request id.
// A span may cover a group of identical calls (`calls` > 1) when one call is
// too short to time on its own; its per-call sample is then duration/calls.
// Everything is held in memory and written out once, as Chrome-trace JSON
// that Perfetto and chrome://tracing open.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User plus system CPU of the whole process (all threads), in seconds.
[[nodiscard]] inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Both host clocks, read at one point of a timed call.
struct ClockMark {
  std::int64_t wall_ns = 0;
  double cpu_s = 0.0;

  [[nodiscard]] static ClockMark now() { return {now_ns(), cpu_seconds()}; }
};

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< always a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;    ///< index of the enclosing span, -1 at the root
    std::int64_t request = -1;   ///< request id, -1 when the call has none
    std::uint32_t calls = 1;     ///< identical calls the span covers
  };

  Tracer() : origin_ns_{now_ns()} {}

  int open(const char* name, std::int64_t request = -1, std::uint32_t calls = 1);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-call durations (ns) of every span named `name`, in record order.
  [[nodiscard]] std::vector<double> per_call_ns(const char* name) const;

  /// Summed duration (ns) of every span named `name`.
  [[nodiscard]] double total_ns(const char* name) const;

  /// Self time per span name: each span's duration minus the time its
  /// direct children cover (children never overlap: one thread records).
  [[nodiscard]] std::map<std::string, double> self_ns() const;

  /// Chrome-trace JSON ("X" complete events, microsecond timestamps).
  void write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::int64_t origin_ns_;
};

/// RAII span; a null tracer makes it a no-op, so untraced passes share code.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t request = -1, std::uint32_t calls = 1)
      : tracer_{tracer}, id_{tracer ? tracer->open(name, request, calls) : -1} {}
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench

// Execution timelines over named hardware streams.
//
// The MoE workflow model (Figure 5 of the paper) schedules tasks onto
// parallel hardware streams: the GPU compute stream, the two PCIe directions,
// each MoNDE device, and the host. `StreamSchedule` performs deterministic
// list scheduling -- a task starts at max(stream free time, dependency ready
// times) -- and `Timeline` records the placed intervals for validation,
// queries, and Chrome-trace export.
//
// Recording is a per-schedule switch. A recording schedule (the default)
// keeps every placed interval with its label; that is the Figure 5 trace
// the encoder/decoder runs, fig5 and the energy model read. A
// non-recording schedule only advances stream free times and the makespan:
// the serving layer's long-lived replicas and the MD+LB tuner's reused
// what-if schedule use it, since nobody reads their intervals. Labels may be
// passed lazily (any callable returning std::string), so a non-recording
// schedule never formats them. A non-recording schedule can also be
// checkpointed and restored, which lets a sweep of what-ifs that share a
// common first part place that part once.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/units.hpp"

namespace monde::sim {

/// Identifies a hardware stream within a StreamSchedule.
struct StreamId {
  std::size_t index = 0;
  constexpr auto operator<=>(const StreamId&) const = default;
};

/// A scheduled busy interval on one stream.
struct Interval {
  StreamId stream;
  Duration start;
  Duration end;
  std::string label;     ///< e.g. "PMove expert 17"
  std::string category;  ///< e.g. "pmove", "amove", "gemm", "gating"
};

/// A recorded set of intervals (append-only).
class Timeline {
 public:
  void record(Interval iv);

  [[nodiscard]] const std::vector<Interval>& intervals() const { return intervals_; }

  /// Latest end time over all intervals (zero when empty).
  [[nodiscard]] Duration end_time() const;

  /// Sum of interval lengths on one stream.
  [[nodiscard]] Duration busy_time(StreamId stream) const;

  /// Verifies no two intervals on the same stream overlap. Returns an empty
  /// string when valid, else a description of the first violation.
  [[nodiscard]] std::string validate() const;

  /// Chrome-trace ("chrome://tracing" / Perfetto) JSON. `stream_names[i]`
  /// labels stream i as a thread.
  [[nodiscard]] std::string to_chrome_trace(const std::vector<std::string>& stream_names) const;

  /// Render an ASCII Gantt chart (one row per stream), `width` columns wide.
  [[nodiscard]] std::string to_ascii_gantt(const std::vector<std::string>& stream_names,
                                           std::size_t width = 100) const;

 private:
  std::vector<Interval> intervals_;
};

/// Where a task landed on its stream (an Interval without its strings).
struct Placement {
  StreamId stream;
  Duration start;
  Duration end;
};

/// Whether a StreamSchedule keeps its placed intervals.
enum class Recording : bool { kOff, kOn };

/// A collection of named streams with deterministic earliest-fit placement.
class StreamSchedule {
 public:
  explicit StreamSchedule(Recording recording = Recording::kOn) : recording_{recording} {}

  /// True when placed intervals are kept in timeline().
  [[nodiscard]] bool recording() const { return recording_ == Recording::kOn; }

  /// Register a stream; returns its id. Names are for traces only.
  StreamId add_stream(std::string name);

  [[nodiscard]] std::size_t stream_count() const { return names_.size(); }
  [[nodiscard]] const std::vector<std::string>& stream_names() const { return names_; }

  /// Time at which the stream becomes free.
  [[nodiscard]] Duration free_at(StreamId stream) const;

  /// Place a task: start = max(earliest, stream free), end = start+length.
  /// Records the interval in the timeline (when recording) and returns it.
  /// Zero-length tasks advance nothing but are still recorded (useful for
  /// markers).
  Interval place(StreamId stream, Duration earliest, Duration length, std::string label,
                 std::string category);

  /// Same placement with a lazy label: `label()` is called, and the
  /// interval recorded, only when this schedule records.
  template <typename LabelFn>
    requires std::is_invocable_r_v<std::string, const LabelFn&>
  Placement place(StreamId stream, Duration earliest, Duration length, const LabelFn& label,
                  const char* category) {
    const Placement p = advance(stream, earliest, length);
    if (recording()) timeline_.record({p.stream, p.start, p.end, label(), category});
    return p;
  }

  /// Back to the state of a fresh schedule with the same streams: every
  /// stream free at zero, makespan zero, no recorded intervals. Lets a
  /// what-if reuse one schedule instead of registering its streams anew.
  void rewind();

  /// Save every stream's free time and the makespan for restore(). Keeps
  /// one checkpoint, overwriting the last one in its storage, so repeated
  /// checkpoints allocate nothing. Non-recording schedules only: a
  /// recording one could not take its intervals back.
  void checkpoint();

  /// Back to the free times and makespan of the last checkpoint(). What
  /// is placed after a restore lands exactly where it would have landed
  /// right after that checkpoint. Requires a checkpoint taken since the
  /// last add_stream(), on a non-recording schedule.
  void restore();

  [[nodiscard]] const Timeline& timeline() const { return timeline_; }
  [[nodiscard]] Timeline& timeline() { return timeline_; }

  /// Completion time of the whole schedule so far: the latest end over
  /// every placed task, recorded or not (O(1), kept by place()).
  [[nodiscard]] Duration makespan() const { return makespan_; }

 private:
  /// Occupy `stream` for `length` from max(earliest, free time).
  Placement advance(StreamId stream, Duration earliest, Duration length);

  Recording recording_;
  std::vector<std::string> names_;
  std::vector<Duration> free_;
  Duration makespan_ = Duration::zero();
  std::vector<Duration> saved_free_;  ///< checkpoint(); empty until the first
  Duration saved_makespan_ = Duration::zero();
  Timeline timeline_;
};

}  // namespace monde::sim

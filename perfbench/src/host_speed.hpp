// Host speed probe.
//
// The benchmark runs on shared hosts whose speed drifts: on a shared 4-vCPU
// host the same timed call ran 10-45% slower for minutes at a time. A fixed
// single-threaded kernel (hash-map inserts and a sort, the kind of work the
// simulator does), timed now and then through a run, follows that drift, so
// the run's host times can be scaled to the speed at which the kernel takes
// kReferenceMs. The kernel is compiled into the harness, not the simulator
// library, so a change to the simulator cannot move it.
#pragma once

#include <cstddef>
#include <limits>

namespace perfbench {

class HostSpeed {
 public:
  /// The kernel time, in ms, of the speed host times are scaled to.
  static constexpr double kReferenceMs = 4.0;

  /// Runs the kernel `n` times, keeping the fastest time.
  void sample(int n = 1);

  [[nodiscard]] double fastest_ms() const { return fastest_ms_; }
  [[nodiscard]] std::size_t samples() const { return samples_; }
  /// Factor that scales a host time of this run to the reference speed.
  [[nodiscard]] double scale() const { return kReferenceMs / fastest_ms_; }

 private:
  double fastest_ms_ = std::numeric_limits<double>::infinity();
  std::size_t samples_ = 0;
};

}  // namespace perfbench

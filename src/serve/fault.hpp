// Replica fault models and health-check configuration for cluster serving.
//
// Two fault shapes cover the failure modes a fleet-level dispatcher must
// survive (the classic fail-stop / slow-down dichotomy of distributed
// serving):
//
//   * fail-stop  -- the replica dies at `fail_at`: steps whose effects would
//     land after the instant of death are lost with the node, and every
//     accepted-but-unfinished request strands until the cluster detects the
//     failure and re-dispatches it elsewhere (ServerSim::evacuate).
//   * slow-down  -- steps *starting* inside [slow_from, slow_until) run
//     `slow_factor` times slower, modelling thermal throttling, a noisy
//     neighbour, or a degraded link. Work is never lost; latency stretches.
//
// Failure *detection* is modelled by heartbeat polling: the cluster polls
// each replica every kHeartbeatInterval; a replica whose last successful
// poll is older than kHeartbeatTimeout is marked dead and never dispatched
// to again. Detection therefore lags the actual death by up to
// one polling interval plus the timeout -- requests dispatched inside that
// window strand and are retried like the rest.
//
// Everything here is pure policy/configuration: deterministic, engine-free,
// and unit-tested without a simulator.
#pragma once

#include <limits>

#include "common/units.hpp"

namespace monde::serve {

/// Fault plan for one replica. Default-constructed = a healthy replica.
/// Times are absolute simulated instants (`Duration` is nanosecond-resolution
/// simulated time throughout the serving layer).
struct FaultSpec {
  /// Fail-stop instant: at `fail_at` the replica stops mid-flight. A step
  /// whose effects would land strictly after `fail_at` is lost (its requests
  /// strand); a step completing at or before `fail_at` counts. infinite()
  /// (the default) means the replica never fails.
  Duration fail_at = Duration::infinite();

  /// Slow-down window: a step *starting* in [slow_from, slow_until) takes
  /// `slow_factor` times its fault-free span. The window is half-open and
  /// empty by default.
  Duration slow_from = Duration::zero();
  Duration slow_until = Duration::zero();
  double slow_factor = 1.0;  ///< >= 1; 1.0 disables the slow-down

  [[nodiscard]] bool fail_stop() const { return fail_at < Duration::infinite(); }
  [[nodiscard]] bool any() const { return fail_stop() || slow_factor != 1.0; }

  /// Dilation factor for a step starting at `start` (1.0 outside the window).
  [[nodiscard]] double factor_at(Duration start) const {
    return (slow_factor != 1.0 && start >= slow_from && start < slow_until) ? slow_factor
                                                                            : 1.0;
  }

  void validate() const;
};

/// Heartbeat polling cadence. A poll at instant p succeeds iff the replica
/// is alive at p (p strictly before its fail-stop instant).
inline constexpr Duration kHeartbeatInterval = Duration::millis(2);

/// A replica whose last successful poll is older than this is declared
/// dead: its stranded requests are evacuated for retry and it is excluded
/// from dispatch permanently. At least one interval, since a healthy
/// replica's heartbeat age never exceeds one.
inline constexpr Duration kHeartbeatTimeout = Duration::millis(6);

/// How the cluster judges replica health at dispatch time.
struct HealthConfig {
  /// Soft slow-replica filter: deprioritize (skip while a faster peer
  /// exists) any replica whose step-duration EWMA exceeds this multiple of
  /// the fleet median. Infinity (the default) disables the filter, which
  /// keeps fault-free runs bit-identical to health-unaware dispatch --
  /// enable it only when slow-down faults (or genuinely degraded hardware)
  /// are in play, and mind that it will also divert load from legitimately
  /// slower replicas of a heterogeneous fleet.
  double slow_ewma_factor = std::numeric_limits<double>::infinity();

  void validate() const;
};

/// Instant of the last successful heartbeat poll at or before `now` for a
/// replica that dies at `fail_at` (infinite = never). Polls run at
/// k * kHeartbeatInterval, k = 0, 1, ...; the k = 0 poll always succeeds
/// (a replica is alive at its own start).
[[nodiscard]] Duration last_ok_heartbeat(Duration now, Duration fail_at);

/// Instant at which a fail-stop at `fail_at` is *detected*: the first moment
/// the replica's heartbeat age exceeds kHeartbeatTimeout. Never earlier than
/// `fail_at` itself.
[[nodiscard]] Duration failure_detection_time(Duration fail_at);

}  // namespace monde::serve

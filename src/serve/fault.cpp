#include "serve/fault.hpp"

#include <cmath>

#include "common/error.hpp"

namespace monde::serve {

void FaultSpec::validate() const {
  MONDE_REQUIRE(fail_at > Duration::zero(), "fail_at must be positive (replica must boot)");
  MONDE_REQUIRE(slow_factor >= 1.0,
                "slow_factor models a slow-down; need >= 1, got " << slow_factor);
  MONDE_REQUIRE(slow_until >= slow_from, "slow-down window must not be inverted");
  MONDE_REQUIRE(slow_from >= Duration::zero(), "slow-down window starts before t=0");
}

void HealthConfig::validate() const {
  MONDE_REQUIRE(slow_ewma_factor > 1.0,
                "slow_ewma_factor must exceed 1 (or be infinite to disable)");
}

Duration last_ok_heartbeat(Duration now, Duration fail_at) {
  MONDE_REQUIRE(now >= Duration::zero(), "heartbeat query before t=0");
  // Last poll at or before `now`...
  double k = std::floor(now / kHeartbeatInterval);
  // ...clamped to the last poll strictly before the instant of death (the
  // k = 0 poll is defined to succeed: a replica is alive at its own start).
  if (fail_at < Duration::infinite()) {
    const double k_dead = std::ceil(fail_at / kHeartbeatInterval) - 1.0;
    if (k_dead < k) k = k_dead;
  }
  if (k < 0.0) k = 0.0;
  return kHeartbeatInterval * k;
}

Duration failure_detection_time(Duration fail_at) {
  MONDE_REQUIRE(fail_at < Duration::infinite(),
                "detection time is only defined for a fail-stop fault");
  const Duration last_ok = last_ok_heartbeat(fail_at, fail_at);
  return monde::max(fail_at, last_ok + kHeartbeatTimeout);
}

}  // namespace monde::serve

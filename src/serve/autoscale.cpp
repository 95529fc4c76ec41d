#include "serve/autoscale.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace monde::serve {

void AutoscaleConfig::validate() const {
  MONDE_REQUIRE(min_replicas >= 1, "a fleet needs at least one replica");
  MONDE_REQUIRE(max_replicas >= min_replicas,
                "max_replicas (" << max_replicas << ") must be >= min_replicas ("
                                 << min_replicas << ")");
  MONDE_REQUIRE(high_tokens_per_replica > low_tokens_per_replica,
                "watermarks must leave a hysteresis band: high "
                    << high_tokens_per_replica << " <= low " << low_tokens_per_replica);
  MONDE_REQUIRE(low_tokens_per_replica >= 0, "low watermark must be non-negative");
}

Autoscaler::Autoscaler(AutoscaleConfig cfg) : cfg_{cfg} { cfg_.validate(); }

std::size_t Autoscaler::target_size(const AutoscaleSignals& s) const {
  const std::size_t capacity = std::max<std::size_t>(s.capacity(), 1);
  const double per_replica = static_cast<double>(s.outstanding_tokens) /
                             static_cast<double>(capacity);
  const bool delay_hot =
      cfg_.high_queue_delay_ms > 0.0 && s.p95_queue_delay_ms > cfg_.high_queue_delay_ms;
  std::size_t target = capacity;
  if (per_replica > static_cast<double>(cfg_.high_tokens_per_replica) || delay_hot) {
    target = capacity + kAutoscaleStep;
  } else if (per_replica < static_cast<double>(cfg_.low_tokens_per_replica) && !delay_hot &&
             s.warming_replicas == 0) {
    // Never shrink while a scale-up is still warming: the pressure that
    // triggered it has not been absorbed yet.
    target = capacity > kAutoscaleStep ? capacity - kAutoscaleStep : 1;
  }
  return std::clamp(target, cfg_.min_replicas, cfg_.max_replicas);
}

std::unique_ptr<Autoscaler> make_queue_pressure_autoscaler(AutoscaleConfig cfg) {
  return std::make_unique<Autoscaler>(cfg);
}

}  // namespace monde::serve

// Autoscaling policies for the cluster serving layer.
//
// ClusterSim evaluates its Autoscaler at a fixed simulated-time cadence
// (ClusterConfig::autoscale_period) while arrivals remain, handing it the
// fleet's queue-pressure signals and asking for a desired replica count.
// The cluster then converges: scale-up spawns fresh replicas of its growth
// template with a modelled cold start (the new replica accepts and queues
// requests immediately but runs no step until spawn + warmup -- the expert
// working set is being placed); scale-down retires the emptiest accepting
// replica, which finishes its queue and then idles, but is never dispatched
// to again. Failed replicas do not count toward capacity once detected,
// so an autoscaler naturally replaces dead capacity.
//
// Like dispatchers, the autoscaler is pure policy: deterministic,
// engine-free values in, a target fleet size out. It is one concrete class
// because one policy exists; docs/ARCHITECTURE.md says how to add a second.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace monde::serve {

/// Fleet queue-pressure signals at one evaluation tick. Token quantities
/// count tokens; delays are simulated milliseconds.
struct AutoscaleSignals {
  std::size_t ready_replicas = 0;    ///< accepting and past warm-up
  std::size_t warming_replicas = 0;  ///< spun up, still cold-starting
  std::int64_t outstanding_tokens = 0;  ///< tokens still owed, fleet-wide
  /// p95 of (now - arrival) over the waiting requests: how long the queue's
  /// tail has already been sitting. 0 when nothing waits.
  double p95_queue_delay_ms = 0.0;

  /// Accepting capacity the decision starts from.
  [[nodiscard]] std::size_t capacity() const { return ready_replicas + warming_replicas; }
};

/// Replicas the queue-pressure policy adds or removes per decision.
inline constexpr std::size_t kAutoscaleStep = 1;

/// Configuration for the queue-pressure policy.
struct AutoscaleConfig {
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 8;
  /// Scale up when outstanding tokens per accepting replica exceed this
  /// high watermark; scale down below the low watermark (hysteresis band).
  std::int64_t high_tokens_per_replica = 256;
  std::int64_t low_tokens_per_replica = 32;
  /// Optional latency trigger: also scale up when the p95 queue delay
  /// exceeds this many simulated milliseconds. <= 0 disables it.
  double high_queue_delay_ms = 0.0;

  void validate() const;
};

/// The autoscaling policy: hysteresis over outstanding-token pressure with
/// an optional p95-queue-delay trigger. Never scales down while a replica
/// is still warming (the previous decision has not landed yet).
class Autoscaler {
 public:
  explicit Autoscaler(AutoscaleConfig cfg);

  [[nodiscard]] std::string name() const { return "queue-pressure"; }

  /// Desired accepting-replica count (ready + warming), called once per
  /// evaluation tick in time order. The cluster clamps the result to at
  /// least one replica and converges toward it.
  [[nodiscard]] std::size_t target_size(const AutoscaleSignals& s) const;

 private:
  AutoscaleConfig cfg_;
};

/// A heap-allocated Autoscaler, for holders that keep the policy optional.
[[nodiscard]] std::unique_ptr<Autoscaler> make_queue_pressure_autoscaler(AutoscaleConfig cfg);

}  // namespace monde::serve

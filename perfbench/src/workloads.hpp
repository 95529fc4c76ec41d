// The benchmark's workloads: what each one builds (set-up), the single call
// that is timed, and the checks on what that call simulated.
//
// The seed given on the command line is the only source of variation. It
// picks the generated inputs -- the request trace, the dispatcher's probe
// stream and the expert-profile stream on the fleets, the engines' routing
// stream on device_cold -- which are handed to the simulator as values.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "host_speed.hpp"
#include "serve/cluster.hpp"
#include "trace.hpp"

namespace perfbench {

/// The simulated answers of one pass, keyed by metric name (all `sim_*`).
using SimValues = std::map<std::string, double>;

/// What the output check found for one pass.
struct Outcome {
  SimValues sim;
  std::uint64_t attempted = 0;  ///< operations offered (requests or device cases)
  std::uint64_t failed = 0;     ///< missing, duplicated or wrong
  double sim_tokens = 0.0;      ///< tokens the pass simulated (prompt + generated)
};

// --- Fleets ------------------------------------------------------------------

struct FleetConfig {
  monde::core::SystemConfig sys;
  monde::moe::MoeModelConfig model;
  monde::moe::SkewProfile profile;
  monde::core::StrategyKind strategy = monde::core::StrategyKind::kMondeLoadBalanced;
  monde::serve::SchedulerConfig sched;
  monde::serve::RequestShape shape;
  std::size_t replicas = 0;  ///< boot size
  int requests = 0;
  double rate_per_replica = 0.0;  ///< Poisson arrivals (when burst_size == 0)
  int burst_size = 0;             ///< bursty arrivals: requests per burst
  monde::Duration burst_gap = monde::Duration::zero();
  monde::serve::DispatchPolicy policy = monde::serve::DispatchPolicy::kPowerOfTwoChoices;
  monde::serve::ClusterConfig cluster;
  bool autoscale = false;
  monde::serve::AutoscaleConfig autoscale_cfg;
  std::size_t failstop_every = 0;  ///< every n-th boot replica fail-stops (0: none)
  monde::Duration failstop_at = monde::Duration::zero();
  std::uint64_t seed = 0;

  /// Mean offered load per boot replica, requests per simulated second.
  [[nodiscard]] double mean_rate_per_replica() const;
  /// A fresh stream of this workload's arrivals (the seed's trace).
  [[nodiscard]] std::unique_ptr<monde::serve::ArrivalStream> arrivals() const;
};

/// bench/serve_scale --smoke: 512 MD+LB replicas, 50 000 requests, 1 thread.
[[nodiscard]] FleetConfig serve_scale_smoke(std::uint64_t seed);
[[nodiscard]] FleetConfig fleet_steady(std::uint64_t seed);
[[nodiscard]] FleetConfig fleet_churn(std::uint64_t seed);
/// A small fleet in fleet_steady's shape. device_cold runs no fleet, so its
/// traced run measures the serving layers on this one instead.
[[nodiscard]] FleetConfig reference_fleet(std::uint64_t seed);

/// Replays a trace and reads the host clocks as it yields every `every`-th
/// request. The cluster pulls each arrival when its simulated clock gets
/// there, so with the same trace every call's marks split its host time into
/// the same stretches of simulated work. With a probe, every `probe_every`-th
/// mark also samples the host speed; the marks leave the probe's time out.
class ClockedStream final : public monde::serve::ArrivalStream {
 public:
  ClockedStream(std::vector<monde::serve::Request> trace, std::size_t every, HostSpeed* probe,
                std::size_t probe_every);
  [[nodiscard]] std::optional<monde::serve::Request> next() override;
  [[nodiscard]] std::size_t size_hint() const override { return inner_.size_hint(); }
  void mark();
  [[nodiscard]] const std::vector<ClockMark>& marks() const { return marks_; }

 private:
  monde::serve::TraceArrivalStream inner_;
  std::size_t every_;
  HostSpeed* probe_;
  std::size_t probe_every_;
  std::size_t yielded_ = 0;
  ClockMark paused_;  ///< host time spent probing so far
  std::vector<ClockMark> marks_;
};

/// One set-up cluster and its trace, ready for its single timed call.
class FleetRun {
 public:
  /// Arrivals between two clock marks of the timed call.
  static constexpr std::size_t kMarkEvery = 200;
  /// Marks between two host-speed samples.
  static constexpr std::size_t kProbeEvery = 10;

  /// `probe`, when given, samples the host speed during the timed call.
  explicit FleetRun(const FleetConfig& cfg, HostSpeed* probe = nullptr);
  [[nodiscard]] monde::serve::ClusterReport run();
  [[nodiscard]] Outcome check(const monde::serve::ClusterReport& rep) const;
  /// The timed call's clock marks: at its start, every kMarkEvery arrivals
  /// and at its end.
  [[nodiscard]] const std::vector<ClockMark>& marks() const { return stream_->marks(); }

 private:
  std::unique_ptr<monde::serve::ClusterSim> cluster_;
  std::unique_ptr<monde::serve::Dispatcher> dispatcher_;
  std::unique_ptr<monde::serve::Autoscaler> autoscaler_;
  std::unique_ptr<ClockedStream> stream_;
  std::vector<std::pair<std::uint64_t, std::int64_t>> expected_;  ///< (id, budget)
  double offered_prompt_tokens_ = 0.0;
};

// --- device_cold ---------------------------------------------------------------

struct DeviceCase {
  bool decoder = false;
  monde::moe::MoeModelConfig model;
  std::int64_t batch = 0;
  monde::core::StrategyKind kind = monde::core::StrategyKind::kGpuPmove;
};

/// The Fig. 6 sweep: {encoder 512 tokens, decoder 16 steps} x {Switch-Large-128,
/// NLLB-MoE} x B in {1, 4} x {GPU+PM, MD+AM, MD+LB, Ideal}, in that order.
[[nodiscard]] const std::vector<DeviceCase>& device_cases();

struct CaseResult {
  std::uint64_t tokens = 0;
  double total_s = 0.0;       ///< simulated run time
  double first_step_s = 0.0;  ///< decoder: the first step's simulated span
};

/// One engine per sweep case on one NDP simulator: a fresh (cold) one, or
/// `sim` when given.
class DeviceRun {
 public:
  explicit DeviceRun(std::uint64_t seed, std::shared_ptr<monde::ndp::NdpCoreSim> sim = nullptr);
  [[nodiscard]] std::vector<CaseResult> run(Tracer* tracer);
  [[nodiscard]] Outcome check(const std::vector<CaseResult>& results) const;
  [[nodiscard]] const std::shared_ptr<monde::ndp::NdpCoreSim>& sim() const { return sim_; }

 private:
  std::shared_ptr<monde::ndp::NdpCoreSim> sim_;
  std::vector<std::unique_ptr<monde::core::InferenceEngine>> engines_;
};

}  // namespace perfbench

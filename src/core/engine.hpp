// End-to-end MoE transformer inference engine.
//
// Assembles the platform (GPU/CPU models, NDP simulator, links), generates
// routed workloads, and simulates inference under a chosen expert-execution
// strategy. Execution is built from two step primitives -- prefill() (one
// encoder pass) and decode_step() (one autoregressive step over a batch of
// requests at arbitrary decode depths) -- threaded through an explicit
// EngineState. The classic run_encoder / run_decoder entry points are thin
// wrappers over the primitives; the serving layer (src/serve) drives the
// primitives directly to interleave requests (continuous batching).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compute/cpu.hpp"
#include "compute/gpu.hpp"
#include "compute/transformer.hpp"
#include "core/strategy.hpp"
#include "core/system_config.hpp"
#include "moe/workload.hpp"

namespace monde::core {

/// Result of one simulated run (an encoder pass or a decoder generation).
struct RunReport {
  std::string strategy;
  std::string phase;  ///< "encoder" or "decoder"
  Duration total = Duration::zero();
  Duration non_moe = Duration::zero();  ///< attention, dense FFN, norms
  Duration moe = Duration::zero();      ///< gating -> combine, per layer sum
  std::uint64_t tokens = 0;             ///< tokens produced/processed
  std::vector<MoeLayerResult> layers;
  sim::Timeline timeline;
  std::vector<std::string> stream_names;

  [[nodiscard]] double throughput_tokens_per_s() const {
    return total > Duration::zero() ? static_cast<double>(tokens) / total.sec() : 0.0;
  }
};

/// Explicit, resumable execution state threaded through the step primitives.
/// One state owns one shared hardware schedule; every prefill()/decode_step()
/// call appends to it and advances the `now` cursor. A state outlives many
/// steps, which is what lets requests at different decode depths share a
/// schedule (continuous batching).
///
/// The schedule's recording switch covers the whole state: a recording state
/// (make_state()'s default) keeps the labelled interval trace and every
/// MoeLayerResult in `layers`; a non-recording one (the serving layer's
/// long-lived replicas) keeps neither, so its memory stays bounded however
/// many steps it runs. Times and accumulators are identical either way.
struct EngineState {
  sim::StreamSchedule sched;
  HwStreams hw;
  Duration now = Duration::zero();      ///< GPU-stream cursor: end of last step
  Duration non_moe = Duration::zero();  ///< accumulated non-expert time
  Duration moe = Duration::zero();      ///< accumulated MoE layer time
  std::uint64_t tokens = 0;             ///< tokens processed/produced so far
  std::int64_t decode_steps = 0;        ///< decode_step() calls so far (labels)
  std::vector<MoeLayerResult> layers;   ///< every scheduled MoE layer, in order
                                        ///< (only while sched.recording())
};

/// One request's view of a decode step: its identity, decode depth, and the
/// encoder context it cross-attends over. Requests in the same step may sit
/// at different depths.
struct DecodeSlot {
  std::uint64_t request_id = 0;
  std::int64_t step = 0;       ///< 0-based decode depth: tokens already generated
  std::int64_t cross_len = 0;  ///< encoder positions for cross-attention
};

/// Span of one step primitive on the shared schedule.
struct StepResult {
  Duration start = Duration::zero();
  Duration end = Duration::zero();
  std::uint64_t tokens = 0;  ///< tokens this step processed (prefill) or produced (decode)

  [[nodiscard]] Duration latency() const { return end - start; }
};

/// Owns the simulated platform and runs inference under one strategy.
class InferenceEngine {
 public:
  InferenceEngine(SystemConfig sys, moe::MoeModelConfig model, moe::SkewProfile profile,
                  StrategyKind kind, std::uint64_t seed = 42,
                  std::shared_ptr<ndp::NdpCoreSim> shared_sim = nullptr);

  // --- Step primitives -----------------------------------------------------

  /// A fresh, recording state with this platform's hardware streams
  /// registered.
  [[nodiscard]] EngineState make_state() const { return make_state(sim::Recording::kOn); }
  /// A fresh state whose schedule records (or not) per `recording`.
  [[nodiscard]] EngineState make_state(sim::Recording recording) const;

  /// One encoder pass (prefill) over `batch` sequences of `seq_len` tokens,
  /// starting no earlier than `st.now`. Routing is drawn from the workload
  /// generator's encoder stream.
  StepResult prefill(EngineState& st, std::int64_t batch, std::int64_t seq_len);

  /// One autoregressive decoder step over `slots` (one new token per slot),
  /// executing `works` -- one routed MoeLayerWork per decoder MoE layer,
  /// typically the per-request draws merged across the batch. Slots may sit
  /// at different decode depths; attention is priced per depth group while
  /// dense GEMMs and the LM head batch across the whole step.
  StepResult decode_step(EngineState& st, const std::vector<DecodeSlot>& slots,
                         const std::vector<moe::MoeLayerWork>& works);

  /// Package an exhausted state into a RunReport.
  [[nodiscard]] RunReport finish(EngineState&& st, std::string phase) const;

  // --- Classic whole-run entry points (wrappers over the primitives) -------

  /// One encoder pass over `batch` sequences of `seq_len` tokens.
  RunReport run_encoder(std::int64_t batch, std::int64_t seq_len);

  /// `steps` autoregressive decoder steps for `batch` sequences, with
  /// cross-attention over `cross_len` encoder positions.
  RunReport run_decoder(std::int64_t batch, std::int64_t steps, std::int64_t cross_len = 512);

  [[nodiscard]] Strategy& strategy() { return *strategy_; }
  [[nodiscard]] const SystemConfig& system() const { return sys_; }
  [[nodiscard]] const moe::MoeModelConfig& model() const { return model_; }
  [[nodiscard]] moe::WorkloadGenerator& workload() { return workload_; }

 private:
  SystemConfig sys_;
  moe::MoeModelConfig model_;
  compute::GpuModel gpu_;
  compute::CpuModel cpu_;
  compute::TransformerCostModel xformer_;
  std::shared_ptr<ndp::NdpCoreSim> ndp_sim_;
  std::unique_ptr<Strategy> strategy_;
  moe::WorkloadGenerator workload_;
  moe::EncoderPass encoder_pass_;  ///< prefill()'s reused routing storage
  std::vector<std::pair<std::int64_t, std::int64_t>> depths_;  ///< decode_step()'s, reused
};

}  // namespace monde::core

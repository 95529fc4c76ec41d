// Deterministic workload generation for encoder passes and autoregressive
// decoder runs.
//
// Substitutes the paper's XSum (language modeling) and FLORES-200 (machine
// translation) datasets: what the system consumes from a dataset is only the
// sequence of tokens-per-expert vectors per MoE layer, which the calibrated
// GatingModel produces (see gating.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "moe/expert_profile.hpp"
#include "moe/gating.hpp"
#include "moe/model_config.hpp"

namespace monde::moe {

/// A full encoder pass: one MoeLayerWork per encoder MoE layer.
struct EncoderPass {
  std::int64_t batch = 0;
  std::int64_t seq_len = 0;
  std::vector<MoeLayerWork> moe_layers;
};

/// One autoregressive decoder step: one MoeLayerWork per decoder MoE layer.
struct DecoderStep {
  std::int64_t step_index = 0;
  std::int64_t batch = 0;  ///< new tokens this step
  std::vector<MoeLayerWork> moe_layers;
};

/// Generates routed workloads for a model configuration. One GatingModel is
/// instantiated per MoE layer (different hot experts per layer); drawing is
/// deterministic given the seed.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const MoeModelConfig& model, const SkewProfile& profile,
                    std::uint64_t seed = 42);

  /// Route a full encoder batch (batch x seq_len tokens through every
  /// encoder MoE layer).
  [[nodiscard]] EncoderPass encoder_pass(std::int64_t batch, std::int64_t seq_len);
  /// The same draws routed into `pass`, reusing its storage.
  void encoder_pass(std::int64_t batch, std::int64_t seq_len, EncoderPass& pass);

  /// Route `steps` autoregressive decoder steps of `batch` tokens each.
  [[nodiscard]] std::vector<DecoderStep> decoder_steps(std::int64_t batch, std::int64_t steps);

  /// Per-request, step-indexed decoder routing: the MoE work of request
  /// `request_id`'s decode step `step` (`tokens` new tokens, usually 1), one
  /// MoeLayerWork per decoder MoE layer. Deterministic in
  /// (seed, request_id, step) and independent of call order, so a
  /// continuous-batching scheduler can draw active requests in any admission
  /// order and still produce reproducible merged steps.
  [[nodiscard]] std::vector<MoeLayerWork> decoder_step_for(std::uint64_t request_id,
                                                           std::int64_t step,
                                                           std::int64_t tokens = 1) const;

  /// Shape `works` as one empty MoeLayerWork per decoder MoE layer (layer id
  /// and top-k set, zero tokens), reusing its storage.
  void reset_decoder_works(std::vector<MoeLayerWork>& works) const;

  /// Add decoder_step_for(request_id, step, tokens) into `works`, shaped by
  /// reset_decoder_works(): each layer's total_tokens grows by `tokens` and
  /// its histogram by the request's draws. Routing a batch's requests into
  /// one `works` equals merge_layer_works() of their decoder_step_for()
  /// draws, in any order, with no per-request vectors.
  void add_decoder_step(std::uint64_t request_id, std::int64_t step, std::int64_t tokens,
                        std::span<MoeLayerWork> works) const;

  /// The request's expert profile: its `width` most-activated experts per
  /// decoder MoE layer, estimated by routing `tokens` probe tokens through
  /// each layer's gating model on a dedicated per-request stream (distinct
  /// from the decoder_step_for streams, so profiling never perturbs the
  /// routed workload). Deterministic in (seed, request_id); entries are
  /// layer-major, descending activation within a layer, with layer ids
  /// offset past the encoder stack exactly like decoder_step_for.
  [[nodiscard]] ExpertProfile expert_profile_for(std::uint64_t request_id, int width,
                                                 std::int64_t tokens = 64) const;

  /// Element-wise sum of per-request draws into the shared per-layer work one
  /// decode step executes. Every entry must cover the same layers in the same
  /// order (as produced by decoder_step_for).
  [[nodiscard]] static std::vector<MoeLayerWork> merge_layer_works(
      const std::vector<std::vector<MoeLayerWork>>& per_request);

  [[nodiscard]] const MoeModelConfig& model() const { return model_; }

  /// The gating model of encoder MoE layer `i` (for characterization).
  [[nodiscard]] const GatingModel& encoder_gating(std::size_t i) const;

 private:
  MoeModelConfig model_;
  std::vector<GatingModel> encoder_gatings_;
  std::vector<GatingModel> decoder_gatings_;
  Rng rng_;
  std::uint64_t seed_;  ///< base seed for the per-request routing streams
};

}  // namespace monde::moe

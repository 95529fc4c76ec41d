#include "moe/workload.hpp"

#include "common/error.hpp"

namespace monde::moe {

WorkloadGenerator::WorkloadGenerator(const MoeModelConfig& model, const SkewProfile& profile,
                                     std::uint64_t seed)
    : model_{model}, rng_{seed}, seed_{seed} {
  model_.validate();
  MONDE_REQUIRE(model_.moe_every > 0, "workload generation needs an MoE model");
  encoder_gatings_.reserve(static_cast<std::size_t>(model_.encoder_moe_layers()));
  decoder_gatings_.reserve(static_cast<std::size_t>(model_.decoder_moe_layers()));
  for (int i = 0; i < model_.encoder_moe_layers(); ++i) {
    encoder_gatings_.emplace_back(model_.num_experts, model_.top_k, profile,
                                  seed * std::uint64_t{1000003} + static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < model_.decoder_moe_layers(); ++i) {
    decoder_gatings_.emplace_back(model_.num_experts, model_.top_k, profile,
                                  seed * std::uint64_t{2000003} + static_cast<std::uint64_t>(i));
  }
}

EncoderPass WorkloadGenerator::encoder_pass(std::int64_t batch, std::int64_t seq_len) {
  EncoderPass pass;
  encoder_pass(batch, seq_len, pass);
  return pass;
}

void WorkloadGenerator::encoder_pass(std::int64_t batch, std::int64_t seq_len,
                                     EncoderPass& pass) {
  MONDE_REQUIRE(batch > 0 && seq_len > 0, "encoder pass needs tokens");
  pass.batch = batch;
  pass.seq_len = seq_len;
  const std::int64_t tokens = batch * seq_len;
  pass.moe_layers.resize(encoder_gatings_.size());
  for (std::size_t i = 0; i < encoder_gatings_.size(); ++i) {
    MoeLayerWork& work = pass.moe_layers[i];
    work.layer_id = static_cast<int>(i);
    work.total_tokens = tokens;
    work.top_k = model_.top_k;
    work.tokens_per_expert.assign(static_cast<std::size_t>(model_.num_experts), 0);
    encoder_gatings_[i].route_into(tokens, rng_, work.tokens_per_expert);
  }
}

std::vector<DecoderStep> WorkloadGenerator::decoder_steps(std::int64_t batch,
                                                          std::int64_t steps) {
  MONDE_REQUIRE(batch > 0, "decoder run needs batch > 0, got " << batch);
  MONDE_REQUIRE(steps > 0, "decoder run needs steps > 0, got " << steps);
  std::vector<DecoderStep> out;
  out.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t s = 0; s < steps; ++s) {
    DecoderStep step;
    step.step_index = s;
    step.batch = batch;
    for (std::size_t i = 0; i < decoder_gatings_.size(); ++i) {
      MoeLayerWork work;
      // Layer ids are unique across the encoder and decoder stacks so that
      // per-expert state (e.g. the GPU expert cache) never aliases.
      work.layer_id = model_.encoder_moe_layers() + static_cast<int>(i);
      work.total_tokens = batch;
      work.top_k = model_.top_k;
      work.tokens_per_expert = decoder_gatings_[i].route(batch, rng_);
      step.moe_layers.push_back(std::move(work));
    }
    out.push_back(std::move(step));
  }
  return out;
}

namespace {

/// 64-bit finalizer (murmur3 fmix64): decorrelates the per-request routing
/// streams derived from (seed, request_id, step, layer).
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::vector<MoeLayerWork> WorkloadGenerator::decoder_step_for(std::uint64_t request_id,
                                                              std::int64_t step,
                                                              std::int64_t tokens) const {
  std::vector<MoeLayerWork> out;
  reset_decoder_works(out);
  add_decoder_step(request_id, step, tokens, out);
  return out;
}

void WorkloadGenerator::reset_decoder_works(std::vector<MoeLayerWork>& works) const {
  works.resize(decoder_gatings_.size());
  for (std::size_t i = 0; i < works.size(); ++i) {
    MoeLayerWork& work = works[i];
    work.layer_id = model_.encoder_moe_layers() + static_cast<int>(i);
    work.total_tokens = 0;
    work.top_k = model_.top_k;
    work.tokens_per_expert.assign(static_cast<std::size_t>(model_.num_experts), 0);
  }
}

void WorkloadGenerator::add_decoder_step(std::uint64_t request_id, std::int64_t step,
                                         std::int64_t tokens,
                                         std::span<MoeLayerWork> works) const {
  MONDE_REQUIRE(step >= 0, "decoder step index must be >= 0, got " << step);
  MONDE_REQUIRE(tokens > 0, "decoder step needs tokens > 0, got " << tokens);
  MONDE_REQUIRE(works.size() == decoder_gatings_.size(),
                "decoder step needs one work per decoder MoE layer");
  for (std::size_t i = 0; i < decoder_gatings_.size(); ++i) {
    Rng rng{mix64(mix64(mix64(seed_ ^ 0x5e17ed5e17ed5e17ULL) + request_id) +
                  static_cast<std::uint64_t>(step)) +
            static_cast<std::uint64_t>(i)};
    works[i].total_tokens += tokens;
    decoder_gatings_[i].route_into(tokens, rng, works[i].tokens_per_expert);
  }
}

ExpertProfile WorkloadGenerator::expert_profile_for(std::uint64_t request_id, int width,
                                                    std::int64_t tokens) const {
  MONDE_REQUIRE(width > 0, "expert profile needs width > 0, got " << width);
  MONDE_REQUIRE(tokens > 0, "expert profile needs probe tokens > 0, got " << tokens);
  ExpertProfile profile;
  profile.experts.reserve(decoder_gatings_.size() * static_cast<std::size_t>(width));
  for (std::size_t i = 0; i < decoder_gatings_.size(); ++i) {
    // A salt distinct from decoder_step_for's keeps the profiling probe on
    // its own stream: deriving a profile must not change the routed work.
    Rng rng{mix64(mix64(seed_ ^ 0x70f11e70f11e70f1ULL) + request_id) +
            static_cast<std::uint64_t>(i)};
    MoeLayerWork work;
    work.layer_id = model_.encoder_moe_layers() + static_cast<int>(i);
    work.total_tokens = tokens;
    work.top_k = model_.top_k;
    work.tokens_per_expert = decoder_gatings_[i].route(tokens, rng);
    const auto by_load = work.experts_by_load();
    const auto keep = std::min<std::size_t>(by_load.size(), static_cast<std::size_t>(width));
    for (std::size_t r = 0; r < keep; ++r) {
      profile.experts.push_back({work.layer_id, static_cast<int>(by_load[r])});
    }
  }
  profile.rebuild_signature();
  return profile;
}

std::vector<MoeLayerWork> WorkloadGenerator::merge_layer_works(
    const std::vector<std::vector<MoeLayerWork>>& per_request) {
  MONDE_REQUIRE(!per_request.empty(), "cannot merge zero routing draws");
  std::vector<MoeLayerWork> merged = per_request.front();
  for (std::size_t r = 1; r < per_request.size(); ++r) {
    const auto& draws = per_request[r];
    MONDE_REQUIRE(draws.size() == merged.size(),
                  "routing draws cover different layer counts: " << draws.size() << " vs "
                                                                 << merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      MoeLayerWork& acc = merged[i];
      const MoeLayerWork& w = draws[i];
      MONDE_REQUIRE(w.layer_id == acc.layer_id &&
                        w.tokens_per_expert.size() == acc.tokens_per_expert.size(),
                    "routing draws disagree on layer shape");
      acc.total_tokens += w.total_tokens;
      for (std::size_t e = 0; e < acc.tokens_per_expert.size(); ++e) {
        acc.tokens_per_expert[e] += w.tokens_per_expert[e];
      }
    }
  }
  return merged;
}

const GatingModel& WorkloadGenerator::encoder_gating(std::size_t i) const {
  MONDE_REQUIRE(i < encoder_gatings_.size(), "encoder gating index out of range");
  return encoder_gatings_[i];
}

}  // namespace monde::moe

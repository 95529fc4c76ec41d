#include "moe/model_config.hpp"

#include "common/error.hpp"

namespace monde::moe {

Bytes MoeModelConfig::non_expert_bytes() const {
  const auto elem = static_cast<std::uint64_t>(compute::bytes_per_element(dtype));
  const auto d = static_cast<std::uint64_t>(dmodel);
  const auto f = static_cast<std::uint64_t>(dff);
  // Tied input/output embedding: vocab x dmodel.
  std::uint64_t params = static_cast<std::uint64_t>(vocab_size) * d;
  // Attention: 4 * d^2 per attention module (Q, K, V, O). Encoder blocks
  // have one module; decoder blocks have self + cross attention.
  const auto attn = 4 * d * d;
  params += static_cast<std::uint64_t>(encoder_blocks) * attn;
  params += static_cast<std::uint64_t>(decoder_blocks) * 2 * attn;
  // Dense FFNs in non-MoE blocks: 2 * d * dff each.
  const int dense_blocks =
      encoder_blocks + decoder_blocks - total_moe_layers();
  params += static_cast<std::uint64_t>(dense_blocks) * 2 * d * f;
  // Layer norms and biases (~2 vectors per sublayer) are < 0.1% -- include
  // a small term for completeness.
  params += static_cast<std::uint64_t>(encoder_blocks + decoder_blocks) * 6 * d;
  return Bytes{params * elem};
}

void MoeModelConfig::validate() const {
  MONDE_REQUIRE(dmodel > 0 && dff > 0, "model dims must be positive");
  MONDE_REQUIRE(encoder_blocks >= 0 && decoder_blocks >= 0, "block counts must be >= 0");
  MONDE_REQUIRE(moe_every >= 0, "moe_every must be >= 0");
  if (moe_every > 0) {
    MONDE_REQUIRE(num_experts > 0, "MoE model needs experts");
    MONDE_REQUIRE(top_k > 0 && top_k <= num_experts, "top_k must be in [1, E]");
  }
  MONDE_REQUIRE(vocab_size > 0, "vocab must be positive");
}

MoeModelConfig MoeModelConfig::switch_large_128() {
  MoeModelConfig c;
  c.name = "Switch-Large-128";
  c.dmodel = 1024;
  c.dff = 4096;
  c.encoder_blocks = 24;
  c.decoder_blocks = 24;
  c.moe_every = 2;  // 12 + 12 MoE layers -> 51.5 GB of experts (Table 2)
  c.num_experts = 128;
  c.top_k = 1;
  c.vocab_size = 32128;
  return c;
}

MoeModelConfig MoeModelConfig::nllb_moe_128() {
  MoeModelConfig c;
  c.name = "NLLB-MoE";
  c.dmodel = 2048;
  c.dff = 8192;
  c.encoder_blocks = 24;
  c.decoder_blocks = 24;
  c.moe_every = 4;  // 6 + 6 MoE layers -> 103.1 GB of experts (Table 2)
  c.num_experts = 128;
  c.top_k = 2;
  c.vocab_size = 256206;
  return c;
}

MoeModelConfig MoeModelConfig::t5_large_dense() {
  MoeModelConfig c = switch_large_128();
  c.name = "T5-Large";
  c.moe_every = 0;
  c.num_experts = 0;
  return c;
}

MoeModelConfig MoeModelConfig::switch_variant(std::int64_t dmodel_, std::int64_t experts) {
  MoeModelConfig c = switch_large_128();
  // Built with append rather than operator+ to sidestep a GCC 12 -Wrestrict
  // false positive on rvalue-string concatenation at -O3.
  c.name = "d";
  c.name += std::to_string(dmodel_);
  c.name += "-E";
  c.name += std::to_string(experts);
  c.dmodel = dmodel_;
  c.dff = 4 * dmodel_;
  c.num_experts = experts;
  return c;
}

}  // namespace monde::moe

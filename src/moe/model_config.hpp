// MoE transformer model configurations (paper Table 2 and Figure 7(a)).
#pragma once

#include <cstdint>
#include <string>

#include "compute/gemm.hpp"

namespace monde::moe {

/// Architecture of an encoder-decoder MoE transformer.
struct MoeModelConfig {
  std::string name;
  std::int64_t dmodel = 0;
  std::int64_t dff = 0;
  int encoder_blocks = 0;
  int decoder_blocks = 0;
  /// Every `moe_every`-th block replaces its dense FFN with an MoE FFN
  /// (Switch: every 2nd block; NLLB-MoE: every 4th). 0 = fully dense model.
  int moe_every = 0;
  std::int64_t num_experts = 0;  ///< E, experts per MoE layer
  int top_k = 1;
  std::int64_t vocab_size = 32128;
  compute::DataType dtype = compute::DataType::kBf16;

  [[nodiscard]] int encoder_moe_layers() const {
    return moe_every > 0 ? encoder_blocks / moe_every : 0;
  }
  [[nodiscard]] int decoder_moe_layers() const {
    return moe_every > 0 ? decoder_blocks / moe_every : 0;
  }
  [[nodiscard]] int total_moe_layers() const {
    return encoder_moe_layers() + decoder_moe_layers();
  }
  /// True if block `index` (0-based) within a stack carries an MoE FFN.
  /// MoE layers sit at the *end* of each `moe_every` group, matching the
  /// Switch/NLLB placement (blocks 1, 3, 5, ... for moe_every = 2).
  [[nodiscard]] bool is_moe_block(int index) const {
    return moe_every > 0 && (index % moe_every) == (moe_every - 1);
  }

  /// Parameter bytes of a single expert FFN (two linears).
  [[nodiscard]] Bytes expert_bytes() const {
    return compute::ExpertShape{1, dmodel, dff}.weight_bytes(dtype);
  }
  /// All expert parameters across every MoE layer (the offloaded working set).
  [[nodiscard]] Bytes total_expert_bytes() const {
    return Bytes{expert_bytes().count() * static_cast<std::uint64_t>(num_experts) *
                 static_cast<std::uint64_t>(total_moe_layers())};
  }
  /// Dense (always-resident) parameters: embeddings, attention projections,
  /// the dense FFNs of non-MoE blocks, and layer norms.
  [[nodiscard]] Bytes non_expert_bytes() const;

  /// Per-MoE-layer expert parameter bytes (E experts).
  [[nodiscard]] Bytes layer_expert_bytes() const {
    return Bytes{expert_bytes().count() * static_cast<std::uint64_t>(num_experts)};
  }

  void validate() const;

  // --- Presets (paper Table 2 and Section 4) -------------------------------

  /// Switch-Large-128: T5-Large backbone, 128 experts, top-1, dmodel 1024.
  [[nodiscard]] static MoeModelConfig switch_large_128();
  /// NLLB-MoE: 128 experts, top-2, dmodel 2048 (54B-parameter translation model).
  [[nodiscard]] static MoeModelConfig nllb_moe_128();
  /// T5-Large dense baseline (Figure 2(a)).
  [[nodiscard]] static MoeModelConfig t5_large_dense();
  /// NLLB-3.3B dense baseline (Figure 2(a)).
  [[nodiscard]] static MoeModelConfig nllb_dense_3_3b();
  /// Switch-Base-style variants for the Figure 7(a) sensitivity study:
  /// d768-E64, d768-E128, d1024-E128.
  [[nodiscard]] static MoeModelConfig switch_variant(std::int64_t dmodel_, std::int64_t experts);
};

}  // namespace monde::moe

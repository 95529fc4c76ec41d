#include "core/engine.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dram/address.hpp"
#include "ndp/layout.hpp"

namespace monde::core {
namespace {

/// Throws monde::Error ("device memory exhausted ...") unless the experts
/// of every MoE layer, sharded round-robin over `num_devices` devices
/// (expert e on device e % num_devices), fit in each device's weight
/// partition. Device 0's shard is the largest -- ceil(E / num_devices)
/// experts per MoE layer -- so the check is that shard's block count
/// against the partition's.
void check_model_fits(const dram::Spec& mem, const moe::MoeModelConfig& model,
                      int num_devices) {
  MONDE_REQUIRE(num_devices >= 1, "need at least one device");
  const dram::AddressMapper mapper{mem};
  const ndp::PartitionLayout weights{mem, mapper, ndp::Partition::kWeights};
  const auto shard_experts =
      static_cast<std::uint64_t>((model.num_experts + num_devices - 1) / num_devices) *
      static_cast<std::uint64_t>(model.total_moe_layers());
  const std::uint64_t blocks = shard_experts * weights.blocks_for(model.expert_bytes());
  MONDE_REQUIRE(blocks <= weights.block_count(),
                "device memory exhausted placing " << model.name << ": device 0 holds "
                    << shard_experts << " experts ("
                    << Bytes{blocks * static_cast<std::uint64_t>(weights.access_bytes())}.str()
                    << ") in a " << weights.capacity().str() << " weight partition");
}

}  // namespace

InferenceEngine::InferenceEngine(SystemConfig sys, moe::MoeModelConfig model,
                                 moe::SkewProfile profile, StrategyKind kind,
                                 std::uint64_t seed,
                                 std::shared_ptr<ndp::NdpCoreSim> shared_sim)
    : sys_{std::move(sys)},
      model_{std::move(model)},
      gpu_{kGpu},
      cpu_{kCpu},
      xformer_{gpu_, model_.dtype},
      // Callers benchmarking several strategies on the same platform should
      // pass a shared simulator so expert-shape latencies memoize across
      // engines (the sim depends only on NdpSpec + DRAM spec).
      ndp_sim_{shared_sim ? std::move(shared_sim)
                          : std::make_shared<ndp::NdpCoreSim>(sys_.ndp, sys_.monde_mem)},
      workload_{model_, profile, seed} {
  sys_.validate();
  model_.validate();
  MONDE_REQUIRE(model_.moe_every > 0, "InferenceEngine needs an MoE model");

  // The expert working set must be resident, sharded round-robin across the
  // MoNDE devices (Section 3.3); the devices are identical, so the check is
  // arithmetic and kernels price from the one shared simulator.
  if (sys_.num_monde_devices > 0) {
    check_model_fits(ndp_sim_->mem_spec(), model_, sys_.num_monde_devices);
  }
  strategy_ = make_strategy(kind, StrategyContext{.sys = &sys_,
                                                  .model = &model_,
                                                  .gpu = &gpu_,
                                                  .cpu = &cpu_,
                                                  .xformer = &xformer_,
                                                  .ndp = ndp_sim_.get()});
}

EngineState InferenceEngine::make_state(sim::Recording recording) const {
  EngineState st;
  st.sched = sim::StreamSchedule{recording};
  st.hw = HwStreams::create(st.sched, sys_);
  return st;
}

StepResult InferenceEngine::prefill(EngineState& st, std::int64_t batch,
                                    std::int64_t seq_len) {
  MONDE_REQUIRE(batch > 0 && seq_len > 0, "prefill needs tokens");
  moe::EncoderPass pass = workload_.encoder_pass(batch, seq_len);

  StepResult res;
  res.start = st.now;
  res.tokens = static_cast<std::uint64_t>(batch * seq_len);

  Duration t = st.now;
  std::size_t moe_idx = 0;
  for (int block = 0; block < model_.encoder_blocks; ++block) {
    const bool is_moe = model_.is_moe_block(block);
    const auto cost =
        xformer_.encoder_block(batch, seq_len, model_.dmodel, model_.dff, !is_moe);
    const Duration block_time = cost.total() + kFrameworkBlockOverhead;
    const auto iv = st.sched.place(
        st.hw.gpu, t, block_time, [block] { return "enc block " + std::to_string(block); },
        "block");
    st.non_moe += block_time;
    t = iv.end;
    if (is_moe) {
      MONDE_ASSERT(moe_idx < pass.moe_layers.size(), "MoE layer/work mismatch");
      const MoeLayerResult lr =
          strategy_->run_layer(pass.moe_layers[moe_idx], st.sched, st.hw, t);
      st.moe += lr.latency();
      if (st.sched.recording()) st.layers.push_back(lr);
      t = lr.end;
      ++moe_idx;
    }
  }
  MONDE_ASSERT(moe_idx == pass.moe_layers.size(), "unused MoE layer work");
  st.now = t;
  st.tokens += res.tokens;
  res.end = t;
  return res;
}

StepResult InferenceEngine::decode_step(EngineState& st, const std::vector<DecodeSlot>& slots,
                                        const std::vector<moe::MoeLayerWork>& works) {
  MONDE_REQUIRE(!slots.empty(), "decode step needs at least one active request");
  MONDE_REQUIRE(works.size() == static_cast<std::size_t>(model_.decoder_moe_layers()),
                "decode step needs one routed work per decoder MoE layer: got "
                    << works.size() << ", want " << model_.decoder_moe_layers());
  const std::int64_t batch = static_cast<std::int64_t>(slots.size());

  // Attention cost depends on each request's KV depth and encoder context;
  // group slots by (past_len, cross_len) so a uniform batch prices as one
  // batched block while a mixed continuous batch sums its depth groups, in
  // ascending (past_len, cross_len) order.
  std::vector<std::pair<std::int64_t, std::int64_t>> depths;
  depths.reserve(slots.size());
  for (const DecodeSlot& slot : slots) {
    MONDE_REQUIRE(slot.step >= 0, "decode slot depth must be >= 0, got " << slot.step);
    depths.emplace_back(slot.step + 1, slot.cross_len);
  }
  std::sort(depths.begin(), depths.end());
  const auto price_block = [&](bool is_moe) {
    Duration block_time = kFrameworkBlockOverhead;
    for (std::size_t i = 0; i < depths.size();) {
      std::size_t end = i + 1;
      while (end < depths.size() && depths[end] == depths[i]) ++end;
      block_time += xformer_
                        .decoder_block(static_cast<std::int64_t>(end - i), depths[i].first,
                                       depths[i].second, model_.dmodel, model_.dff, !is_moe)
                        .total();
      i = end;
    }
    return block_time;
  };
  // Every block of one kind (dense or MoE) costs the same within a step, so
  // each kind is priced once.
  std::optional<Duration> block_times[2];

  StepResult res;
  res.start = st.now;
  res.tokens = static_cast<std::uint64_t>(batch);
  // Shared by this step's labels; only a recording schedule formats them.
  const std::string step_tag =
      st.sched.recording() ? "dec s" + std::to_string(st.decode_steps) : std::string{};

  Duration t = st.now;
  std::size_t moe_idx = 0;
  for (int block = 0; block < model_.decoder_blocks; ++block) {
    const bool is_moe = model_.is_moe_block(block);
    std::optional<Duration>& priced = block_times[is_moe ? 1 : 0];
    if (!priced) priced = price_block(is_moe);
    const Duration block_time = *priced;
    const auto iv = st.sched.place(
        st.hw.gpu, t, block_time,
        [&] { return step_tag + " block " + std::to_string(block); }, "block");
    st.non_moe += block_time;
    t = iv.end;
    if (is_moe) {
      const MoeLayerResult lr = strategy_->run_layer(works[moe_idx], st.sched, st.hw, t);
      st.moe += lr.latency();
      if (st.sched.recording()) st.layers.push_back(lr);
      t = lr.end;
      ++moe_idx;
    }
  }
  // LM head projection over the vocabulary plus host-side step overhead
  // (sampling, KV-cache bookkeeping).
  const Duration lm = gpu_.gemm_time({batch, model_.vocab_size, model_.dmodel}, model_.dtype);
  const auto head = st.sched.place(st.hw.gpu, t, lm + kFrameworkStepOverhead,
                                   [&] { return "lm head " + step_tag; }, "block");
  st.non_moe += lm + kFrameworkStepOverhead;
  st.now = head.end;
  st.tokens += res.tokens;
  ++st.decode_steps;
  res.end = head.end;
  return res;
}

RunReport InferenceEngine::finish(EngineState&& st, std::string phase) const {
  RunReport report;
  report.strategy = strategy_->name();
  report.phase = std::move(phase);
  report.total = st.now;
  report.non_moe = st.non_moe;
  report.moe = st.moe;
  report.tokens = st.tokens;
  report.layers = std::move(st.layers);
  report.timeline = std::move(st.sched.timeline());
  report.stream_names = st.sched.stream_names();
  return report;
}

RunReport InferenceEngine::run_encoder(std::int64_t batch, std::int64_t seq_len) {
  MONDE_REQUIRE(batch > 0 && seq_len > 0, "encoder run needs tokens");
  EngineState st = make_state();
  prefill(st, batch, seq_len);
  return finish(std::move(st), "encoder");
}

RunReport InferenceEngine::run_decoder(std::int64_t batch, std::int64_t steps,
                                       std::int64_t cross_len) {
  MONDE_REQUIRE(batch > 0 && steps > 0, "decoder run needs tokens");
  EngineState st = make_state();
  const auto step_works = workload_.decoder_steps(batch, steps);

  std::vector<DecodeSlot> slots(static_cast<std::size_t>(batch));
  for (std::size_t b = 0; b < slots.size(); ++b) {
    slots[b].request_id = b;
    slots[b].cross_len = cross_len;
  }
  for (std::int64_t s = 0; s < steps; ++s) {
    for (DecodeSlot& slot : slots) slot.step = s;
    decode_step(st, slots, step_works[static_cast<std::size_t>(s)].moe_layers);
  }
  return finish(std::move(st), "decoder");
}

}  // namespace monde::core

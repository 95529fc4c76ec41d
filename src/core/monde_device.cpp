#include "core/monde_device.hpp"

#include "common/error.hpp"

namespace monde::core {

MondeDevice::MondeDevice(int device_id, std::shared_ptr<ndp::NdpCoreSim> sim)
    : id_{device_id}, sim_{std::move(sim)}, allocator_{sim_->mem_spec()} {
  MONDE_REQUIRE(sim_ != nullptr, "MondeDevice needs an NDP simulator");
}

void MondeDevice::place_expert(ExpertId eid, Bytes bytes) {
  MONDE_REQUIRE(!experts_.count(eid),
                "expert (layer " << eid.layer << ", expert " << eid.expert
                                 << ") already placed");
  const std::string tag =
      "expert L" + std::to_string(eid.layer) + "/E" + std::to_string(eid.expert);
  experts_.emplace(eid, allocator_.allocate(ndp::Partition::kWeights, bytes, tag));
}

void MondeDevice::place_model(const moe::MoeModelConfig& model, int num_devices) {
  MONDE_REQUIRE(num_devices >= 1, "need at least one device");
  const Bytes per_expert = model.expert_bytes();
  for (int layer = 0; layer < model.total_moe_layers(); ++layer) {
    for (int e = 0; e < model.num_experts; ++e) {
      if (e % num_devices == id_ % num_devices) {
        place_expert({layer, e}, per_expert);
      }
    }
  }
}

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

const DeviceBuffer& MondeDevice::expert_buffer(ExpertId eid) const {
  const auto it = experts_.find(eid);
  MONDE_REQUIRE(it != experts_.end(), "expert (layer " << eid.layer << ", expert "
                                                       << eid.expert << ") not resident");
  return it->second;
}

std::vector<interconnect::NdpInstruction> MondeDevice::compile_expert_op(
    ExpertId eid, std::uint32_t tokens, const moe::MoeModelConfig& model) {
  MONDE_REQUIRE(tokens > 0, "expert op needs tokens");
  const DeviceBuffer& wbuf = expert_buffer(eid);
  const auto elem =
      static_cast<std::uint64_t>(compute::bytes_per_element(model.dtype));
  const std::uint64_t act_in_bytes = tokens * static_cast<std::uint64_t>(model.dmodel) * elem;
  const std::uint64_t hidden_bytes = tokens * static_cast<std::uint64_t>(model.dff) * elem;

  // Activation staging: input, hidden (between the linears), output.
  DeviceBuffer in_buf =
      allocator_.allocate(ndp::Partition::kActivations, Bytes{act_in_bytes}, "act-in");
  DeviceBuffer hid_buf =
      allocator_.allocate(ndp::Partition::kActivations, Bytes{hidden_bytes}, "act-hidden");
  DeviceBuffer out_buf =
      allocator_.allocate(ndp::Partition::kActivations, Bytes{act_in_bytes}, "act-out");

  const std::uint64_t w1_bytes = wbuf.bytes.count() / 2;  // [dmodel x dff]
  const std::uint64_t w2_addr = allocator_.address_of(
      wbuf, wbuf.block_count / 2);  // second linear starts at the midpoint

  interconnect::NdpInstruction l1;
  l1.opcode = interconnect::Opcode::kGemmRelu;
  l1.act_fn = interconnect::ActFn::kRelu;
  l1.act_in = {in_buf.base_address, act_in_bytes};
  l1.weight = {wbuf.base_address, w1_bytes};
  l1.act_out = {hid_buf.base_address, hidden_bytes};
  l1.expert_id = static_cast<std::uint16_t>(eid.expert);
  l1.layer_id = static_cast<std::uint16_t>(eid.layer);
  l1.device_id = static_cast<std::uint8_t>(id_);
  l1.token_count = tokens;
  l1.kernel_seq = next_kernel_seq_++;

  interconnect::NdpInstruction l2;
  l2.opcode = interconnect::Opcode::kGemm;
  l2.act_fn = interconnect::ActFn::kNone;
  l2.act_in = {hid_buf.base_address, hidden_bytes};
  l2.weight = {w2_addr, wbuf.bytes.count() - w1_bytes};
  l2.act_out = {out_buf.base_address, act_in_bytes};
  l2.expert_id = static_cast<std::uint16_t>(eid.expert);
  l2.layer_id = static_cast<std::uint16_t>(eid.layer);
  l2.device_id = static_cast<std::uint8_t>(id_);
  l2.token_count = tokens;
  l2.kernel_seq = next_kernel_seq_++;

  return {l1, l2};
}

}  // namespace monde::core

// Unit tests for link timing models and the 64-B NDP instruction codec.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "interconnect/instruction.hpp"
#include "interconnect/link.hpp"

namespace monde::interconnect {
namespace {

TEST(LinkSpec, Gen4EffectiveBandwidth) {
  const LinkSpec l = LinkSpec::pcie_gen4_x16();
  EXPECT_NEAR(l.raw_bandwidth.as_gbps(), 31.5, 0.01);
  EXPECT_NEAR(l.effective_bandwidth().as_gbps(), 31.5 * 0.914, 0.1);
}

TEST(LinkSpec, GenerationsOrdered) {
  EXPECT_LT(LinkSpec::pcie_gen3_x16().raw_bandwidth.as_gbps(),
            LinkSpec::pcie_gen4_x16().raw_bandwidth.as_gbps());
}

TEST(LinkSpec, TransferTimeComposition) {
  const LinkSpec l = LinkSpec::pcie_gen4_x16();
  const Bytes payload = Bytes::mib(64);
  const Duration t = l.transfer_time(payload);
  const Duration streaming = transfer_time(payload, l.effective_bandwidth());
  EXPECT_NEAR(t.us(), (l.dma_setup + l.propagation + streaming).us(), 1e-9);
  // Monotone in payload.
  EXPECT_LT(l.transfer_time(Bytes::mib(1)), l.transfer_time(Bytes::mib(2)));
}

TEST(LinkSpec, SmallMessageSkipsDmaSetup) {
  const LinkSpec l = LinkSpec::cxl_mem_gen4_x16();
  EXPECT_LT(l.message_time(Bytes{64}), l.transfer_time(Bytes{64}));
  // A 64-B CXL message is sub-microsecond.
  EXPECT_LT(l.message_time(Bytes{64}).us(), 1.0);
}

TEST(LinkSpec, CxlFlitEfficiency) {
  const LinkSpec l = LinkSpec::cxl_mem_gen4_x16();
  EXPECT_NEAR(l.protocol_efficiency, 64.0 / 68.0, 1e-9);
}

TEST(LinkSpec, ValidateRejectsLinksThatCannotPriceATransfer) {
  for (const LinkSpec& preset : {LinkSpec::pcie_gen3_x16(), LinkSpec::pcie_gen4_x16(),
                                 LinkSpec::cxl_mem_gen4_x16()}) {
    EXPECT_NO_THROW(preset.validate()) << preset.name;
  }
  LinkSpec zero_rate = LinkSpec::pcie_gen4_x16();
  zero_rate.raw_bandwidth = Bandwidth::gbps(0.0);
  EXPECT_THROW(zero_rate.validate(), Error);
  LinkSpec nan_efficiency = LinkSpec::pcie_gen4_x16();
  nan_efficiency.protocol_efficiency = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(nan_efficiency.validate(), Error);
  LinkSpec negative_setup = LinkSpec::pcie_gen4_x16();
  negative_setup.dma_setup = Duration::micros(-1.0);
  EXPECT_THROW(negative_setup.validate(), Error);
}

// --- Instruction codec -------------------------------------------------------

NdpInstruction sample_instruction() {
  NdpInstruction i;
  i.opcode = Opcode::kGemmRelu;
  i.act_in = {0x1122334455667788ULL, 0x1000};
  i.weight = {0x99aabbccddeeff00ULL, 0x2000000};
  i.act_out = {0xdeadbeef12345678ULL, 0x1000};
  i.is_ndp = true;
  i.act_fn = ActFn::kRelu;
  i.expert_id = 127;
  i.layer_id = 11;
  i.device_id = 3;
  i.token_count = 12345;
  i.kernel_seq = 999;
  return i;
}

TEST(Instruction, EncodeDecodeRoundTrip) {
  const NdpInstruction original = sample_instruction();
  const NdpInstruction decoded = decode(encode(original));
  EXPECT_EQ(decoded, original);
}

TEST(Instruction, RoundTripFieldExtremes) {
  NdpInstruction i;
  i.opcode = Opcode::kGemm;
  i.act_in = {~std::uint64_t{0}, ~std::uint64_t{0}};
  i.weight = {0, 0};
  i.act_out = {1, 1};
  i.expert_id = 0xFFFF;
  i.layer_id = 0xFFFF;
  i.device_id = 0xFF;
  i.token_count = (1u << 20) - 1;
  i.kernel_seq = 0xFFFF;
  i.is_ndp = false;
  EXPECT_EQ(decode(encode(i)), i);
}

TEST(Instruction, RandomizedRoundTrip) {
  Rng rng{77};
  for (int trial = 0; trial < 500; ++trial) {
    NdpInstruction i;
    const Opcode ops[] = {Opcode::kNop, Opcode::kGemm, Opcode::kGemmRelu, Opcode::kGemmGelu,
                          Opcode::kBarrier};
    i.opcode = ops[rng.next_below(5)];
    i.act_in = {rng.next_u64(), rng.next_u64()};
    i.weight = {rng.next_u64(), rng.next_u64()};
    i.act_out = {rng.next_u64(), rng.next_u64()};
    i.is_ndp = (rng.next_u64() & 1) != 0;
    i.act_fn = static_cast<ActFn>(rng.next_below(3));
    i.expert_id = static_cast<std::uint16_t>(rng.next_u64());
    i.layer_id = static_cast<std::uint16_t>(rng.next_u64());
    i.device_id = static_cast<std::uint8_t>(rng.next_u64());
    i.token_count = static_cast<std::uint32_t>(rng.next_below(1u << 20));
    i.kernel_seq = static_cast<std::uint16_t>(rng.next_u64());
    EXPECT_EQ(decode(encode(i)), i);
  }
}

TEST(Instruction, WireSizeIs64Bytes) {
  static_assert(sizeof(InstructionBytes) == 64, "CXL RwD payload must be 64 bytes");
  SUCCEED();
}

TEST(Instruction, OpcodeInLowNibbleOfByte0) {
  NdpInstruction i = sample_instruction();
  i.opcode = Opcode::kGemm;  // == 1
  const InstructionBytes bytes = encode(i);
  EXPECT_EQ(bytes[0] & 0x0F, 1);
}

TEST(Instruction, TokenCountOverflowRejected) {
  NdpInstruction i = sample_instruction();
  i.token_count = 1u << 20;
  EXPECT_THROW((void)encode(i), Error);
}

TEST(Instruction, ReservedOpcodeRejected) {
  NdpInstruction i = sample_instruction();
  i.opcode = static_cast<Opcode>(9);
  EXPECT_THROW((void)encode(i), Error);

  // Craft a wire instruction with a reserved opcode.
  InstructionBytes bytes = encode(sample_instruction());
  bytes[0] = static_cast<std::uint8_t>((bytes[0] & 0xF0) | 0x0F);
  EXPECT_THROW((void)decode(bytes), Error);
}

TEST(Instruction, IsNdpFlitFlag) {
  NdpInstruction i = sample_instruction();
  i.is_ndp = true;
  EXPECT_TRUE(is_ndp_flit(encode(i)));
  i.is_ndp = false;
  EXPECT_FALSE(is_ndp_flit(encode(i)));
}

}  // namespace
}  // namespace monde::interconnect

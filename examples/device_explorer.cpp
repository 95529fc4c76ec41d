// Device explorer: the low-level MoNDE device APIs, bottom to top.
//
// Walks through what the host driver actually does for one expert offload:
// allocate device memory in the bank-partitioned layout, compile the
// gemm+relu / gemm kernels into 64-byte CXL NDP instructions, and run the
// cycle-level NDP + DRAM simulation, printing the memory-system statistics
// the paper's Ramulator-based methodology produces.
//
//   ./examples/device_explorer
#include <cstdio>

#include "core/monde_device.hpp"
#include "dram/dram_system.hpp"
#include "interconnect/instruction.hpp"

int main() {
  using namespace monde;

  const auto mem = dram::Spec::monde_lpddr5x_8533();
  const auto ndp_spec = ndp::NdpSpec::monde_dac24();
  const auto model = moe::MoeModelConfig::nllb_moe_128();

  std::printf("device memory: %s over %d channels (%s/channel), %d banks/rank, "
              "%s rows\n",
              mem.org.total_capacity().str().c_str(), mem.org.channels,
              mem.channel_peak_bandwidth().str().c_str(), mem.org.banks_per_rank(),
              mem.org.row_bytes().str().c_str());
  std::printf("NDP core: %d units of %dx%d MACs @ %.1f GHz = %.2f TFLOPS peak\n\n",
              ndp_spec.num_units, ndp_spec.pe_rows, ndp_spec.pe_cols, ndp_spec.clock_ghz,
              ndp_spec.peak_flops().as_tflops());

  // 1. Place one MoE layer's experts (bump-pointer, even banks).
  auto sim = std::make_shared<ndp::NdpCoreSim>(ndp_spec, mem);
  core::MondeDevice device{0, sim};
  for (int e = 0; e < model.num_experts; ++e) {
    device.place_expert({0, e}, model.expert_bytes());
  }
  std::printf("placed %lld experts (%s) in the weight partition\n",
              static_cast<long long>(model.num_experts),
              device.weights_used().str().c_str());

  // 2. Compile an expert op for 3 routed tokens into NDP instructions.
  const auto instrs = device.compile_expert_op({0, 17}, 3, model);
  std::printf("\ncompiled expert (layer 0, expert 17, 3 tokens) into %zu instructions:\n",
              instrs.size());
  for (const auto& inst : instrs) {
    const auto wire = interconnect::encode(inst);
    std::printf("  op=%d wgt=0x%012llx (%llu B) act_in=0x%012llx act_out=0x%012llx "
                "tokens=%u seq=%u\n",
                static_cast<int>(inst.opcode),
                static_cast<unsigned long long>(inst.weight.addr),
                static_cast<unsigned long long>(inst.weight.size),
                static_cast<unsigned long long>(inst.act_in.addr),
                static_cast<unsigned long long>(inst.act_out.addr), inst.token_count,
                inst.kernel_seq);
    std::printf("    wire[0..15]: ");
    for (int i = 0; i < 16; ++i) std::printf("%02x ", wire[static_cast<std::size_t>(i)]);
    std::printf("...\n");
  }

  // 3. Bank partitioning in action: decompose the operand addresses.
  const dram::AddressMapper mapper{mem};
  const auto w = mapper.decompose(instrs[0].weight.addr);
  const auto a = mapper.decompose(instrs[0].act_in.addr);
  std::printf("\nweight addr  -> ch%d ra%d bg%d ba%d row%d (flat bank %d: even)\n",
              w.channel, w.rank, w.bankgroup, w.bank, w.row, w.flat_bank(mem.org));
  std::printf("act-in addr  -> ch%d ra%d bg%d ba%d row%d (flat bank %d: odd)\n", a.channel,
              a.rank, a.bankgroup, a.bank, a.row, a.flat_bank(mem.org));

  // 4. Cycle-level execution across token counts (the Ramulator role).
  std::printf("\ncycle-level expert latencies (dmodel=%lld, dff=%lld):\n",
              static_cast<long long>(model.dmodel), static_cast<long long>(model.dff));
  for (const std::int64_t tokens : {std::int64_t{1}, std::int64_t{4}, std::int64_t{16},
                                    std::int64_t{64}}) {
    const auto r = device.sim().simulate_expert({tokens, model.dmodel, model.dff}, model.dtype);
    std::printf("  %3lld tokens: %10s  (%.1f GB/s achieved, row-hit %.1f%%, %s)\n",
                static_cast<long long>(tokens), r.latency.str().c_str(),
                r.achieved_bandwidth.as_gbps(), 100.0 * r.row_hit_rate,
                r.cycle_accurate ? "cycle-accurate" : "compute-bound fast path");
  }

  std::printf("\nthe 1-token expert is bandwidth-bound (the whole 64 MiB of weights\n"
              "stream through the arrays for 4 rows of output) -- the regime that\n"
              "makes near-data processing win for cold experts.\n");
  return 0;
}

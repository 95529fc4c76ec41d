// Disaggregated prefill/decode serving vs the unified fleet.
//
// The interference this bench stages is the one Splitwise/DistServe built
// whole systems around: under continuous batching, a long prompt admitted
// into a replica shares its step with every decode slot already there, so
// one heavy prefill inflates the inter-token latency of every co-located
// decode. A unified fleet eats that collision on every replica; a
// disaggregated fleet (serve/disagg.hpp) pays a priced KV handoff per
// request to keep decode replicas running pure-decode steps.
//
//   1. head-to-head -- the same bimodal trace (heavy prefills colliding
//      with deep decodes) on a unified N-replica fleet vs the same N
//      replicas split into prefill and decode pools. The binary FAILS
//      (non-zero exit) unless disaggregation beats the unified fleet on
//      TPOT p99 -- the decode-tail claim is the whole point of paying the
//      handoff tax. TTFT is reported honestly: the handoff transfer makes
//      it WORSE; this is a trade, not a free lunch.
//   2. pool split -- how the prefill/decode share moves both tails.
//   3. handoff link -- the same split over a slower interconnect: the
//      handoff tax grows in the TTFT tail while the TPOT win survives
//      (the shipped bytes never touch a decode step).
//
//   ./bench/serve_disagg                  full sweep
//   ./bench/serve_disagg --smoke          seconds-scale CI configuration
//   ./bench/serve_disagg --smoke --json f + deterministic metrics
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"

namespace {

using namespace monde;

/// Heavy prefills (long prompts, nearly no decode) merged with deep decodes
/// (short prompts, long generations) into one mixed trace -- exactly what a
/// unified fleet would see.
std::vector<serve::Request> interference_trace(int n_prefill_heavy, int n_decode_deep,
                                               double rate_per_s, std::uint64_t seed) {
  serve::RequestShape heavy;
  heavy.prompt_min = 512;
  heavy.prompt_max = 1024;
  heavy.new_tokens_min = 2;
  heavy.new_tokens_max = 4;
  serve::RequestShape deep;
  deep.prompt_min = 16;
  deep.prompt_max = 32;
  deep.new_tokens_min = 64;
  deep.new_tokens_max = 128;
  return bench::merge_traces(
      serve::poisson_trace(n_prefill_heavy, rate_per_s / 2.0, heavy, seed),
      serve::poisson_trace(n_decode_deep, rate_per_s / 2.0, deep, seed + 1));
}

struct RunResult {
  double tpot_p99 = 0.0;
  double ttft_p50 = 0.0;
  double e2e_p95 = 0.0;
  double tokens_per_s = 0.0;
  std::size_t handoffs = 0;
  double handoff_transfer_s = 0.0;
  double prefill_util = 0.0;
  double decode_util = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool smoke = args.smoke;
  bench::BenchMetrics metrics{"serve_disagg"};

  bench::banner("disaggregated serving",
                smoke ? "prefill/decode pools vs unified fleet (smoke)"
                      : "prefill/decode pools vs unified fleet under interference");

  const core::SystemConfig sys = core::SystemConfig::dac24();
  moe::MoeModelConfig model = moe::MoeModelConfig::switch_variant(512, 16);
  model.encoder_blocks = 4;
  model.decoder_blocks = 4;
  model.moe_every = 2;
  const moe::SkewProfile prof = moe::SkewProfile::switch_like();

  serve::SchedulerConfig sched;
  sched.token_budget = 1024;  // a heavy prompt fits in one step -- and owns it

  const std::size_t replicas = smoke ? 4 : 8;
  // The collision is a burst phenomenon: a flood of concurrent prompts is
  // what contaminates unified decode steps (spreading the same prompts out
  // lets the unified fleet absorb them one at a time). ~100 req/s/replica
  // keeps both pools busy without drowning the decode side.
  const int n_heavy = smoke ? 160 : 320;
  const int n_deep = smoke ? 160 : 320;
  const double rate_per_s = 100.0 * static_cast<double>(replicas);
  const std::vector<serve::Request> trace =
      interference_trace(n_heavy, n_deep, rate_per_s, /*seed=*/11);

  const auto run = [&](bool disagg, std::size_t prefill_share,
                       interconnect::LinkSpec link) {
    serve::ClusterConfig ccfg;
    ccfg.event_log_enabled = false;
    ccfg.threads = args.threads;
    if (disagg) {
      ccfg.disagg.enabled = true;
      ccfg.disagg.prefill_replicas = prefill_share;
      ccfg.disagg.handoff_link = link;
    }
    serve::ClusterSim cluster{
        sys, model, prof,
        serve::uniform_fleet(replicas, core::StrategyKind::kMondeLoadBalanced, sched),
        ccfg};
    const auto dispatcher =
        serve::make_dispatcher(serve::DispatchPolicy::kLeastOutstandingTokens, /*seed=*/17);
    const serve::ClusterReport rep = cluster.run(trace, *dispatcher);
    RunResult r;
    r.tpot_p99 = rep.tpot_ms.p99;
    r.ttft_p50 = rep.ttft_ms.p50;
    r.e2e_p95 = rep.e2e_ms.p95;
    r.tokens_per_s = rep.tokens_per_s;
    r.handoffs = rep.handoffs;
    r.handoff_transfer_s = rep.handoff_transfer_s;
    r.prefill_util = rep.prefill_pool.utilization;
    r.decode_util = rep.decode_pool.utilization;
    return r;
  };
  const auto emit = [&](const std::string& key, const RunResult& r) {
    metrics.add(key + ".tpot_p99_ms", r.tpot_p99);
    metrics.add(key + ".ttft_p50_ms", r.ttft_p50);
    metrics.add(key + ".e2e_p95_ms", r.e2e_p95);
    metrics.add(key + ".tokens_per_s", r.tokens_per_s);
  };

  // Prefill is compute-dense but brief: the sweet spot leaves most of the
  // fleet decoding. Section 2 sweeps the split; the headline uses this one.
  const std::size_t base_share = std::max<std::size_t>(1, replicas / 4);

  // --- 1. Head-to-head ------------------------------------------------------
  std::printf("--- head-to-head: %zu replicas, %d heavy prefills + %d deep decodes ---\n",
              replicas, n_heavy, n_deep);
  const RunResult unified = run(false, 0, interconnect::LinkSpec::pcie_gen4_x16());
  const RunResult disagg =
      run(true, base_share, interconnect::LinkSpec::pcie_gen4_x16());
  {
    Table table{{"fleet", "tok/s", "TPOT p99 (ms)", "TTFT p50 (ms)", "E2E p95 (ms)",
                 "handoffs", "handoff link-s"}};
    table.add_row({"unified", Table::num(unified.tokens_per_s, 1),
                   Table::num(unified.tpot_p99, 3), Table::num(unified.ttft_p50, 3),
                   Table::num(unified.e2e_p95, 2), "0", "0"});
    table.add_row({"disaggregated", Table::num(disagg.tokens_per_s, 1),
                   Table::num(disagg.tpot_p99, 3), Table::num(disagg.ttft_p50, 3),
                   Table::num(disagg.e2e_p95, 2), std::to_string(disagg.handoffs),
                   Table::num(disagg.handoff_transfer_s, 4)});
    std::printf("%s\n", table.str().c_str());
    emit("unified", unified);
    emit("disagg", disagg);
    metrics.add("disagg.handoffs", static_cast<double>(disagg.handoffs));
    metrics.add("disagg.handoff_transfer_s", disagg.handoff_transfer_s);
    metrics.add("disagg.prefill_util", disagg.prefill_util);
    metrics.add("disagg.decode_util", disagg.decode_util);
  }

  // --- 2. Pool split --------------------------------------------------------
  {
    std::printf("--- pool split: prefill share of the same %zu replicas ---\n", replicas);
    Table table{{"prefill/decode", "tok/s", "TPOT p99 (ms)", "TTFT p50 (ms)",
                 "prefill util", "decode util"}};
    for (std::size_t share = 1; share < replicas; ++share) {
      if (smoke && share != 1 && share != base_share && share != replicas - 1) continue;
      const RunResult r = run(true, share, interconnect::LinkSpec::pcie_gen4_x16());
      const std::string split =
          std::to_string(share) + "p/" + std::to_string(replicas - share) + "d";
      table.add_row({split, Table::num(r.tokens_per_s, 1), Table::num(r.tpot_p99, 3),
                     Table::num(r.ttft_p50, 3), Table::num(100.0 * r.prefill_util, 1) + "%",
                     Table::num(100.0 * r.decode_util, 1) + "%"});
      emit("split." + std::to_string(share) + "p", r);
    }
    std::printf("%s\n", table.str().c_str());
  }

  // --- 3. Handoff link ------------------------------------------------------
  {
    std::printf("--- handoff link: the KV transfer tax at the same %zup/%zud split ---\n",
                base_share, replicas - base_share);
    Table table{{"link", "TPOT p99 (ms)", "TTFT p50 (ms)", "handoff link-s"}};
    struct Link {
      const char* name;
      interconnect::LinkSpec spec;
    };
    for (const Link& l : {Link{"pcie_gen4_x16", interconnect::LinkSpec::pcie_gen4_x16()},
                          Link{"pcie_gen3_x16", interconnect::LinkSpec::pcie_gen3_x16()}}) {
      const RunResult r = run(true, base_share, l.spec);
      table.add_row({l.name, Table::num(r.tpot_p99, 3), Table::num(r.ttft_p50, 3),
                     Table::num(r.handoff_transfer_s, 4)});
      metrics.add(std::string{"link."} + l.name + ".tpot_p99_ms", r.tpot_p99);
      metrics.add(std::string{"link."} + l.name + ".ttft_p50_ms", r.ttft_p50);
      metrics.add(std::string{"link."} + l.name + ".handoff_transfer_s",
                  r.handoff_transfer_s);
    }
    std::printf("%s\n", table.str().c_str());
  }

  std::printf("Pool specialization keeps decode replicas running pure-decode steps, so\n"
              "the decode tail stops paying for other requests' prompts; the bill moves\n"
              "to TTFT, which now carries a priced KV handoff per request.\n");

  metrics.write(args.json_path);

  // The acceptance gate this bench exists for: under prefill/decode
  // interference, disaggregation must beat the unified fleet on TPOT p99.
  if (disagg.tpot_p99 >= unified.tpot_p99) {
    std::printf("FAIL: disagg TPOT p99 (%.3f ms) did not beat unified (%.3f ms)\n",
                disagg.tpot_p99, unified.tpot_p99);
    return 1;
  }
  std::printf("disagg TPOT p99 %.3f ms < unified %.3f ms (%.1f%% of the unified tail)\n",
              disagg.tpot_p99, unified.tpot_p99,
              100.0 * disagg.tpot_p99 / unified.tpot_p99);
  return 0;
}

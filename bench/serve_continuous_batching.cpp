// Continuous vs fixed batching under a Poisson arrival trace.
//
// Serving-side counterpart of the paper's single-run evaluation: the same
// request trace is replayed under the classic fixed-batch policy and under
// continuous batching, for each expert-execution strategy. Reports aggregate
// tokens/s plus TTFT / end-to-end latency percentiles per configuration, and
// for each strategy which of tok/s, TTFT p99 and E2E p99 continuous batching
// improves, computed from those rows.
// It is the one bench that drives ServerSim::run() and fixed batching.
//
//   ./bench/serve_continuous_batching [--json <path>]
//
// The run is already smoke-sized (32 requests, under a second), so --smoke
// changes nothing. --json writes tok/s, TTFT p99 and E2E p99 per
// configuration for the budget gate (bench/budgets.json).
#include <cctype>
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "serve/arrivals.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) {
  using namespace monde;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::BenchMetrics metrics{"serve_continuous_batching"};

  bench::banner("serving", "continuous vs fixed batching, Poisson open-loop trace");

  const core::SystemConfig sys = core::SystemConfig::dac24();
  // A scaled-down Switch-style model keeps the cycle-level NDP runs quick
  // while preserving the routing skew that drives the strategy differences.
  moe::MoeModelConfig model = moe::MoeModelConfig::switch_variant(768, 64);
  model.encoder_blocks = 8;
  model.decoder_blocks = 8;
  model.moe_every = 2;
  const moe::SkewProfile prof = bench::profile_for(model);

  serve::RequestShape shape;
  shape.prompt_min = 64;
  shape.prompt_max = 256;
  shape.new_tokens_min = 8;
  shape.new_tokens_max = 32;
  const auto trace = serve::poisson_trace(32, /*rate_per_s=*/12.0, shape, /*seed=*/7);

  serve::SchedulerConfig cfg;
  cfg.token_budget = 512;

  std::printf("trace: %zu requests, prompts %lld-%lld tokens, %lld-%lld new tokens\n\n",
              trace.size(), static_cast<long long>(shape.prompt_min),
              static_cast<long long>(shape.prompt_max),
              static_cast<long long>(shape.new_tokens_min),
              static_cast<long long>(shape.new_tokens_max));

  Table table{{"strategy", "batching", "tok/s", "TTFT p50 (ms)", "TTFT p99 (ms)",
               "E2E p50 (ms)", "E2E p99 (ms)"}};
  // Continuous-vs-fixed verdict per strategy, computed from the rows above.
  struct Measured {
    double tokens_per_s, ttft_p99_ms, e2e_p99_ms;
  };
  std::string verdicts;
  int strategies = 0, clean_wins = 0;
  bench::EngineFactory factory;
  for (const auto kind : {core::StrategyKind::kGpuPmove, core::StrategyKind::kMondeAmove,
                          core::StrategyKind::kMondeLoadBalanced}) {
    Measured fixed{};
    for (const auto mode : {serve::BatchingMode::kFixed, serve::BatchingMode::kContinuous}) {
      cfg.mode = mode;
      core::InferenceEngine engine = factory.make(sys, model, prof, kind, /*seed=*/42);
      serve::ServerSim sim{engine, cfg};
      const serve::ServeReport rep = sim.run(trace);
      table.add_row({rep.strategy, rep.mode, Table::num(rep.tokens_per_s, 1),
                     Table::num(rep.ttft_ms.p50, 2), Table::num(rep.ttft_ms.p99, 2),
                     Table::num(rep.e2e_ms.p50, 2), Table::num(rep.e2e_ms.p99, 2)});
      // "GPU+PM" -> "gpu_pm.fixed.", and so on.
      std::string key;
      for (const char c : rep.strategy) {
        key += c == '+' ? '_' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      key += '.';
      key += rep.mode;
      key += '.';
      metrics.add(key + "tokens_per_s", rep.tokens_per_s);
      metrics.add(key + "ttft_p99_ms", rep.ttft_ms.p99);
      metrics.add(key + "e2e_p99_ms", rep.e2e_ms.p99);
      const Measured m{rep.tokens_per_s, rep.ttft_ms.p99, rep.e2e_ms.p99};
      if (mode == serve::BatchingMode::kFixed) {
        fixed = m;
        continue;
      }
      // Each metric: fixed -> continuous, its relative change, and whether
      // continuous batching is better on it.
      bool all_better = true;
      auto compare = [&](const char* name, double before, double after, bool higher_better) {
        const bool better = higher_better ? after > before : after < before;
        all_better = all_better && better;
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s %.1f -> %.1f (%+.1f%%, %s)", name, before, after,
                      100.0 * (after - before) / before, better ? "better" : "worse");
        return std::string{buf};
      };
      verdicts += "  ";
      verdicts += rep.strategy;
      verdicts += ": ";
      verdicts += compare("tok/s", fixed.tokens_per_s, m.tokens_per_s, true);
      verdicts += "; ";
      verdicts += compare("TTFT p99 ms", fixed.ttft_p99_ms, m.ttft_p99_ms, false);
      verdicts += "; ";
      verdicts += compare("E2E p99 ms", fixed.e2e_p99_ms, m.e2e_p99_ms, false);
      verdicts += '\n';
      ++strategies;
      if (all_better) ++clean_wins;
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Continuous vs fixed batching, per strategy:\n%s", verdicts.c_str());
  std::printf("Continuous batching is better on all three metrics for %d of %d strategies.\n",
              clean_wins, strategies);
  factory.report_memo_stats();
  metrics.write(args.json_path);
  return 0;
}

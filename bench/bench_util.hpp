// Shared helpers for the figure/table reproduction benches.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation: it builds the platform, runs the simulation, and prints the
// same rows/series the paper reports (plus our measured values).
#pragma once

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/engine.hpp"
#include "core/load_balancer.hpp"
#include "serve/request.hpp"

namespace monde::bench {

/// Command-line surface shared by the CI-facing benches:
///   [--smoke]          seconds-scale configuration (fast CI runs it)
///   [--json <path>]    also emit deterministic metrics as JSON (the bench
///                      regression gate: scripts/check_bench_budget.py
///                      compares them against bench/budgets.json)
///   [--threads <n>]    worker threads for the cluster benches' parallel
///                      advancement phase (ClusterConfig::threads). Results
///                      are bit-identical across thread counts -- the 132
///                      pinned budget metrics never move -- only wall-clock
///                      does. Default 1.
///   [--perf <path>]    write a wall-clock record as JSON for the perf-trend
///                      gate (scripts/check_perf_trend.py). Measured time,
///                      NOT deterministic -- kept separate from --json.
struct BenchArgs {
  bool smoke = false;
  std::string json_path;  ///< empty = no JSON output
  std::string perf_path;  ///< empty = no wall-clock perf record
  std::size_t threads = 1;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg{argv[i]};
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--json") {
      MONDE_REQUIRE(i + 1 < argc, "--json needs a <path> argument");
      args.json_path = argv[++i];
    } else if (arg == "--perf") {
      MONDE_REQUIRE(i + 1 < argc, "--perf needs a <path> argument");
      args.perf_path = argv[++i];
    } else if (arg == "--threads") {
      MONDE_REQUIRE(i + 1 < argc, "--threads needs a count argument");
      const std::string value{argv[++i]};
      std::size_t pos = 0;
      unsigned long n = 0;
      try {
        n = std::stoul(value, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      MONDE_REQUIRE(pos == value.size() && n >= 1,
                    "--threads needs a positive integer, got '" << value << "'");
      args.threads = static_cast<std::size_t>(n);
    } else {
      MONDE_REQUIRE(false, "unknown bench argument '"
                               << arg
                               << "' (expected --smoke / --json <path> / --perf <path> / "
                                  "--threads <n>)");
    }
  }
  return args;
}

/// This process's peak resident set in MiB: `VmHWM` from /proc/self/status
/// (kB), which covers this program image only. getrusage's ru_maxrss is not
/// used because on Linux it carries the launching process's peak across
/// exec. nullopt where the file or the line cannot be read.
inline std::optional<double> peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields{line.substr(6)};
    double kb = 0.0;
    return fields >> kb ? std::optional{kb / 1024.0} : std::nullopt;
  }
  return std::nullopt;
}

/// One wall-clock measurement for the perf-trend gate. Unlike BenchMetrics
/// this is MEASURED time and varies run to run, so it lives in its own file
/// that the budget gate never reads; scripts/check_perf_trend.py appends it
/// (dated) to the retained perf history and gates the trend. No-op when
/// `path` is empty (no --perf given).
/// The optional per-phase split (ClusterConfig::measure_phases): negative
/// values mean "not measured" and the keys are omitted from the record, so
/// pre-existing perf histories and non-cluster benches are unaffected.
/// Every record also carries `peak_rss_mb`, the process's peak resident set
/// so far (peak_rss_mb() below), omitted when it cannot be read.
inline void write_perf_record(const std::string& path, const std::string& bench,
                              std::size_t threads, double wall_s,
                              double advance_s = -1.0, double dispatch_s = -1.0,
                              double commit_s = -1.0) {
  if (path.empty()) return;
  std::ofstream out{path};
  MONDE_REQUIRE(out.good(), "cannot open --perf path '" << path << "' for writing");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", wall_s);
  out << "{\"bench\": \"" << bench << "\", \"threads\": " << threads << ", \"wall_s\": " << buf;
  const auto phase = [&](const char* key, double value) {
    if (value < 0.0) return;
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    out << ", \"" << key << "\": " << buf;
  };
  phase("advance_s", advance_s);
  phase("dispatch_s", dispatch_s);
  phase("commit_s", commit_s);
  if (const std::optional<double> rss = peak_rss_mb()) phase("peak_rss_mb", *rss);
  out << "}\n";
  MONDE_REQUIRE(out.good(), "failed writing --perf output to '" << path << "'");
  std::printf("wrote perf record to %s\n", path.c_str());
}

/// Deterministic simulated-metric sink for the bench regression gate: flat
/// name -> value pairs, written as sorted JSON so diffs are stable. Values
/// are simulated quantities (tokens/s, percentile latencies, utilization)
/// -- never wall-clock -- so the same binary always writes the same file.
class BenchMetrics {
 public:
  explicit BenchMetrics(std::string bench) : bench_{std::move(bench)} {}

  void add(const std::string& name, double value) { metrics_[name] = value; }

  /// Write the metrics JSON; no-op when `path` is empty (no --json given).
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out{path};
    MONDE_REQUIRE(out.good(), "cannot open --json path '" << path << "' for writing");
    out << "{\n  \"bench\": \"" << bench_ << "\",\n  \"metrics\": {";
    const char* sep = "\n";
    for (const auto& [name, value] : metrics_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", value);
      out << sep << "    \"" << name << "\": " << buf;
      sep = ",\n";
    }
    out << "\n  }\n}\n";
    MONDE_REQUIRE(out.good(), "failed writing --json output to '" << path << "'");
    std::printf("wrote %zu metric(s) to %s\n", metrics_.size(), path.c_str());
  }

 private:
  std::string bench_;
  std::map<std::string, double> metrics_;  ///< sorted -> deterministic output
};

/// Banner with the figure/table id and a one-line description.
inline void banner(const std::string& id, const std::string& what) {
  std::cout << "\n=== " << id << ": " << what << " ===\n"
            << "(simulated reproduction; docs/BENCHMARKS.md lists what each bench reproduces)\n\n";
}

/// Engine factory that shares one NDP simulator per (system, model dims)
/// so expert-shape latencies memoize across strategies and batch sizes.
class EngineFactory {
 public:
  core::InferenceEngine make(const core::SystemConfig& sys, const moe::MoeModelConfig& model,
                             const moe::SkewProfile& prof, core::StrategyKind kind,
                             std::uint64_t seed = 42) {
    const Key key{sys.monde_mem.data_rate_mtps, sys.ndp.clock_ghz, sys.ndp.num_units};
    auto& sim = sims_[key];
    if (!sim) sim = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
    return core::InferenceEngine{sys, model, prof, kind, seed, sim};
  }

  /// Memo-cache effectiveness across every simulator this factory created
  /// (NdpCoreSim::memo_hits/memo_misses): how much cycle-level simulation
  /// the shape memoization avoided.
  void report_memo_stats() const {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const auto& [key, sim] : sims_) {
      if (!sim) continue;
      hits += sim->memo_hits();
      misses += sim->memo_misses();
    }
    const std::uint64_t lookups = hits + misses;
    std::printf("\nNDP shape-memo: %llu lookups, %llu cycle-level sims avoided (%.1f%% hit rate)\n",
                static_cast<unsigned long long>(lookups), static_cast<unsigned long long>(hits),
                lookups == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                         static_cast<double>(lookups));
  }

 private:
  using Key = std::tuple<double, double, int>;
  std::map<Key, std::shared_ptr<ndp::NdpCoreSim>> sims_;
};

/// The skew profile the paper's workloads exhibit for each model.
inline moe::SkewProfile profile_for(const moe::MoeModelConfig& model) {
  return model.top_k >= 2 ? moe::SkewProfile::nllb_like() : moe::SkewProfile::switch_like();
}

/// Two traces merged into one (arrival, id)-ordered trace; `a` wins arrival
/// ties. Ids are reassigned after the merge, so the result is
/// indistinguishable from a single mixed workload.
inline std::vector<serve::Request> merge_traces(std::vector<serve::Request> a,
                                                const std::vector<serve::Request>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::stable_sort(a.begin(), a.end(), [](const serve::Request& x, const serve::Request& y) {
    return x.arrival < y.arrival;
  });
  for (std::size_t i = 0; i < a.size(); ++i) a[i].id = i;
  return a;
}

/// Decoder steps simulated per run: enough for steady-state averages while
/// keeping the cycle-level runs tractable.
constexpr std::int64_t kDecoderSteps = 16;

}  // namespace monde::bench

// Benchmark harness: runs one workload in this process and prints its
// metrics, the last line as one JSON object. perfbench/run.py builds it,
// checks the simulated answers against perfbench/reference.json and prints
// the benchmark's result line.
//
//   perf_harness --workload <fleet_steady|fleet_churn|device_cold> --seed <n>
//                --seconds <s> --trace <0|1> [--trace-out <chrome-trace.json>]
//
// Untraced (--trace 0): set up and time the workload's call until --seconds
// of timed calls have run (at least one); report the host time of the
// fastest call stretch by stretch (see measure()) and the fastest set-up
// time. Traced (--trace 1): one untraced pass, then
// traced passes with spans around the harness's calls and the cluster's
// phase timers on, then the per-layer replays (layers.hpp).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using monde::serve::ClusterReport;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key{argv[i]};
    const std::string value{argv[i + 1]};
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !have_seed || !(a.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: perf_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  return a;
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// One set-up plus one timed call, with its host costs and checked outcome.
struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<ClockMark> marks;  ///< the timed call's, from its start to its end
  Outcome outcome;
  ClusterReport report;                        ///< fleets
  std::shared_ptr<monde::ndp::NdpCoreSim> sim; ///< device_cold: the run's NDP simulator

  [[nodiscard]] double tokens_per_host_s() const { return outcome.sim_tokens / wall_s; }

  void set_marks(std::vector<ClockMark> m) {
    marks = std::move(m);
    wall_s = static_cast<double>(marks.back().wall_ns - marks.front().wall_ns) * 1e-9;
  }
};

Pass fleet_pass(const FleetConfig& cfg, Tracer* tr, HostSpeed* probe = nullptr) {
  Pass p;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<FleetRun> run;
  {
    Scope s{tr, "setup"};
    run = std::make_unique<FleetRun>(cfg, probe);
  }
  p.setup_s = seconds_since(t0);
  {
    Scope s{tr, "serve.cluster.run"};
    p.report = run->run();
  }
  p.set_marks(run->marks());
  p.outcome = run->check(p.report);
  return p;
}

Pass device_pass(std::uint64_t seed, Tracer* tr,
                 std::shared_ptr<monde::ndp::NdpCoreSim> sim = nullptr) {
  Pass p;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<DeviceRun> run;
  {
    Scope s{tr, "setup"};
    run = std::make_unique<DeviceRun>(seed, std::move(sim));
  }
  p.setup_s = seconds_since(t0);
  std::vector<ClockMark> marks{ClockMark::now()};
  std::vector<CaseResult> results;
  {
    Scope s{tr, "device.sweep"};
    results = run->run(tr);
  }
  marks.push_back(ClockMark::now());
  p.set_marks(std::move(marks));
  p.outcome = run->check(results);
  p.sim = run->sim();
  return p;
}

const char* sim_unit(const std::string& name) {
  if (name == "sim_tokens_per_s") return "tok/s";
  if (name == "sim_replica_seconds") return "s";
  if (name == "sim_md_lb_speedup") return "x";
  if (name == "sim_paper_error_pct") return "%";
  return "ms";
}

/// Set-up is timed at least this often per run; set-up time is the fastest.
constexpr std::size_t kSetupSamples = 101;
/// Extra set-ups timed after each timed call, so the samples spread over
/// the run and a burst of host noise cannot move all of them at once.
constexpr int kSetupsPerCall = 10;

/// The seed of bench/serve_scale's trace.
constexpr std::uint64_t kServeScaleSeed = 7;

struct Result {
  Metrics metrics;
  SimValues sim;
  SimValues serve_scale;  ///< traced fleet_steady, seed kServeScaleSeed: the smoke-size answers
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  /// Adds a checked pass's operations to the run's totals.
  void count(const Pass& p) {
    attempted += p.outcome.attempted;
    failed += p.outcome.failed;
  }
};

/// Host-speed samples after each timed call, at least.
constexpr int kProbesPerCall = 20;
/// Host-speed samples per run, at least.
constexpr std::size_t kProbeSamples = 200;

Result measure(const Args& a) {
  Result r;
  const bool device = a.workload == "device_cold";
  const FleetConfig fleet =
      a.workload == "fleet_churn" ? fleet_churn(a.seed) : fleet_steady(a.seed);
  HostSpeed speed;
  const auto pass = [&] {
    return device ? device_pass(a.seed, nullptr) : fleet_pass(fleet, nullptr, &speed);
  };
  std::vector<double> setups, tph;
  std::vector<std::vector<ClockMark>> calls;
  double sim_tokens = 0.0;
  double measured = 0.0;
  double peak_rss = 0.0;
  // Construction only: the clock is read before the object is torn down,
  // as in fleet_pass and device_pass.
  const auto time_setup = [&] {
    const std::int64_t t0 = now_ns();
    if (device) {
      const DeviceRun run{a.seed};
      setups.push_back(seconds_since(t0));
    } else {
      const FleetRun run{fleet};
      setups.push_back(seconds_since(t0));
    }
  };
  while (tph.empty() || measured < a.seconds) {
    const Pass p = pass();
    if (tph.empty()) {
      // Peak memory of one set-up plus one call: later calls reuse (and
      // fragment) the heap, so their count must not move the figure.
      peak_rss = peak_rss_mib();
      r.sim = p.outcome.sim;
      sim_tokens = p.outcome.sim_tokens;
    } else if (p.outcome.sim != r.sim || p.marks.size() != calls.front().size()) {
      r.problems.push_back("simulated answers differ between timed calls of one run");
    }
    setups.push_back(p.setup_s);
    tph.push_back(p.tokens_per_host_s());
    calls.push_back(p.marks);
    measured += p.wall_s;
    r.count(p);
    for (int i = 0; i < kSetupsPerCall; ++i) time_setup();
    speed.sample(kProbesPerCall);
  }
  while (setups.size() < kSetupSamples) time_setup();
  while (speed.samples() < kProbeSamples) speed.sample();
  // Host interference only ever adds time, so the fastest set-up, and for
  // each stretch of the timed call between two clock marks the fastest of
  // the run's calls, are the steadiest estimates of the simulator's own cost.
  // On a shared 4-vCPU host the same call's speed switched between levels up
  // to 2x apart within seconds, so a call is rarely fast throughout, while
  // each of its stretches usually is in some call. What remains, the host's
  // drift over minutes, is scaled out with the host-speed probe
  // (host_speed.hpp).
  double wall_s = 0.0;
  double cpu_s = 0.0;
  const std::size_t stretches = calls.front().size() - 1;
  for (std::size_t w = 1; w <= stretches; ++w) {
    double best_wall = std::numeric_limits<double>::infinity();
    double best_cpu = best_wall;
    for (const auto& m : calls) {
      if (m.size() != stretches + 1) continue;  // reported above
      best_wall = std::min(best_wall, static_cast<double>(m[w].wall_ns - m[w - 1].wall_ns) * 1e-9);
      best_cpu = std::min(best_cpu, m[w].cpu_s - m[w - 1].cpu_s);
    }
    wall_s += best_wall;
    cpu_s += best_cpu;
  }
  const double scale = speed.scale();
  const double setup_s = *std::min_element(setups.begin(), setups.end());
  r.metrics["setup_s"] = {setup_s * scale, "s"};
  r.metrics["sim_tokens_per_host_s"] = {sim_tokens / (wall_s * scale), "tok/s"};
  r.metrics["host_cpu_s"] = {cpu_s * scale, "s"};
  r.metrics["peak_rss_mb"] = {peak_rss, "MiB"};
  for (const auto& [name, value] : r.sim) {
    if (name.rfind("sim_", 0) == 0) r.metrics[name] = {value, sim_unit(name)};
  }
  std::printf("%s seed %llu: %zu timed call(s) of %zu stretch(es) over %.2f s, %zu set-ups\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), calls.size(),
              stretches, measured, setups.size());
  std::printf("  tokens per host second by call:");
  for (const double v : tph) std::printf(" %.6g", v);
  std::printf("\n  fastest stretches together: %.6g s wall, %.6g s CPU; fastest set-up %.6g s\n",
              wall_s, cpu_s, setup_s);
  std::printf("  host-speed probe: fastest %.4f ms of %zu, host times scaled by %.4f\n",
              speed.fastest_ms(), speed.samples(), scale);
  return r;
}

/// Cluster-layer metrics of one traced fleet: `traced` ran with the phase
/// timers on at the workload's thread count, `other` at the other count.
void cluster_metrics(const Pass& traced, const Pass& other, std::size_t threads, Metrics& m) {
  const ClusterReport& rep = traced.report;
  m["serve.cluster.advance_s"] = {rep.phase_advance_s, "s"};
  m["serve.cluster.dispatch_s"] = {rep.phase_dispatch_s, "s"};
  m["serve.cluster.commit_s"] = {rep.phase_commit_s, "s"};
  m["serve.cluster.advance_share"] = {rep.phase_advance_s / traced.wall_s, "ratio"};
  const double one = threads == 1 ? rep.phase_advance_s : other.report.phase_advance_s;
  const double two = threads == 1 ? other.report.phase_advance_s : rep.phase_advance_s;
  m["serve.cluster.parallel_efficiency"] = {one / (2.0 * two), "ratio"};
  m["serve.cluster.retries"] = {static_cast<double>(rep.retries), "count"};
  m["serve.cluster.migrations"] = {static_cast<double>(rep.migrations), "count"};
  m["serve.cluster.peak_replicas"] = {static_cast<double>(rep.peak_replicas), "count"};
  m["serve.cluster.expert_migrations"] = {static_cast<double>(rep.expert_migrations), "count"};
  std::vector<double> waits;
  waits.reserve(rep.requests.size());
  for (const auto& rq : rep.requests) waits.push_back((rq.admitted - rq.arrival).ms());
  m["serve.scheduler.queue_wait_p50_ms"] = {monde::percentile(waits, 50.0), "ms"};
  m["serve.scheduler.queue_wait_p99_ms"] = {monde::percentile(waits, 99.0), "ms"};
  const double prompt_tokens =
      traced.outcome.sim_tokens - static_cast<double>(rep.generated_tokens);
  m["serve.kvcache.cached_token_share"] = {
      static_cast<double>(rep.cached_prefill_tokens) / prompt_tokens, "ratio"};
  double evictions = 0.0;
  for (const auto& replica : rep.replicas) {
    evictions += static_cast<double>(replica.serve.cache.evictions);
  }
  m["serve.kvcache.evictions"] = {evictions, "count"};
  m["core.expert_cache.fleet_hit_ratio"] = {rep.expert_hit_rate, "ratio"};
}

/// The traced fleet passes: the workload's thread count with phase timers
/// and spans (returned), then the other of one and two threads for the
/// efficiency.
Pass traced_fleet(const FleetConfig& cfg, Tracer& tr, Result& r) {
  FleetConfig timed = cfg;
  timed.cluster.measure_phases = true;
  Pass traced = fleet_pass(timed, &tr);
  FleetConfig other = timed;
  other.cluster.threads = cfg.cluster.threads == 1 ? 2 : 1;
  const Pass o = fleet_pass(other, &tr);
  if (o.outcome.sim != traced.outcome.sim) {
    r.problems.push_back("simulated answers differ between 1 and 2 threads");
  }
  r.count(traced);
  r.count(o);
  cluster_metrics(traced, o, cfg.cluster.threads, r.metrics);
  return traced;
}

Result measure_traced(const Args& a) {
  Result r;
  Tracer tr;
  const bool device = a.workload == "device_cold";
  Pass untraced;
  Pass traced;
  LayerSetup layers;
  MemoCounts cold_memo;
  {
    Scope root{&tr, "workload"};
    if (device) {
      untraced = device_pass(a.seed, nullptr);
      traced = device_pass(a.seed, &tr);
      const auto hits = static_cast<double>(traced.sim->memo_hits());
      cold_memo = {hits, hits + static_cast<double>(traced.sim->memo_misses())};
      // Same shapes again on the now-warm simulator: the difference is the
      // cycle-level NDP/DRAM simulation the cold sweep paid for.
      const Pass warm = device_pass(a.seed, &tr, traced.sim);
      if (warm.outcome.sim != traced.outcome.sim) {
        r.problems.push_back("simulated answers differ between cold and warm sweeps");
      }
      r.count(traced);
      r.count(warm);
      r.metrics["ndp.cold_share"] = {(traced.wall_s - warm.wall_s) / traced.wall_s, "ratio"};
      const FleetConfig ref = reference_fleet(a.seed);
      (void)traced_fleet(ref, tr, r);
      layers = layer_setup(ref, monde::moe::MoeModelConfig::switch_large_128());
    } else {
      const FleetConfig cfg =
          a.workload == "fleet_churn" ? fleet_churn(a.seed) : fleet_steady(a.seed);
      untraced = fleet_pass(cfg, nullptr);
      traced = traced_fleet(cfg, tr, r);
      layers = layer_setup(cfg, cfg.model);
      if (a.workload == "fleet_steady" && a.seed == kServeScaleSeed) {
        // fleet_steady at bench/serve_scale's smoke size, whose answers
        // bench/budgets.json pins (run.py compares them).
        const Pass smoke = fleet_pass(serve_scale_smoke(a.seed), &tr);
        r.count(smoke);
        r.serve_scale = smoke.outcome.sim;
      }
    }
    replay_layers(layers, tr, r.metrics, device ? &cold_memo : nullptr);
  }
  if (untraced.outcome.sim != traced.outcome.sim) {
    r.problems.push_back("tracing moved a simulated answer");
  }
  r.sim = traced.outcome.sim;
  r.count(untraced);
  r.metrics["trace.overhead_tokens_per_host_s"] = {
      traced.tokens_per_host_s() - untraced.tokens_per_host_s(), "tok/s"};
  r.metrics["trace.spans"] = {static_cast<double>(tr.spans().size()), "count"};

  std::printf("%s seed %llu traced: %zu spans\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), tr.spans().size());
  std::printf("self time by span (top 12):\n");
  std::vector<std::pair<double, std::string>> self;
  for (const auto& [name, ns] : tr.self_ns()) self.emplace_back(ns, name);
  std::sort(self.rbegin(), self.rend());
  for (std::size_t i = 0; i < std::min<std::size_t>(12, self.size()); ++i) {
    std::printf("  %-48s %10.3f s\n", self[i].second.c_str(), self[i].first * 1e-9);
  }
  if (!a.trace_out.empty()) {
    tr.write_chrome(a.trace_out);
    std::printf("wrote Chrome trace to %s\n", a.trace_out.c_str());
  }
  return r;
}

void print_json_line(const Result& r) {
  std::string out = "{\"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    out += (i ? ", \"" : "\"") + r.problems[i] + "\"";
  }
  out += "], \"metrics\": {";
  char buf[128];
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += sep;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    sep = ", ";
  }
  const auto values = [&](const char* key, const SimValues& sim) {
    out += std::string{"}, \""} + key + "\": {";
    const char* comma = "";
    for (const auto& [name, value] : sim) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out += comma;
      out += "\"" + name + "\": " + buf;
      comma = ", ";
    }
  };
  values("sim", r.sim);
  values("serve_scale", r.serve_scale);
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.workload != "fleet_steady" && a.workload != "fleet_churn" &&
        a.workload != "device_cold") {
      throw std::invalid_argument("unknown workload " + a.workload);
    }
    const Result r = a.trace ? measure_traced(a) : measure(a);
    for (const auto& [name, m] : r.metrics) {
      std::printf("  %-52s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    print_json_line(r);
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perf_harness: %s\n", e.what());
    return 1;
  }
}

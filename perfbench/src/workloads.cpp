#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common/stats.hpp"

namespace perfbench {

using namespace monde;

namespace {

/// The small Switch variant every serving bench runs (bench/serve_scale).
moe::MoeModelConfig serving_model() {
  moe::MoeModelConfig model = moe::MoeModelConfig::switch_variant(512, 16);
  model.encoder_blocks = 4;
  model.decoder_blocks = 4;
  model.moe_every = 2;
  return model;
}

/// The skew profile the paper's workloads exhibit for each model.
moe::SkewProfile profile_for(const moe::MoeModelConfig& model) {
  return model.top_k >= 2 ? moe::SkewProfile::nllb_like() : moe::SkewProfile::switch_like();
}

constexpr std::int64_t kEncoderTokens = 512;
constexpr std::int64_t kDecoderSteps = 16;

}  // namespace

// --- Fleets ------------------------------------------------------------------

double FleetConfig::mean_rate_per_replica() const {
  const double fleet = burst_size > 0 ? static_cast<double>(burst_size) / burst_gap.sec()
                                      : rate_per_replica * static_cast<double>(replicas);
  return fleet / static_cast<double>(replicas);
}

std::unique_ptr<serve::ArrivalStream> FleetConfig::arrivals() const {
  if (burst_size > 0) return serve::bursty_stream(requests, burst_size, burst_gap, shape, seed);
  return serve::poisson_stream(requests, rate_per_replica * static_cast<double>(replicas), shape,
                               seed);
}

FleetConfig serve_scale_smoke(std::uint64_t seed) {
  // bench/serve_scale --smoke. Seed 7 reproduces that bench's trace (seed 7)
  // and dispatcher (seed 17) exactly.
  FleetConfig c;
  c.sys = core::SystemConfig::dac24();
  c.model = serving_model();
  c.profile = profile_for(c.model);
  c.strategy = core::StrategyKind::kMondeLoadBalanced;
  c.sched.token_budget = 128;
  c.shape.prompt_min = 16;
  c.shape.prompt_max = 48;
  c.shape.new_tokens_min = 2;
  c.shape.new_tokens_max = 8;
  c.replicas = 512;
  c.requests = 50'000;
  c.rate_per_replica = 250.0;
  c.policy = serve::DispatchPolicy::kPowerOfTwoChoices;
  c.cluster.event_log_enabled = false;
  c.cluster.threads = 1;
  c.seed = seed;
  return c;
}

FleetConfig fleet_steady(std::uint64_t seed) {
  // serve_scale's smoke shape on an eighth of its fleet for the same
  // simulated time, so a timed call takes about 2 s and a run holds many.
  // One thread: at two, TaskPool's wake-ups made the call's host time follow
  // the host's load about 1.7 times as steeply as single-threaded work does.
  FleetConfig c = serve_scale_smoke(seed);
  c.replicas = 64;
  c.requests = 8'000;
  return c;
}

FleetConfig reference_fleet(std::uint64_t seed) {
  FleetConfig c = fleet_steady(seed);
  c.requests = 2'000;
  return c;
}

FleetConfig fleet_churn(std::uint64_t seed) {
  FleetConfig c;
  c.sys = core::SystemConfig::dac24();
  c.model = serving_model();
  c.profile = profile_for(c.model);
  c.strategy = core::StrategyKind::kGpuPmove;
  c.sched.token_budget = 128;
  // Multi-tenant prompts: three Zipf-skewed tenants per boot replica, 90% of
  // requests opening with their tenant's 64-token prefix.
  c.shape.prompt_min = 96;
  c.shape.prompt_max = 160;
  c.shape.new_tokens_min = 4;
  c.shape.new_tokens_max = 12;
  c.replicas = 64;
  c.shape.prefix_groups = static_cast<int>(c.replicas) * 3;
  c.shape.shared_fraction = 0.9;
  c.shape.shared_prefix_len = 64;
  c.shape.prefix_zipf_s = 0.8;
  c.requests = 20'000;
  c.burst_size = 384;
  c.burst_gap = Duration::millis(80.0);
  c.policy = serve::DispatchPolicy::kPrefixAffinity;
  serve::ClusterConfig& cc = c.cluster;
  cc.event_log_enabled = false;
  cc.threads = 1;
  cc.warmup = Duration::millis(5.0);
  cc.autoscale_period = Duration::millis(10.0);
  cc.cache.enabled = true;
  cc.cache.capacity_tokens = 1024;
  cc.cache.survive_failstop = true;
  cc.cache.migrate_on_retire = true;
  // Residency far below the 32 decoder experts (2 MoE layers x 16), so
  // experts are admitted and evicted, with a periodic hot-expert rebalance.
  cc.expert.enabled = true;
  cc.expert.cache_capacity = 8;
  cc.expert.rebalance_period = Duration::millis(20.0);
  cc.expert.profile_seed = seed;
  c.autoscale = true;
  c.autoscale_cfg.min_replicas = c.replicas / 2;
  c.autoscale_cfg.max_replicas = c.replicas * 2;
  c.autoscale_cfg.high_tokens_per_replica = 256;
  c.autoscale_cfg.low_tokens_per_replica = 32;
  c.failstop_every = 16;
  c.failstop_at = Duration::millis(30.0);
  c.seed = seed;
  return c;
}

ClockedStream::ClockedStream(std::vector<serve::Request> trace, std::size_t every,
                             HostSpeed* probe, std::size_t probe_every)
    : inner_{std::move(trace)}, every_{every}, probe_{probe}, probe_every_{probe_every} {}

void ClockedStream::mark() {
  const ClockMark now = ClockMark::now();
  marks_.push_back({now.wall_ns - paused_.wall_ns, now.cpu_s - paused_.cpu_s});
}

std::optional<serve::Request> ClockedStream::next() {
  std::optional<serve::Request> rq = inner_.next();
  if (!rq.has_value() || ++yielded_ % every_ != 0) return rq;
  mark();
  if (probe_ != nullptr && marks_.size() % probe_every_ == 0) {
    const ClockMark before = ClockMark::now();
    probe_->sample();
    const ClockMark after = ClockMark::now();
    paused_.wall_ns += after.wall_ns - before.wall_ns;
    paused_.cpu_s += after.cpu_s - before.cpu_s;
  }
  return rq;
}

FleetRun::FleetRun(const FleetConfig& cfg, HostSpeed* probe) {
  std::vector<serve::ReplicaSpec> specs =
      serve::uniform_fleet(cfg.replicas, cfg.strategy, cfg.sched);
  if (cfg.failstop_every > 0) {
    for (std::size_t i = 0; i < specs.size(); i += cfg.failstop_every) {
      specs[i].fault.fail_at = cfg.failstop_at + Duration::micros(100.0 * static_cast<double>(i));
    }
  }
  cluster_ = std::make_unique<serve::ClusterSim>(cfg.sys, cfg.model, cfg.profile, specs,
                                                 cfg.cluster);
  dispatcher_ = serve::make_dispatcher(cfg.policy, cfg.seed + 10);
  if (cfg.autoscale) autoscaler_ = serve::make_queue_pressure_autoscaler(cfg.autoscale_cfg);
  std::vector<serve::Request> trace = serve::materialize(*cfg.arrivals());
  expected_.reserve(trace.size());
  for (const serve::Request& rq : trace) {
    expected_.emplace_back(rq.id, rq.max_new_tokens);
    offered_prompt_tokens_ += static_cast<double>(rq.prompt_len);
  }
  stream_ = std::make_unique<ClockedStream>(std::move(trace), kMarkEvery, probe, kProbeEvery);
}

serve::ClusterReport FleetRun::run() {
  stream_->mark();
  serve::ClusterReport rep = cluster_->run(*stream_, *dispatcher_, autoscaler_.get());
  stream_->mark();
  return rep;
}

Outcome FleetRun::check(const serve::ClusterReport& rep) const {
  Outcome o;
  o.attempted = expected_.size();
  // Conservation: every offered id completes exactly once with its whole
  // decode budget generated.
  std::unordered_map<std::uint64_t, std::pair<std::int64_t, int>> seen;  // id -> (budget, count)
  seen.reserve(expected_.size());
  for (const auto& [id, budget] : expected_) seen[id] = {budget, 0};
  std::uint64_t unexpected = 0;
  std::unordered_set<std::uint64_t> wrong;
  for (const serve::RequestMetrics& m : rep.requests) {
    const auto it = seen.find(m.id);
    if (it == seen.end()) {
      ++unexpected;
      continue;
    }
    ++it->second.second;
    if (m.generated != it->second.first || m.completion < m.arrival) wrong.insert(m.id);
  }
  for (const auto& [id, entry] : seen) {
    if (entry.second != 1 || wrong.count(id) > 0) ++o.failed;
  }
  o.failed = std::min<std::uint64_t>(o.attempted, o.failed + unexpected);
  o.sim_tokens = offered_prompt_tokens_ + static_cast<double>(rep.generated_tokens);
  o.sim["sim_tokens_per_s"] = rep.tokens_per_s;
  o.sim["sim_ttft_p50_ms"] = rep.ttft_ms.p50;
  o.sim["sim_ttft_p99_ms"] = rep.ttft_ms.p99;
  o.sim["sim_tpot_p99_ms"] = rep.tpot_ms.p99;
  o.sim["sim_e2e_p99_ms"] = rep.e2e_ms.p99;
  o.sim["sim_replica_seconds"] = rep.replica_seconds;
  return o;
}

// --- device_cold ---------------------------------------------------------------

const std::vector<DeviceCase>& device_cases() {
  static const std::vector<DeviceCase> cases = [] {
    std::vector<DeviceCase> out;
    for (const bool decoder : {false, true}) {
      for (const auto& model :
           {moe::MoeModelConfig::switch_large_128(), moe::MoeModelConfig::nllb_moe_128()}) {
        for (const std::int64_t batch : {std::int64_t{1}, std::int64_t{4}}) {
          for (const auto kind :
               {core::StrategyKind::kGpuPmove, core::StrategyKind::kMondeAmove,
                core::StrategyKind::kMondeLoadBalanced, core::StrategyKind::kIdealGpu}) {
            out.push_back(DeviceCase{decoder, model, batch, kind});
          }
        }
      }
    }
    return out;
  }();
  return cases;
}

DeviceRun::DeviceRun(std::uint64_t seed, std::shared_ptr<ndp::NdpCoreSim> sim)
    : sim_{std::move(sim)} {
  const core::SystemConfig sys = core::SystemConfig::dac24();
  if (!sim_) sim_ = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
  for (const DeviceCase& c : device_cases()) {
    engines_.push_back(std::make_unique<core::InferenceEngine>(
        sys, c.model, profile_for(c.model), c.kind, seed, sim_));
  }
}

std::vector<CaseResult> DeviceRun::run(Tracer* tracer) {
  const std::vector<DeviceCase>& cases = device_cases();
  std::vector<CaseResult> out(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Scope scope{tracer, "device.case"};
    core::InferenceEngine& eng = *engines_[i];
    core::EngineState st = eng.make_state();
    const std::int64_t batch = cases[i].batch;
    if (!cases[i].decoder) {
      Scope call{tracer, "core.engine.prefill"};
      eng.prefill(st, batch, kEncoderTokens);
    } else {
      // InferenceEngine::run_decoder, step by step, so each step's span is seen.
      const std::vector<moe::DecoderStep> steps =
          eng.workload().decoder_steps(batch, kDecoderSteps);
      std::vector<core::DecodeSlot> slots(static_cast<std::size_t>(batch));
      for (std::size_t b = 0; b < slots.size(); ++b) {
        slots[b].request_id = b;
        slots[b].cross_len = kEncoderTokens;
      }
      for (std::int64_t s = 0; s < kDecoderSteps; ++s) {
        for (core::DecodeSlot& slot : slots) slot.step = s;
        Scope call{tracer, "core.engine.decode_step"};
        const core::StepResult r =
            eng.decode_step(st, slots, steps[static_cast<std::size_t>(s)].moe_layers);
        if (s == 0) out[i].first_step_s = r.latency().sec();
      }
    }
    out[i].tokens = st.tokens;
    out[i].total_s = st.now.sec();
  }
  return out;
}

Outcome DeviceRun::check(const std::vector<CaseResult>& results) const {
  const std::vector<DeviceCase>& cases = device_cases();
  Outcome o;
  o.attempted = cases.size();
  if (results.size() != cases.size()) {
    o.failed = o.attempted;
    return o;
  }
  double tokens = 0.0;
  double seconds = 0.0;
  std::vector<double> ttft_ms, tpot_ms, e2e_ms;
  // Per (phase, model, B): MD+LB over GPU+PM throughput, in sweep order.
  std::vector<double> ratios;
  std::map<std::string, std::vector<double>> by_phase_model;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const DeviceCase& c = cases[i];
    const CaseResult& r = results[i];
    const std::uint64_t want =
        static_cast<std::uint64_t>(c.batch * (c.decoder ? kDecoderSteps : kEncoderTokens));
    if (r.tokens != want || !(r.total_s > 0.0)) ++o.failed;
    tokens += static_cast<double>(r.tokens);
    seconds += r.total_s;
    if (c.decoder) {
      // A translation request on this device: the encoder case of the same
      // (model, B, strategy) then the decoder case. Every sequence of the
      // batch sees the same latencies.
      const CaseResult& enc = results[i - cases.size() / 2];
      const double ttft = (enc.total_s + r.first_step_s) * 1e3;
      const double e2e = (enc.total_s + r.total_s) * 1e3;
      const double tpot =
          (r.total_s - r.first_step_s) * 1e3 / static_cast<double>(kDecoderSteps - 1);
      for (std::int64_t b = 0; b < c.batch; ++b) {
        ttft_ms.push_back(ttft);
        e2e_ms.push_back(e2e);
        tpot_ms.push_back(tpot);
      }
    }
    if (c.kind == core::StrategyKind::kMondeLoadBalanced) {
      const CaseResult& gpu_pm = results[i - 2];  // GPU+PM two cases earlier
      const double ratio = (static_cast<double>(r.tokens) / r.total_s) /
                           (static_cast<double>(gpu_pm.tokens) / gpu_pm.total_s);
      ratios.push_back(ratio);
      const std::string key = std::string{c.decoder ? "dec." : "enc."} + c.model.name;
      by_phase_model[key].push_back(ratio);
      o.sim["ratio." + key + ".b" + std::to_string(c.batch) + ".md_lb_over_gpu_pm"] = ratio;
    }
  }
  o.failed = std::min(o.failed, o.attempted);
  o.sim_tokens = tokens;
  o.sim["sim_tokens_per_s"] = tokens / seconds;
  o.sim["sim_replica_seconds"] = seconds;
  o.sim["sim_ttft_p50_ms"] = percentile(ttft_ms, 50.0);
  o.sim["sim_ttft_p99_ms"] = percentile(ttft_ms, 99.0);
  o.sim["sim_tpot_p99_ms"] = percentile(tpot_ms, 99.0);
  o.sim["sim_e2e_p99_ms"] = percentile(e2e_ms, 99.0);
  o.sim["sim_md_lb_speedup"] = geomean(ratios);
  // The paper's MD+LB over GPU+PM speedups (Fig. 6), per (phase, model).
  const std::map<std::string, double> paper = {
      {"enc.Switch-Large-128", 3.1}, {"enc.NLLB-MoE", 6.7},
      {"dec.Switch-Large-128", 1.1}, {"dec.NLLB-MoE", 1.9}};
  double err = 0.0;
  for (const auto& [key, ref] : paper) {
    const auto it = by_phase_model.find(key);
    if (it == by_phase_model.end()) throw std::logic_error("sweep misses " + key);
    err += std::abs(geomean(it->second) - ref) / ref;
  }
  o.sim["sim_paper_error_pct"] = 100.0 * err / static_cast<double>(paper.size());
  return o;
}

}  // namespace perfbench

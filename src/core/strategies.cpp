#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>

#include "common/error.hpp"
#include "core/load_balancer.hpp"
#include "core/strategy.hpp"

namespace monde::core {

using ExpertList = std::vector<ExpertLoad>;

void activated_by_load(const moe::MoeLayerWork& work, ExpertList& out) {
  // Collect in index order, then sort by (descending load, ascending index):
  // a total order, so the result is the stable_sort by load that
  // experts_by_load() makes, without sorting the zeros or a merge buffer.
  out.clear();
  for (std::size_t e = 0; e < work.tokens_per_expert.size(); ++e) {
    if (const std::uint64_t tok = work.tokens_per_expert[e]; tok > 0) out.emplace_back(e, tok);
  }
  std::sort(out.begin(), out.end(), [](const ExpertLoad& a, const ExpertLoad& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
}

namespace {

/// Lazy per-expert label "<what> E<e> (<tok> tok)": formatted only when
/// the schedule records (sim::StreamSchedule::place's lazy overload).
/// Cold, so GCC keeps the formatting out of line and still inlines place()
/// on the unrecorded hot path (every MD+LB what-if); otherwise place() can
/// exceed GCC 12's inline size limit and each placement pays a call.
struct ExpertLabel {
  const char* what;
  std::size_t e;
  std::uint64_t tok;

  [[gnu::cold]] std::string operator()() const {
    return std::string{what} + " E" + std::to_string(e) + " (" + std::to_string(tok) + " tok)";
  }
};

}  // namespace

HwStreams HwStreams::create(sim::StreamSchedule& sched, const SystemConfig& sys) {
  HwStreams hw;
  hw.gpu = sched.add_stream("GPU");
  hw.gpu2 = sys.num_gpus > 1 ? sched.add_stream("GPU-1") : hw.gpu;
  hw.pcie_g2m = sched.add_stream("PCIe-G2M");
  hw.pcie_m2g = sched.add_stream("PCIe-M2G");
  hw.host = sched.add_stream("Host");
  hw.cpu = sched.add_stream("CPU");
  for (int d = 0; d < sys.num_monde_devices; ++d) {
    hw.ndp.push_back(sched.add_stream("MoNDE-" + std::to_string(d)));
  }
  return hw;
}

void StrategyContext::validate() const {
  MONDE_REQUIRE(sys && model && gpu && cpu && xformer, "incomplete strategy context");
  MONDE_REQUIRE(ndp || sys->num_monde_devices == 0, "MoNDE devices need an NDP simulator");
}

void TokenCostTable::grow(std::uint64_t n) {
  // Whole 64-entry blocks: a replica's counts stay within its token budget
  // times top-k, so its tables stay a few KB.
  entries_.resize((n / 64 + 1) * 64, Duration::nanos(-1.0));
}

Strategy::Strategy(StrategyContext ctx) : ctx_{std::move(ctx)} {
  ctx_.validate();
  pmove_time_ = kPcie.transfer_time(ctx_.model->expert_bytes());
  // The host driver's per-expert offload: two 64-B NDP instructions over CXL.
  offload_dispatch_ = kOffloadDispatchOverhead + kCxl.message_time(Bytes{64}) * 2.0;
  // Optional GPU expert cache for the PMove-side paths (extension).
  const std::uint64_t cache_bytes = ctx_.sys->gpu_expert_cache_bytes.count();
  if (cache_bytes > 0) {
    const std::uint64_t per_expert = ctx_.model->expert_bytes().count();
    expert_cache_ = std::make_unique<ExpertCache>(
        static_cast<std::size_t>(cache_bytes / per_expert));
  }
}

Duration Strategy::place_gating(std::int64_t total_tokens, sim::StreamSchedule& sched,
                                const HwStreams& hw, Duration ready,
                                MoeLayerResult& result) const {
  const Duration t =
      ctx_.xformer->gating_time(total_tokens, ctx_.model->num_experts, ctx_.model->dmodel);
  const auto iv = sched.place(hw.gpu, ready, t, [] { return std::string{"gating"}; }, "gating");
  result.gating += t;
  return iv.end;
}

Duration Strategy::place_combine(std::int64_t total_tokens, sim::StreamSchedule& sched,
                                 const HwStreams& hw, Duration ready,
                                 MoeLayerResult& result) const {
  const Duration t = ctx_.xformer->combine_time(total_tokens, ctx_.model->dmodel);
  const auto iv =
      sched.place(hw.gpu, ready, t, [] { return std::string{"combine"}; }, "combine");
  result.combine += t;
  return iv.end;
}

Duration Strategy::gpu_expert_time(std::uint64_t tok) {
  return gpu_time_.at(tok, [this](std::uint64_t n) {
    return ctx_.gpu->expert_time(ctx_.expert_shape(static_cast<std::int64_t>(n)), ctx_.dtype());
  });
}

Duration Strategy::ndp_kernel_time(std::uint64_t tok) {
  return ndp_time_.at(tok, [this](std::uint64_t n) {
    // Kernel occupancy = simulated GEMM time + per-expert device overhead
    // (staging, decode, skew fill/drain, done handshake).
    return ctx_.ndp->simulate_expert(ctx_.expert_shape(static_cast<std::int64_t>(n)),
                                     ctx_.dtype())
               .latency +
           kNdpExpertOverhead;
  });
}

Duration Strategy::activation_transfer_time(std::uint64_t routed) {
  return activation_time_.at(
      routed, [this](std::uint64_t n) { return kPcie.transfer_time(ctx_.activation_bytes(n)); });
}

Duration Strategy::place_pmove_pipeline(std::span<const ExpertLoad> experts, int layer_id,
                                        sim::StreamSchedule& sched, const HwStreams& hw,
                                        Duration ready, sim::StreamId gpu_stream,
                                        MoeLayerResult& result, bool what_if) {
  Duration last_end = ready;
  const Bytes weights = ctx_.model->expert_bytes();
  for (const auto& [e, tok] : experts) {
    // Weights stream host/CXL memory -> GPU on the M->G direction; the
    // expert GEMM launches as soon as its parameters land and the host has
    // dispatched the kernel. Transfers of later experts overlap earlier
    // experts' compute (Figure 5, GPU+PM row). Cache-resident experts skip
    // the transfer entirely. A what-if only peeks, so it leaves the cache's
    // recency order and hit/miss counters as it found them.
    const ExpertId eid{layer_id, static_cast<int>(e)};
    const bool cached =
        expert_cache_ && (what_if ? expert_cache_->contains(eid) : expert_cache_->access(eid));
    Duration weights_ready = ready;
    if (!cached) {
      const auto tr =
          sched.place(hw.pcie_m2g, ready, pmove_time_, ExpertLabel{"PMove", e, tok}, "pmove");
      weights_ready = tr.end;
      result.pmove_bytes += weights;
      if (expert_cache_ && !what_if) expert_cache_->insert(eid);
    } else {
      ++result.cache_hits;
    }
    const auto disp = sched.place(hw.host, ready, kGpuExpertDispatch,
                                  ExpertLabel{"dispatch", e, tok}, "driver");
    const auto cp = sched.place(gpu_stream, max(weights_ready, disp.end), gpu_expert_time(tok),
                                ExpertLabel{"expert", e, tok}, "gemm");
    last_end = max(last_end, cp.end);
    ++result.experts_gpu;
  }
  return last_end;
}

Duration Strategy::place_resident_experts(std::span<const ExpertLoad> experts,
                                          sim::StreamSchedule& sched, const HwStreams& hw,
                                          Duration dispatch_ready, Duration ready,
                                          sim::StreamId gpu_stream,
                                          MoeLayerResult& result) {
  Duration end = ready;
  for (const auto& [e, tok] : experts) {
    const auto disp = sched.place(hw.host, dispatch_ready, kGpuExpertDispatch,
                                  ExpertLabel{"dispatch", e, tok}, "driver");
    const auto cp = sched.place(gpu_stream, max(end, disp.end), gpu_expert_time(tok),
                                ExpertLabel{"expert", e, tok}, "gemm");
    end = cp.end;
    ++result.experts_gpu;
  }
  return end;
}

Duration Strategy::place_ndp_batch(std::span<const ExpertLoad> experts,
                                   sim::StreamSchedule& sched, const HwStreams& hw,
                                   Duration ready, MoeLayerResult& result) {
  const auto n = static_cast<std::size_t>(ctx_.sys->num_monde_devices);
  MONDE_REQUIRE(n > 0, "strategy needs MoNDE devices");
  MONDE_REQUIRE(n <= hw.ndp.size(), "more MoNDE devices than NDP streams");
  Duration all_end = ready;
  // Device d runs experts d, d + n, d + 2n, ...: round-robin in load order.
  const auto dealt_to = [&](std::size_t d, const auto& fn) {
    for (std::size_t i = d; i < experts.size(); i += n) fn(experts[i].first, experts[i].second);
  };
  for (std::size_t d = 0; d < std::min(n, experts.size()); ++d) {
    // AMove input: all routed activations for this device's experts in one
    // DMA (G->M direction).
    std::uint64_t routed = 0;
    dealt_to(d, [&](std::size_t, std::uint64_t tok) { routed += tok; });
    const auto am =
        sched.place(hw.pcie_g2m, ready, activation_transfer_time(routed),
                    [d] { return "AMove-in dev" + std::to_string(d); }, "amove");
    result.amove_bytes += ctx_.activation_bytes(routed);

    // The host driver prepares each expert offload (input slicing, two 64-B
    // NDP instructions over CXL, completion arming) while the activation
    // DMA is in flight; dispatches serialize on the host thread and gate
    // each kernel's start -- the framework-bound regime the paper's
    // profiled workflow exhibits for many-cold-expert layers.
    Duration kernel_ready = am.end;
    dealt_to(d, [&](std::size_t e, std::uint64_t tok) {
      const auto disp = sched.place(hw.host, ready, offload_dispatch_,
                                    ExpertLabel{"offload", e, tok}, "driver");
      const auto kv = sched.place(hw.ndp[d], max(kernel_ready, disp.end),
                                  ndp_kernel_time(tok),
                                  ExpertLabel{"NDP expert", e, tok}, "ndp");
      kernel_ready = kv.end;
      // Host observes the done register, then retrieves this expert's
      // output (M->G direction, shared with PMove traffic).
      const auto out = sched.place(hw.pcie_m2g, kv.end + kDonePoll,
                                   activation_transfer_time(tok),
                                   ExpertLabel{"AMove-out", e, tok}, "amove");
      result.amove_bytes += ctx_.activation_bytes(tok);
      all_end = max(all_end, out.end);
      ++result.experts_ndp;
    });
  }
  return all_end;
}

// --- Ideal -------------------------------------------------------------------

namespace {

class IdealGpu final : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string name() const override { return "Ideal"; }

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) override {
    MoeLayerResult r;
    r.start = ready;
    const Duration gate_end = place_gating(work.total_tokens, sched, hw, ready, r);
    const Duration experts_end =
        place_resident_experts(by_load(work), sched, hw, gate_end, gate_end, hw.gpu, r);
    r.end = place_combine(work.total_tokens, sched, hw, experts_end, r);
    return r;
  }
};

// --- GPU+PM ------------------------------------------------------------------

class GpuPmove final : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string name() const override { return "GPU+PM"; }

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) override {
    MoeLayerResult r;
    r.start = ready;
    const Duration gate_end = place_gating(work.total_tokens, sched, hw, ready, r);
    const Duration experts_end =
        place_pmove_pipeline(by_load(work), work.layer_id, sched, hw,
                             gate_end, hw.gpu, r);
    r.end = place_combine(work.total_tokens, sched, hw, experts_end, r);
    return r;
  }
};

// --- MD+AM -------------------------------------------------------------------

class MondeAmove final : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string name() const override { return "MD+AM"; }

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) override {
    MoeLayerResult r;
    r.start = ready;
    const Duration gate_end = place_gating(work.total_tokens, sched, hw, ready, r);
    const Duration experts_end =
        place_ndp_batch(by_load(work), sched, hw, gate_end, r);
    r.end = place_combine(work.total_tokens, sched, hw, experts_end, r);
    return r;
  }
};

// --- CPU+AM ------------------------------------------------------------------

class CpuAmove final : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string name() const override { return "CPU+AM"; }

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) override {
    MoeLayerResult r;
    r.start = ready;
    const Duration gate_end = place_gating(work.total_tokens, sched, hw, ready, r);

    const ExpertList& experts = by_load(work);
    std::uint64_t routed = 0;
    for (const auto& [e, tok] : experts) routed += tok;
    const auto am = sched.place(hw.pcie_g2m, gate_end, activation_transfer_time(routed),
                                "AMove-in CPU", "amove");
    r.amove_bytes += ctx_.activation_bytes(routed);

    Duration t = am.end;
    Duration last_out = am.end;
    for (const auto& [e, tok] : experts) {
      const auto disp = sched.place(hw.host, gate_end, kOffloadDispatchOverhead,
                                    ExpertLabel{"offload", e, tok}, "driver");
      const auto cp =
          sched.place(hw.cpu, max(t, disp.end),
                      ctx_.cpu->expert_time(ctx_.expert_shape(static_cast<std::int64_t>(tok)),
                                            ctx_.dtype()),
                      ExpertLabel{"CPU expert", e, tok}, "cpu");
      t = cp.end;
      const auto out = sched.place(hw.pcie_m2g, cp.end, activation_transfer_time(tok),
                                   ExpertLabel{"AMove-out", e, tok}, "amove");
      r.amove_bytes += ctx_.activation_bytes(tok);
      last_out = max(last_out, out.end);
      ++r.experts_cpu;
    }
    r.end = place_combine(work.total_tokens, sched, hw, last_out, r);
    return r;
  }
};

// --- 2-GPU expert parallelism --------------------------------------------------

class MultiGpu final : public Strategy {
 public:
  explicit MultiGpu(StrategyContext ctx) : Strategy{std::move(ctx)} {
    MONDE_REQUIRE(ctx_.sys->num_gpus >= 2, "MultiGpu strategy needs num_gpus >= 2");
  }
  [[nodiscard]] std::string name() const override { return "2GPU"; }

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) override {
    MoeLayerResult r;
    r.start = ready;
    const Duration gate_end = place_gating(work.total_tokens, sched, hw, ready, r);

    // Static expert parallelism: even experts on GPU-0, odd on GPU-1; all
    // weights are resident (the multi-GPU baseline assumes capacity).
    ExpertList local, remote;
    std::uint64_t remote_tokens = 0;
    for (const auto& [e, tok] : by_load(work)) {
      if (e % 2 == 0) {
        local.emplace_back(e, tok);
      } else {
        remote.emplace_back(e, tok);
        remote_tokens += tok;
      }
    }

    // All-to-all dispatch: tokens for GPU-1's experts cross the link.
    const Bytes dispatch = ctx_.activation_bytes(remote_tokens);
    Duration remote_ready = gate_end;
    if (remote_tokens > 0) {
      const auto tr = sched.place(hw.pcie_g2m, gate_end, kPcie.transfer_time(dispatch),
                                  "a2a dispatch", "amove");
      remote_ready = tr.end;
      r.amove_bytes += dispatch;
    }

    const Duration local_end =
        place_resident_experts(local, sched, hw, gate_end, gate_end, hw.gpu, r);
    Duration remote_end =
        place_resident_experts(remote, sched, hw, gate_end, remote_ready, hw.gpu2, r);
    if (remote_tokens > 0) {
      const auto back = sched.place(hw.pcie_m2g, remote_end, kPcie.transfer_time(dispatch),
                                    "a2a return", "amove");
      remote_end = back.end;
      r.amove_bytes += dispatch;
    }
    r.end = place_combine(work.total_tokens, sched, hw, max(local_end, remote_end), r);
    return r;
  }
};

}  // namespace

// --- MD+LB ---------------------------------------------------------------------

MondeLoadBalanced::MondeLoadBalanced(StrategyContext ctx)
    : Strategy{std::move(ctx)}, scratch_hw_{HwStreams::create(scratch_, *ctx_.sys)} {
  MONDE_REQUIRE(ctx_.sys->num_monde_devices > 0, "MD+LB needs at least one MoNDE device");
}

double MondeLoadBalanced::h_raw_for(std::int64_t activated) const {
  const double bw_pcie = kPcie.effective_bandwidth().as_bytes_per_sec();
  const double bw_md = ctx_.sys->monde_aggregate_bandwidth().as_bytes_per_sec();
  return bw_pcie / (bw_md + bw_pcie) * static_cast<double>(activated);
}

double MondeLoadBalanced::h_raw_equation6(const moe::MoeLayerWork& work) const {
  return h_raw_for(work.activated_experts());
}

namespace {

/// Equation 6 at `alpha` from its unrounded alpha = 1 value, clamped to
/// [0, E_activ]. Clamped before rounding, so a product that overflows to
/// infinity still rounds a finite value; on [0, E_activ] it is the same H.
int h_from_raw(double alpha, double h_raw, std::int64_t activated) {
  const double h = std::clamp(alpha * h_raw, 0.0, static_cast<double>(activated));
  return static_cast<int>(std::llround(h));
}

}  // namespace

int MondeLoadBalanced::h_from_equation6(const moe::MoeLayerWork& work, double alpha) const {
  return h_from_raw(alpha, h_raw_equation6(work), work.activated_experts());
}

int MondeLoadBalanced::PreparedLayer::h_at(double alpha) const {
  return h_from_raw(alpha, h_raw, static_cast<std::int64_t>(by_load.size()));
}

MondeLoadBalanced::PreparedLayer MondeLoadBalanced::prepare(
    const moe::MoeLayerWork& work, std::vector<ExpertLoad> storage) const {
  activated_by_load(work, storage);
  const double h_raw = h_raw_for(static_cast<std::int64_t>(storage.size()));
  return {work.layer_id, work.total_tokens, std::move(storage), h_raw};
}

void MondeLoadBalanced::place_layer(const PreparedLayer& layer, std::span<const int> hs,
                                    sim::StreamSchedule& sched, const HwStreams& hw,
                                    Duration ready, bool what_if,
                                    std::span<MoeLayerResult> out) {
  MONDE_REQUIRE(!hs.empty() && out.size() == hs.size(), "one result per H");
  const std::span<const ExpertLoad> by_load{layer.by_load};
  // Gating and the PMove prefix placed so far, shared by every H.
  MoeLayerResult prefix;
  prefix.start = ready;
  const Duration gate_end = place_gating(layer.total_tokens, sched, hw, ready, prefix);

  // The GPU workflow (PMove + GPU GEMMs) and the MoNDE workflow (AMove +
  // NDP) run concurrently (Equation 3); both begin once gating resolves.
  Duration gpu_end = gate_end;
  std::size_t hot = 0;  // by_load[0, hot) is placed on the GPU
  for (std::size_t i = 0; i < hs.size(); ++i) {
    const std::size_t h_sz = std::min(static_cast<std::size_t>(hs[i]), by_load.size());
    MONDE_REQUIRE(hs[i] >= 0 && h_sz >= hot, "H values must ascend from 0");
    gpu_end = max(gpu_end, place_pmove_pipeline(by_load.subspan(hot, h_sz - hot),
                                                layer.layer_id, sched, hw, gate_end, hw.gpu,
                                                prefix, what_if));
    hot = h_sz;
    const bool last = i + 1 == hs.size();
    if (!last) sched.checkpoint();
    MoeLayerResult& r = out[i];
    r = prefix;
    r.h_value = hs[i];
    const Duration ndp_end = place_ndp_batch(by_load.subspan(hot), sched, hw, gate_end, r);
    r.end = place_combine(layer.total_tokens, sched, hw, max(gpu_end, ndp_end), r);
    if (!last) sched.restore();
  }
}

Duration MondeLoadBalanced::evaluate_layer_with_h(const moe::MoeLayerWork& work, int h) {
  MONDE_REQUIRE(h >= 0, "H must be non-negative, got " << h);
  // A what-if replays the same placements a fresh schedule would see, so
  // rewinding the one scratch schedule gives the same latency.
  scratch_.rewind();
  MoeLayerResult r;
  place_layer(prepare(work, {}), std::span{&h, 1}, scratch_, scratch_hw_, Duration::zero(),
              /*what_if=*/true, std::span{&r, 1});
  return r.latency();
}

void MondeLoadBalanced::set_fixed_h(int h) {
  MONDE_REQUIRE(h >= -1, "fixed H must be >= 0, or -1 for auto mode, got " << h);
  fixed_h_ = h;
}

void MondeLoadBalanced::set_alpha(double alpha) {
  MONDE_REQUIRE(std::isfinite(alpha) && alpha > 0.0,
                "alpha must be positive and finite, got " << alpha);
  alpha_ = alpha;
  autotune_ = false;
}

void MondeLoadBalanced::maybe_retune() {
  if (!autotune_ || window_.empty()) return;
  // Local search mirroring the paper: evaluate H offsets around the current
  // alpha's choice on recent layers; adopt the alpha that realizes the best
  // average latency. Offsets map back to alpha via the mean Equation-6 H.
  static constexpr int kOffsets[] = {-4, -2, -1, 0, 1, 2, 4, 8, 16, 32};
  constexpr std::size_t kCandidates = std::size(kOffsets);
  // Per-offset sums, each accumulated in window order.
  std::array<Duration, kCandidates> total{};
  std::array<double, kCandidates> alpha_sum{};
  std::array<int, kCandidates> hs{};  // a layer's distinct clamped H, ascending
  std::array<MoeLayerResult, kCandidates> priced{};
  for (const PreparedLayer& w : window_) {
    const int base = w.h_at(alpha_);
    const int activated = static_cast<int>(w.by_load.size());
    const auto clamped = [&](std::size_t k) {
      return std::min(std::max(0, base + kOffsets[k]), activated);
    };
    // Offsets ascend, so the clamped H never decreases and repeats are
    // adjacent: price each distinct H once, all in one pass.
    std::size_t distinct = 0;
    for (std::size_t k = 0; k < kCandidates; ++k) {
      if (distinct == 0 || hs[distinct - 1] != clamped(k)) hs[distinct++] = clamped(k);
    }
    scratch_.rewind();
    place_layer(w, std::span{hs}.first(distinct), scratch_, scratch_hw_, Duration::zero(),
                /*what_if=*/true, std::span{priced}.first(distinct));
    std::size_t i = 0;
    for (std::size_t k = 0; k < kCandidates; ++k) {
      if (clamped(k) != hs[i]) ++i;
      total[k] += priced[i].latency();
      // Invert through the *unrounded* Equation-6 value so the adopted
      // alpha reproduces exactly this H after rounding.
      const int h = std::max(0, base + kOffsets[k]);
      alpha_sum[k] += w.h_raw > 0.0 ? static_cast<double>(h) / w.h_raw : alpha_;
    }
  }
  double best_alpha = alpha_;
  Duration best = Duration::infinite();
  for (std::size_t k = 0; k < kCandidates; ++k) {
    if (total[k] < best) {
      best = total[k];
      best_alpha = std::max(0.05, alpha_sum[k] / static_cast<double>(window_.size()));
    }
  }
  alpha_ = best_alpha;
}

MoeLayerResult MondeLoadBalanced::run_layer(const moe::MoeLayerWork& work,
                                            sim::StreamSchedule& sched, const HwStreams& hw,
                                            Duration ready) {
  // Sort once, into the storage of the layer that last left the window:
  // the tuner window and this layer's placement share the list.
  PreparedLayer layer = prepare(work, std::move(spare_));
  // The paper tunes alpha by "periodically running profiled inference on a
  // small set of past input batches". Mirror that: on a cold start, profile
  // the current layer before committing (alpha = 1 can be pathologically
  // wrong when the hottest experts are strongly compute-bound -- the exact
  // case alpha exists for); retune every early layer, then back off to the
  // periodic schedule. A pinned H needs no alpha, so it skips the tuner.
  if (autotune_ && fixed_h_ < 0) {
    if (window_.empty()) window_.push_back(layer);
    const bool warmup = layers_seen_ < 4;
    if (warmup || layers_seen_ % kTunePeriod == 0) maybe_retune();
  }
  ++layers_seen_;

  const int h = fixed_h_ >= 0 ? fixed_h_ : layer.h_at(alpha_);
  last_h_ = h;
  MoeLayerResult r;
  place_layer(layer, std::span{&h, 1}, sched, hw, ready, /*what_if=*/false, std::span{&r, 1});
  window_.push_back(std::move(layer));
  if (window_.size() > kTuneWindow) {
    spare_ = std::move(window_.front().by_load);
    window_.erase(window_.begin());
  }
  return r;
}

std::unique_ptr<Strategy> make_strategy(StrategyKind kind, StrategyContext ctx) {
  switch (kind) {
    case StrategyKind::kIdealGpu: return std::make_unique<IdealGpu>(std::move(ctx));
    case StrategyKind::kGpuPmove: return std::make_unique<GpuPmove>(std::move(ctx));
    case StrategyKind::kMondeAmove: return std::make_unique<MondeAmove>(std::move(ctx));
    case StrategyKind::kMondeLoadBalanced:
      return std::make_unique<MondeLoadBalanced>(std::move(ctx));
    case StrategyKind::kCpuAmove: return std::make_unique<CpuAmove>(std::move(ctx));
    case StrategyKind::kMultiGpu: return std::make_unique<MultiGpu>(std::move(ctx));
  }
  throw Error("unknown strategy kind");
}

}  // namespace monde::core

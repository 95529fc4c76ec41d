// Tests for the beyond-paper extensions: the GPU expert cache and the
// energy model.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/energy.hpp"
#include "common/error.hpp"
#include "core/engine.hpp"
#include "core/expert_cache.hpp"
#include "core/load_balancer.hpp"

namespace monde::core {
namespace {

// --- ExpertCache ---------------------------------------------------------------

TEST(ExpertCache, LruEvictionOrder) {
  ExpertCache cache{2};
  cache.insert({0, 1});
  cache.insert({0, 2});
  EXPECT_TRUE(cache.contains({0, 1}));
  EXPECT_TRUE(cache.access({0, 1}));  // refresh: {0,1} is now MRU
  cache.insert({0, 3});               // evicts LRU = {0,2}
  EXPECT_TRUE(cache.contains({0, 1}));
  EXPECT_FALSE(cache.contains({0, 2}));
  EXPECT_TRUE(cache.contains({0, 3}));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ExpertCache, HitMissAccounting) {
  ExpertCache cache{4};
  EXPECT_FALSE(cache.access({1, 1}));
  cache.insert({1, 1});
  EXPECT_TRUE(cache.access({1, 1}));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(ExpertCache, LayerIdsDoNotAlias) {
  ExpertCache cache{4};
  cache.insert({0, 7});
  EXPECT_FALSE(cache.access({1, 7}));  // same expert index, different layer
  EXPECT_TRUE(cache.access({0, 7}));
}

TEST(ExpertCache, ZeroCapacityNeverStores) {
  ExpertCache cache{0};
  cache.insert({0, 1});
  EXPECT_FALSE(cache.contains({0, 1}));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ExpertCache, ReinsertRefreshesWithoutGrowth) {
  ExpertCache cache{2};
  cache.insert({0, 1});
  cache.insert({0, 1});
  EXPECT_EQ(cache.size(), 1u);
  cache.insert({0, 2});
  cache.insert({0, 1});  // refresh, no eviction
  EXPECT_TRUE(cache.contains({0, 2}));
}

// --- Cache wired into PMove strategies -------------------------------------------

moe::MoeModelConfig cache_model() {
  moe::MoeModelConfig m = moe::MoeModelConfig::switch_variant(512, 16);
  m.encoder_blocks = 4;
  m.decoder_blocks = 4;
  m.moe_every = 2;
  m.vocab_size = 4096;
  return m;
}

TEST(CachedPmove, RepeatedLayerSkipsTransfers) {
  SystemConfig sys = SystemConfig::dac24();
  sys.gpu_expert_cache_bytes = Bytes::gib(8.0);  // plenty for 16 tiny experts
  InferenceEngine eng{sys, cache_model(), moe::SkewProfile::switch_like(),
                      StrategyKind::kGpuPmove, 42};
  const RunReport first = eng.run_decoder(4, 2);
  const RunReport second = eng.run_decoder(4, 2);
  std::uint64_t pmove_first = 0, pmove_second = 0;
  std::int64_t hits_second = 0;
  for (const auto& l : first.layers) pmove_first += l.pmove_bytes.count();
  for (const auto& l : second.layers) {
    pmove_second += l.pmove_bytes.count();
    hits_second += l.cache_hits;
  }
  EXPECT_LT(pmove_second, pmove_first);  // warm cache skips transfers
  EXPECT_GT(hits_second, 0);
  const ExpertCache* cache = eng.strategy().expert_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->hit_rate(), 0.2);
}

TEST(CachedPmove, CacheImprovesDecoderThroughput) {
  SystemConfig off = SystemConfig::dac24();
  SystemConfig on = SystemConfig::dac24();
  on.gpu_expert_cache_bytes = Bytes::gib(8.0);
  const auto model = cache_model();
  auto sim = std::make_shared<ndp::NdpCoreSim>(off.ndp, off.monde_mem);
  InferenceEngine base{off, model, moe::SkewProfile::switch_like(),
                       StrategyKind::kGpuPmove, 42, sim};
  InferenceEngine cached{on, model, moe::SkewProfile::switch_like(),
                         StrategyKind::kGpuPmove, 42, sim};
  const double t_base = base.run_decoder(4, 8).total.sec();
  const double t_cached = cached.run_decoder(4, 8).total.sec();
  EXPECT_LT(t_cached, t_base);
}

TEST(CachedPmove, DisabledByDefault) {
  InferenceEngine eng{SystemConfig::dac24(), cache_model(), moe::SkewProfile::switch_like(),
                      StrategyKind::kGpuPmove, 42};
  EXPECT_EQ(eng.strategy().expert_cache(), nullptr);
}

TEST(CachedPmove, EvictionUnderTinyCache) {
  // Cache of one expert: hot expert may stick, everything else misses.
  SystemConfig sys = SystemConfig::dac24();
  sys.gpu_expert_cache_bytes = cache_model().expert_bytes();
  InferenceEngine eng{sys, cache_model(), moe::SkewProfile::switch_like(),
                      StrategyKind::kGpuPmove, 42};
  (void)eng.run_encoder(1, 128);
  const ExpertCache* cache = eng.strategy().expert_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_LE(cache->size(), 1u);
}

TEST(CachedPmove, WhatIfEvaluationLeavesCacheUntouched) {
  // MD+LB's alpha tuner prices candidate H values on scratch schedules. Those
  // what-ifs must neither refresh recency, insert, nor count hits/misses on
  // the live GPU expert cache.
  SystemConfig sys = SystemConfig::dac24();
  sys.gpu_expert_cache_bytes = cache_model().expert_bytes() * 6;  // 6 of 16 experts
  InferenceEngine eng{sys, cache_model(), moe::SkewProfile::switch_like(),
                      StrategyKind::kMondeLoadBalanced, 42};
  auto& lb = dynamic_cast<MondeLoadBalanced&>(eng.strategy());
  lb.set_alpha(4.0);  // pinned: run_layer itself then runs no what-ifs
  (void)eng.run_decoder(4, 2);
  const ExpertCache* cache = lb.expert_cache();
  ASSERT_NE(cache, nullptr);
  ASSERT_GT(cache->size(), 1u);
  const std::size_t size = cache->size();
  const std::uint64_t hits = cache->hits();
  const std::uint64_t misses = cache->misses();
  const std::vector<ExpertId> order = cache->recency_order();

  for (const moe::DecoderStep& step : eng.workload().decoder_steps(4, 2)) {
    for (const moe::MoeLayerWork& w : step.moe_layers) {
      for (const int h : {1, 4, 16}) (void)lb.evaluate_layer_with_h(w, h);
    }
  }
  EXPECT_EQ(cache->size(), size);
  EXPECT_EQ(cache->hits(), hits);
  EXPECT_EQ(cache->misses(), misses);
  EXPECT_EQ(cache->recency_order(), order);
}

TEST(CachedPmove, WhatIfSeesResidentExperts) {
  // A what-if still prices cache-resident experts as hits: with every
  // expert resident, H = all puts the whole layer on the GPU with no PMove,
  // which cannot be slower than the cold-cache what-if.
  SystemConfig sys = SystemConfig::dac24();
  sys.gpu_expert_cache_bytes = Bytes::gib(8.0);
  const moe::MoeModelConfig model = cache_model();
  InferenceEngine warm{sys, model, moe::SkewProfile::switch_like(),
                       StrategyKind::kMondeLoadBalanced, 42};
  InferenceEngine cold{sys, model, moe::SkewProfile::switch_like(),
                       StrategyKind::kMondeLoadBalanced, 42};
  auto& lb_warm = dynamic_cast<MondeLoadBalanced&>(warm.strategy());
  auto& lb_cold = dynamic_cast<MondeLoadBalanced&>(cold.strategy());
  lb_warm.set_fixed_h(1000);  // every activated expert goes through PMove once
  (void)warm.run_decoder(4, 2);
  const moe::MoeLayerWork work = cold.workload().decoder_steps(4, 1).at(0).moe_layers.at(0);
  const int all = static_cast<int>(work.activated_experts());
  bool all_resident = true;
  for (std::size_t e = 0; e < work.tokens_per_expert.size(); ++e) {
    if (work.tokens_per_expert[e] == 0) continue;
    all_resident = all_resident &&
                   lb_warm.expert_cache()->contains({work.layer_id, static_cast<int>(e)});
  }
  ASSERT_TRUE(all_resident);
  EXPECT_LT(lb_warm.evaluate_layer_with_h(work, all), lb_cold.evaluate_layer_with_h(work, all));
}

// --- Energy model -----------------------------------------------------------------

TEST(Energy, DramEnergyComponents) {
  dram::Stats s;
  s.activates = 1000;
  s.reads_completed = 10000;
  s.writes_completed = 500;
  s.refreshes = 10;
  const analysis::DramEnergyCoefficients c;
  const double e = analysis::dram_energy_joules(s, Duration::millis(1), Bytes::gib(512), c);
  const double commands = (1000 * c.pj_per_activate + 10000 * c.pj_per_read +
                           500 * c.pj_per_write + 10 * c.pj_per_refresh) *
                          1e-12;
  const double background = c.background_mw_per_gb * 1e-3 * Bytes::gib(512).as_gb() * 1e-3;
  EXPECT_NEAR(e, commands + background, 1e-9);
}

TEST(Energy, MoreTrafficMoreEnergy) {
  dram::Stats small, big;
  small.reads_completed = 100;
  big.reads_completed = 100000;
  EXPECT_LT(analysis::dram_energy_joules(small, Duration::micros(10), Bytes::gib(512)),
            analysis::dram_energy_joules(big, Duration::micros(10), Bytes::gib(512)));
}

TEST(Energy, PmoveCostsMoreLinkEnergyThanAmove) {
  // The energy counterpart of Equations 1-2: PMove ships ~GBs of weights
  // per layer; AMove ships MBs of activations.
  const SystemConfig sys = SystemConfig::dac24();
  const auto model = moe::MoeModelConfig::nllb_moe_128();
  const auto prof = moe::SkewProfile::nllb_like();
  auto sim = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
  const analysis::EnergyModel energy;

  auto layer_energy = [&](StrategyKind kind) {
    InferenceEngine eng{sys, model, prof, kind, 42, sim};
    sim::StreamSchedule sched;
    const HwStreams hw = HwStreams::create(sched, sys);
    moe::WorkloadGenerator gen{model, prof, 42};
    const auto work = gen.encoder_pass(4, 512).moe_layers[0];
    const auto res = eng.strategy().run_layer(work, sched, hw, Duration::zero());
    return energy.price_layer(res, sched.timeline(), hw, sys, model);
  };

  const auto pm = layer_energy(StrategyKind::kGpuPmove);
  const auto lb = layer_energy(StrategyKind::kMondeLoadBalanced);
  EXPECT_GT(pm.link_j, 10.0 * lb.link_j / 3.0);  // PMove link energy dominates
  EXPECT_GT(lb.ndp_j, 0.0);
  EXPECT_EQ(pm.ndp_j, 0.0);
  EXPECT_LT(lb.total_j(), pm.total_j());  // near-data wins on energy too
}

TEST(Energy, GpuBusyTimeDrivesGpuEnergy) {
  const analysis::EnergyModel energy;
  const SystemConfig sys = SystemConfig::dac24();
  const auto model = moe::MoeModelConfig::switch_large_128();
  sim::StreamSchedule sched;
  const HwStreams hw = HwStreams::create(sched, sys);
  sched.place(hw.gpu, Duration::zero(), Duration::millis(10), "gemm", "gemm");
  MoeLayerResult res;
  const auto e = energy.price_layer(res, sched.timeline(), hw, sys, model);
  EXPECT_NEAR(e.gpu_j, energy.coefficients().gpu_busy_watts * 0.010, 1e-9);
}

}  // namespace
}  // namespace monde::core

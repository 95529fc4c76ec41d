// Unit tests for model configs (Table 2), the skewed gating model
// (Figure 3), and workload generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "moe/gating.hpp"
#include "moe/model_config.hpp"
#include "moe/workload.hpp"

namespace monde::moe {
namespace {

TEST(ModelConfig, SwitchLargeMatchesTable2) {
  const MoeModelConfig m = MoeModelConfig::switch_large_128();
  EXPECT_EQ(m.dmodel, 1024);
  EXPECT_EQ(m.num_experts, 128);
  EXPECT_EQ(m.top_k, 1);
  EXPECT_EQ(m.total_moe_layers(), 24);  // 12 encoder + 12 decoder
  // Table 2: 51.5 GB expert parameters, ~1.1 GB non-expert.
  EXPECT_NEAR(m.total_expert_bytes().as_gb(), 51.5, 1.0);
  EXPECT_NEAR(m.non_expert_bytes().as_gb(), 1.1, 0.2);
}

TEST(ModelConfig, NllbMoeMatchesTable2) {
  const MoeModelConfig m = MoeModelConfig::nllb_moe_128();
  EXPECT_EQ(m.dmodel, 2048);
  EXPECT_EQ(m.top_k, 2);
  EXPECT_EQ(m.total_moe_layers(), 12);  // 6 + 6
  EXPECT_NEAR(m.total_expert_bytes().as_gb(), 103.1, 2.0);
  EXPECT_NEAR(m.non_expert_bytes().as_gb(), 5.7, 0.7);
}

TEST(ModelConfig, DenseBaselines) {
  const MoeModelConfig t5 = MoeModelConfig::t5_large_dense();
  EXPECT_EQ(t5.total_moe_layers(), 0);
  EXPECT_EQ(t5.total_expert_bytes().count(), 0u);
  // T5-Large is ~3 GB in the paper's Figure 2(a) narrative (bf16 ~1.5 GB
  // params; the paper counts fp32 master copies -- we check the bf16 size).
  EXPECT_NEAR(t5.non_expert_bytes().as_gb(), 1.5, 0.4);
}

TEST(ModelConfig, MoeBlockPlacement) {
  const MoeModelConfig m = MoeModelConfig::switch_large_128();  // every 2nd
  EXPECT_FALSE(m.is_moe_block(0));
  EXPECT_TRUE(m.is_moe_block(1));
  EXPECT_TRUE(m.is_moe_block(23));
  const MoeModelConfig n = MoeModelConfig::nllb_moe_128();  // every 4th
  EXPECT_FALSE(n.is_moe_block(0));
  EXPECT_TRUE(n.is_moe_block(3));
  int count = 0;
  for (int b = 0; b < n.encoder_blocks; ++b) count += n.is_moe_block(b) ? 1 : 0;
  EXPECT_EQ(count, n.encoder_moe_layers());
}

TEST(ModelConfig, VariantsScale) {
  const MoeModelConfig v = MoeModelConfig::switch_variant(768, 64);
  EXPECT_EQ(v.dmodel, 768);
  EXPECT_EQ(v.dff, 3072);
  EXPECT_EQ(v.num_experts, 64);
  EXPECT_LT(v.total_expert_bytes().count(),
            MoeModelConfig::switch_large_128().total_expert_bytes().count());
  EXPECT_EQ(v.name, "d768-E64");
}

TEST(ModelConfig, ValidationCatchesBadConfigs) {
  MoeModelConfig m = MoeModelConfig::switch_large_128();
  m.top_k = 0;
  EXPECT_THROW(m.validate(), Error);
  m = MoeModelConfig::switch_large_128();
  m.top_k = 200;  // > E
  EXPECT_THROW(m.validate(), Error);
  m = MoeModelConfig::switch_large_128();
  m.dmodel = -5;
  EXPECT_THROW(m.validate(), Error);
}

TEST(Gating, RouteConservesTokens) {
  const GatingModel g{128, 2, SkewProfile::nllb_like(), 1};
  Rng rng{2};
  const auto counts = g.route(2048, rng);
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  EXPECT_EQ(total, 2048u * 2u);  // top-2: every token lands on 2 experts
}

TEST(Gating, TopKDistinctExpertsBoundPerExpertCount) {
  // With top-2 distinct routing, no expert can receive more than `tokens`.
  const GatingModel g{16, 2, SkewProfile::nllb_like(), 3};
  Rng rng{4};
  const auto counts = g.route(1000, rng);
  for (const auto c : counts) EXPECT_LE(c, 1000u);
}

TEST(Gating, DeterministicGivenSeeds) {
  const GatingModel g1{128, 2, SkewProfile::nllb_like(), 42};
  const GatingModel g2{128, 2, SkewProfile::nllb_like(), 42};
  Rng r1{7}, r2{7};
  EXPECT_EQ(g1.route(512, r1), g2.route(512, r2));
}

TEST(Gating, DifferentLayersHaveDifferentHotExperts) {
  const GatingModel g1{128, 2, SkewProfile::nllb_like(), 1};
  const GatingModel g2{128, 2, SkewProfile::nllb_like(), 2};
  const auto argmax = [](const std::vector<double>& v) {
    return std::distance(v.begin(), std::max_element(v.begin(), v.end()));
  };
  // Not guaranteed in general, but with 128 slots the probability of a
  // collision across these two fixed seeds is tiny and the seeds are pinned.
  EXPECT_NE(argmax(g1.popularity()), argmax(g2.popularity()));
}

TEST(Gating, PopularityNormalized) {
  const GatingModel g{128, 1, SkewProfile::switch_like(), 5};
  const double total =
      std::accumulate(g.popularity().begin(), g.popularity().end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Gating, UniformProfileIsFlat) {
  const GatingModel g{64, 1, SkewProfile::uniform(), 6};
  const auto& p = g.popularity();
  const auto [mn, mx] = std::minmax_element(p.begin(), p.end());
  EXPECT_LT(*mx / *mn, 1.5);  // only Zipf s=0 + no jitter -> near flat
}

TEST(Gating, ReproducesFigure3Histogram) {
  // Average token distribution for NLLB-MoE encoder layer 0, batch 4 x 512,
  // top-2 (paper Figure 3). We check the calibrated shape: ~25 zero-token
  // experts, cold majority at 1-7 tokens, ~2 hot experts with 128+.
  Histogram h = make_token_histogram();
  const int batches = 30;
  for (int b = 0; b < batches; ++b) {
    WorkloadGenerator gen{MoeModelConfig::nllb_moe_128(), SkewProfile::nllb_like(),
                          100 + static_cast<std::uint64_t>(b)};
    const auto pass = gen.encoder_pass(4, 512);
    for (const auto c : pass.moe_layers[0].tokens_per_expert) {
      h.add(static_cast<double>(c));
    }
  }
  h.scale(1.0 / batches);
  EXPECT_NEAR(h.bucket(0), 25.48, 8.0);   // zero-token experts
  EXPECT_NEAR(h.bucket(1), 72.56, 12.0);  // 1-3 tokens
  EXPECT_NEAR(h.bucket(2), 24.63, 10.0);  // 4-7 tokens
  EXPECT_LT(h.bucket(4), 3.0);            // 16-31: nearly empty
  EXPECT_NEAR(h.bucket(7), 2.0, 1.0);     // 128+: the hot experts
  EXPECT_NEAR(h.total(), 128.0, 1e-6);    // all experts accounted for
}

TEST(Gating, SwitchLikeHistogramShape) {
  // Figure-3-style bucket histogram for the Switch top-1 preset: 4 heavy
  // experts in the 128+ bucket, the warm tier in the tens, and a flat-ish
  // cold tail -- milder skew than NLLB's two-expert concentration.
  const SkewProfile prof = SkewProfile::switch_like();
  EXPECT_EQ(prof.num_heavy, 4);
  EXPECT_DOUBLE_EQ(prof.dead_fraction, 0.0);  // no dead tier in this preset
  Histogram h = make_token_histogram();
  const int batches = 30;
  for (int b = 0; b < batches; ++b) {
    WorkloadGenerator gen{MoeModelConfig::switch_large_128(), prof,
                          200 + static_cast<std::uint64_t>(b)};
    const auto pass = gen.encoder_pass(4, 512);
    for (const auto c : pass.moe_layers[0].tokens_per_expert) {
      h.add(static_cast<double>(c));
    }
  }
  h.scale(1.0 / batches);
  EXPECT_NEAR(h.bucket(7), 4.0, 1.5);   // 128+: the heavy experts
  EXPECT_LT(h.bucket(0), 10.0);         // no dead tier -> few zero experts
  EXPECT_GT(h.bucket(1) + h.bucket(2), 60.0);  // 1-7 tokens: cold majority
  EXPECT_NEAR(h.total(), 128.0, 1e-6);  // all experts accounted for
}

TEST(Gating, DeadFractionGrowsTheZeroBucketAndDeadScaleSoftensIt) {
  // dead_fraction marks the lowest-ranked tail experts as (near-)dead;
  // dead_scale is their weight multiplier. At scale 0 they are truly dead
  // and the Figure 3 zero-token bucket inflates by exactly that cohort; at
  // scale 1 the "dead" tier is indistinguishable from the live tail.
  const auto zero_bucket = [](const SkewProfile& prof) {
    Histogram h = make_token_histogram();
    const int batches = 30;
    for (int b = 0; b < batches; ++b) {
      WorkloadGenerator gen{MoeModelConfig::switch_large_128(), prof,
                            300 + static_cast<std::uint64_t>(b)};
      const auto pass = gen.encoder_pass(4, 512);
      for (const auto c : pass.moe_layers[0].tokens_per_expert) {
        h.add(static_cast<double>(c));
      }
    }
    h.scale(1.0 / batches);
    return h.bucket(0);
  };
  const SkewProfile alive = SkewProfile::switch_like();
  SkewProfile dead = alive;
  dead.dead_fraction = 0.25;
  dead.dead_scale = 0.0;
  const double z_alive = zero_bucket(alive);
  const double z_dead = zero_bucket(dead);
  // 25% of the 118 tail experts (= 29) carry zero weight: every batch, all
  // of them land in the zero bucket, on top of the sampling zeros.
  EXPECT_GE(z_dead, 29.0);
  EXPECT_GT(z_dead, z_alive + 20.0);
  // dead_scale -> 1 restores the live-tail behavior.
  SkewProfile faint = dead;
  faint.dead_scale = 1.0;
  EXPECT_NEAR(zero_bucket(faint), z_alive, 8.0);
}

TEST(Gating, HotExpertsAbsorbMostTokens) {
  WorkloadGenerator gen{MoeModelConfig::nllb_moe_128(), SkewProfile::nllb_like(), 42};
  const auto pass = gen.encoder_pass(4, 512);
  const auto& work = pass.moe_layers[0];
  const auto order = work.experts_by_load();
  const std::uint64_t top2 =
      work.tokens_per_expert[order[0]] + work.tokens_per_expert[order[1]];
  EXPECT_GT(static_cast<double>(top2) / static_cast<double>(work.routed_tokens()), 0.6);
}

TEST(Gating, GuidedDrawMatchesLowerBound) {
  // expert_at() must pick exactly std::lower_bound's expert for every draw,
  // so routing consumes the same draws and every answer stays the same.
  SkewProfile dead = SkewProfile::switch_like();
  dead.dead_fraction = 0.25;
  dead.dead_scale = 0.0;  // zero-popularity experts: repeated CDF knots
  const std::pair<const char*, SkewProfile> profiles[] = {
      {"switch", SkewProfile::switch_like()},
      {"nllb", SkewProfile::nllb_like()},
      {"uniform", SkewProfile::uniform()},
      {"dead", dead},
  };
  for (const auto& [name, prof] : profiles) {
    for (const std::int64_t experts : {16, 64, 128}) {
      SCOPED_TRACE(std::string{name} + " E=" + std::to_string(experts));
      const GatingModel g{experts, 2, prof, 99};
      // The same left-to-right sum the model builds its CDF with.
      std::vector<double> cdf;
      double acc = 0.0;
      for (const double p : g.popularity()) cdf.push_back(acc += p);
      const auto want = [&](double r) {
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
        return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
      };
      // Edge draws: zero, just below the total, every knot and its
      // neighbours (zero-popularity experts repeat a knot).
      std::vector<double> edges = {0.0, std::nextafter(acc, 0.0)};
      for (const double c : cdf) {
        edges.insert(edges.end(), {c, std::nextafter(c, 0.0), std::nextafter(c, 2.0)});
      }
      for (const double r : edges) {
        if (r < acc) {
          EXPECT_EQ(g.expert_at(r), want(r)) << r;
        }
      }
      if (std::string{name} == "dead") {
        EXPECT_NE(std::adjacent_find(cdf.begin(), cdf.end()), cdf.end());
      }
      Rng rng{static_cast<std::uint64_t>(experts)};
      std::size_t mismatches = 0;
      for (int i = 0; i < 1'000'000; ++i) {
        const double r = rng.next_double() * acc;
        mismatches += g.expert_at(r) == want(r) ? 0 : 1;
      }
      EXPECT_EQ(mismatches, 0u);
    }
  }
}

TEST(Gating, RejectsBadProfiles) {
  SkewProfile p = SkewProfile::nllb_like();
  p.heavy_mass = 1.2;
  EXPECT_THROW(GatingModel(128, 2, p, 1), Error);
  p = SkewProfile::nllb_like();
  p.num_heavy = 200;
  EXPECT_THROW(GatingModel(128, 2, p, 1), Error);
  EXPECT_THROW(GatingModel(0, 1, SkewProfile::uniform(), 1), Error);
  EXPECT_THROW(GatingModel(8, 9, SkewProfile::uniform(), 1), Error);
}

TEST(MoeLayerWork, HelpersConsistent) {
  MoeLayerWork w;
  w.total_tokens = 10;
  w.top_k = 2;
  w.tokens_per_expert = {5, 0, 7, 8, 0};
  EXPECT_EQ(w.activated_experts(), 3);
  EXPECT_EQ(w.routed_tokens(), 20u);
  const auto order = w.experts_by_load();
  EXPECT_EQ(order[0], 3u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST(Workload, EncoderPassShape) {
  WorkloadGenerator gen{MoeModelConfig::nllb_moe_128(), SkewProfile::nllb_like(), 42};
  const auto pass = gen.encoder_pass(4, 512);
  EXPECT_EQ(pass.moe_layers.size(), 6u);  // NLLB: 6 encoder MoE layers
  for (const auto& w : pass.moe_layers) {
    EXPECT_EQ(w.total_tokens, 4 * 512);
    EXPECT_EQ(w.routed_tokens(), 2048u * 2u);  // B*S tokens, top-2 routing
    EXPECT_EQ(w.tokens_per_expert.size(), 128u);
  }
}

TEST(Workload, DecoderStepsShape) {
  WorkloadGenerator gen{MoeModelConfig::switch_large_128(), SkewProfile::switch_like(), 42};
  const auto steps = gen.decoder_steps(4, 10);
  EXPECT_EQ(steps.size(), 10u);
  for (const auto& step : steps) {
    EXPECT_EQ(step.moe_layers.size(), 12u);  // Switch: 12 decoder MoE layers
    for (const auto& w : step.moe_layers) {
      EXPECT_EQ(w.total_tokens, 4);
      EXPECT_EQ(w.routed_tokens(), 4u);  // top-1
      EXPECT_LE(w.activated_experts(), 4);
    }
  }
}

TEST(Workload, DecoderActivatesFewExperts) {
  // Paper Section 4.2: decoders activate only a couple of experts per step.
  WorkloadGenerator gen{MoeModelConfig::nllb_moe_128(), SkewProfile::nllb_like(), 42};
  const auto steps = gen.decoder_steps(1, 20);
  for (const auto& step : steps) {
    for (const auto& w : step.moe_layers) {
      EXPECT_LE(w.activated_experts(), 2);  // 1 token x top-2
      EXPECT_GE(w.activated_experts(), 1);
    }
  }
}

TEST(Workload, RejectsZeroBatchAndZeroSteps) {
  WorkloadGenerator gen{MoeModelConfig::switch_large_128(), SkewProfile::switch_like(), 1};
  // Silent empty output would let a serving bug slip by; both degenerate
  // inputs must fail loudly instead.
  EXPECT_THROW((void)gen.decoder_steps(0, 5), Error);
  EXPECT_THROW((void)gen.decoder_steps(4, 0), Error);
  EXPECT_THROW((void)gen.decoder_step_for(0, 0, 0), Error);
  EXPECT_THROW((void)gen.decoder_step_for(0, -1, 1), Error);
}

TEST(Workload, PerRequestRoutingDeterministicAndOrderIndependent) {
  const MoeModelConfig model = MoeModelConfig::nllb_moe_128();
  WorkloadGenerator a{model, SkewProfile::nllb_like(), 42};
  WorkloadGenerator b{model, SkewProfile::nllb_like(), 42};
  // Interleave calls differently; draws depend only on (seed, request, step).
  const auto a_r3s2 = a.decoder_step_for(3, 2);
  const auto a_r1s0 = a.decoder_step_for(1, 0);
  const auto b_r1s0 = b.decoder_step_for(1, 0);
  const auto b_r3s2 = b.decoder_step_for(3, 2);
  ASSERT_EQ(a_r3s2.size(), 6u);  // NLLB: 6 decoder MoE layers
  for (std::size_t i = 0; i < a_r3s2.size(); ++i) {
    EXPECT_EQ(a_r3s2[i].tokens_per_expert, b_r3s2[i].tokens_per_expert);
    EXPECT_EQ(a_r1s0[i].tokens_per_expert, b_r1s0[i].tokens_per_expert);
  }
  // Different requests / steps draw different routings (w.h.p.; seeds pinned).
  EXPECT_NE(a_r3s2[0].tokens_per_expert, a_r1s0[0].tokens_per_expert);
  // A different base seed decorrelates the whole stream.
  WorkloadGenerator c{model, SkewProfile::nllb_like(), 43};
  EXPECT_NE(c.decoder_step_for(3, 2)[0].tokens_per_expert, a_r3s2[0].tokens_per_expert);
}

TEST(Workload, PerRequestRoutingConservesTokens) {
  WorkloadGenerator gen{MoeModelConfig::nllb_moe_128(), SkewProfile::nllb_like(), 42};
  const auto works = gen.decoder_step_for(9, 4, 3);
  for (const auto& w : works) {
    EXPECT_EQ(w.total_tokens, 3);
    EXPECT_EQ(w.routed_tokens(), 3u * 2u);  // top-2
    EXPECT_EQ(w.tokens_per_expert.size(), 128u);
  }
  // Layer ids continue after the encoder stack, like decoder_steps().
  EXPECT_EQ(works.front().layer_id, gen.model().encoder_moe_layers());
}

TEST(Workload, MergeLayerWorksSumsDraws) {
  WorkloadGenerator gen{MoeModelConfig::nllb_moe_128(), SkewProfile::nllb_like(), 42};
  const auto d1 = gen.decoder_step_for(1, 0);
  const auto d2 = gen.decoder_step_for(2, 5);
  const auto merged = WorkloadGenerator::merge_layer_works({d1, d2});
  ASSERT_EQ(merged.size(), d1.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].total_tokens, 2);
    EXPECT_EQ(merged[i].routed_tokens(), d1[i].routed_tokens() + d2[i].routed_tokens());
    for (std::size_t e = 0; e < merged[i].tokens_per_expert.size(); ++e) {
      EXPECT_EQ(merged[i].tokens_per_expert[e],
                d1[i].tokens_per_expert[e] + d2[i].tokens_per_expert[e]);
    }
  }
  EXPECT_THROW((void)WorkloadGenerator::merge_layer_works({}), Error);
  EXPECT_THROW((void)WorkloadGenerator::merge_layer_works({d1, {}}), Error);
}

/// Field-for-field equality of two per-layer works.
void expect_same_works(const std::vector<MoeLayerWork>& got,
                       const std::vector<MoeLayerWork>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].layer_id, want[i].layer_id);
    EXPECT_EQ(got[i].total_tokens, want[i].total_tokens);
    EXPECT_EQ(got[i].top_k, want[i].top_k);
    EXPECT_EQ(got[i].tokens_per_expert, want[i].tokens_per_expert);
  }
}

TEST(Workload, InPlaceStepRoutingEqualsMergedDraws) {
  // Property: routing a random active set -- repeated ids, varied steps,
  // several tokens per request -- into one reused `works` that still holds
  // the previous set's sums equals merge_layer_works() of the requests'
  // decoder_step_for() draws.
  MoeModelConfig small = MoeModelConfig::switch_variant(512, 16);
  small.top_k = 2;
  for (const MoeModelConfig& model : {MoeModelConfig::nllb_moe_128(), small}) {
    SCOPED_TRACE(model.name);
    const WorkloadGenerator gen{model, SkewProfile::nllb_like(), 42};
    Rng rng{7};
    std::vector<MoeLayerWork> works;
    for (int trial = 0; trial < 40; ++trial) {
      const std::uint64_t active = 1 + rng.next_below(12);
      std::vector<std::vector<MoeLayerWork>> draws;
      gen.reset_decoder_works(works);
      for (std::uint64_t r = 0; r < active; ++r) {
        const std::uint64_t id = rng.next_below(6);  // few ids: repeats are common
        const auto step = static_cast<std::int64_t>(rng.next_below(40));
        const auto tokens = static_cast<std::int64_t>(1 + rng.next_below(4));
        draws.push_back(gen.decoder_step_for(id, step, tokens));
        gen.add_decoder_step(id, step, tokens, works);
      }
      expect_same_works(works, WorkloadGenerator::merge_layer_works(draws));
    }
  }
}

TEST(Workload, EncoderPassIntoReusedStorageEqualsFreshPass) {
  // Identically seeded generators: one routes every pass into one reused,
  // dirty EncoderPass, the other returns fresh passes.
  const MoeModelConfig model = MoeModelConfig::nllb_moe_128();
  WorkloadGenerator reused{model, SkewProfile::nllb_like(), 9};
  WorkloadGenerator fresh{model, SkewProfile::nllb_like(), 9};
  EncoderPass pass;
  pass.batch = 3;
  pass.moe_layers.resize(1);
  pass.moe_layers[0].tokens_per_expert = {5, 5, 5};
  for (const auto& [batch, seq] : {std::pair{4, 512}, {1, 7}, {2, 64}, {1, 1}}) {
    reused.encoder_pass(batch, seq, pass);
    const EncoderPass want = fresh.encoder_pass(batch, seq);
    EXPECT_EQ(pass.batch, want.batch);
    EXPECT_EQ(pass.seq_len, want.seq_len);
    expect_same_works(pass.moe_layers, want.moe_layers);
  }
}

TEST(Workload, RequiresMoeModel) {
  EXPECT_THROW(
      WorkloadGenerator(MoeModelConfig::t5_large_dense(), SkewProfile::uniform(), 1),
      Error);
}

// Property sweep: token conservation across batch sizes and both models.
struct RouteCase {
  std::int64_t batch;
  bool nllb;
};

class RoutingConservationTest : public ::testing::TestWithParam<RouteCase> {};

TEST_P(RoutingConservationTest, EveryTokenRoutedTopK) {
  const auto [batch, nllb] = GetParam();
  const MoeModelConfig model =
      nllb ? MoeModelConfig::nllb_moe_128() : MoeModelConfig::switch_large_128();
  const SkewProfile prof = nllb ? SkewProfile::nllb_like() : SkewProfile::switch_like();
  WorkloadGenerator gen{model, prof, 7};
  const auto pass = gen.encoder_pass(batch, 512);
  for (const auto& w : pass.moe_layers) {
    EXPECT_EQ(w.routed_tokens(),
              static_cast<std::uint64_t>(batch) * 512u *
                  static_cast<std::uint64_t>(model.top_k));
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, RoutingConservationTest,
                         ::testing::Values(RouteCase{1, true}, RouteCase{4, true},
                                           RouteCase{16, true}, RouteCase{1, false},
                                           RouteCase{4, false}, RouteCase{16, false}));

}  // namespace
}  // namespace monde::moe

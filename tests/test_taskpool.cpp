// common::TaskPool contract tests (PR 7): every index runs exactly once
// regardless of chunking, the lowest-index exception is the one rethrown
// (thread-count-invariant failure behavior), pools are reusable across many
// run() calls, and the size-1 pool degenerates to the plain sequential
// loop. Plus the shared-simulator half of the parallel cluster: concurrent
// NdpCoreSim calls must return latencies bit-identical to a fresh
// single-threaded simulator (the memo keeps one canonical value per shape).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "common/taskpool.hpp"
#include "compute/gemm.hpp"
#include "core/system_config.hpp"
#include "ndp/ndp_core.hpp"

namespace monde {
namespace {

TEST(TaskPool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    common::TaskPool pool{threads};
    EXPECT_EQ(pool.threads(), threads);
    // n values straddling the chunking regimes: empty, single, fewer than
    // threads, not a chunk multiple, and far more than threads * 8.
    for (const std::size_t n : {0u, 1u, 3u, 17u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.run(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads << " thread(s)";
      }
    }
  }
}

TEST(TaskPool, CallerObservesAllWritesAfterRun) {
  // run() returning must be a synchronization point: the caller reads the
  // workers' plain (non-atomic) writes afterwards, exactly like the cluster
  // loop reads replica state during its sequential commit phase.
  common::TaskPool pool{4};
  std::vector<std::size_t> out(5000, 0);
  pool.run(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
}

TEST(TaskPool, RethrowsLowestIndexException) {
  common::TaskPool pool{4};
  std::vector<std::atomic<int>> hits(64);
  try {
    pool.run(hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 11 || i == 47) throw std::runtime_error("boom at " + std::to_string(i));
    });
    FAIL() << "run() should have rethrown";
  } catch (const std::runtime_error& e) {
    // Sequential order would surface index 11 first; the pool must agree no
    // matter which worker hit which throwing index.
    EXPECT_STREQ(e.what(), "boom at 11");
  }
  // In the parallel path every index still runs: a throw abandons only that
  // one task, never its chunk, so the commit phase sees a complete batch.
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPool, ReusableAcrossManyRuns) {
  common::TaskPool pool{4};
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(37, [&](std::size_t i) { total.fetch_add(i); });
  }
  EXPECT_EQ(total.load(), 50u * (36u * 37u) / 2u);
  // A failed run must not poison the next one.
  EXPECT_THROW(pool.run(8, [](std::size_t) { throw std::logic_error("once"); }),
               std::logic_error);
  std::atomic<std::size_t> after{0};
  pool.run(8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8u);
}

TEST(TaskPool, SingleThreadPoolSpawnsNothingAndStaysSequential) {
  common::TaskPool pool{1};
  EXPECT_EQ(pool.threads(), 1u);
  // Sequential semantics: strictly ascending order, first throw propagates
  // immediately (later indices do NOT run -- the plain-loop contract).
  std::vector<std::size_t> order;
  pool.run(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  std::size_t ran = 0;
  EXPECT_THROW(pool.run(5,
                        [&](std::size_t i) {
                          ++ran;
                          if (i == 2) throw std::runtime_error("stop");
                        }),
               std::runtime_error);
  EXPECT_EQ(ran, 3u);
}

TEST(TaskPool, RejectsZeroThreads) {
  EXPECT_THROW(common::TaskPool pool{0}, Error);
}

// --- Concurrent NdpCoreSim memoization --------------------------------------

TEST(NdpMemoConcurrency, ParallelLookupsMatchSequentialSim) {
  const core::SystemConfig sys = core::SystemConfig::dac24();
  // A small shape set with repeats: plenty of racing misses on first touch,
  // then hit-path reads of just-published entries.
  std::vector<compute::ExpertShape> shapes;
  for (int t = 1; t <= 6; ++t) {
    shapes.push_back(compute::ExpertShape{/*tokens=*/t, /*dmodel=*/512, /*dff=*/1024});
  }
  const std::size_t kCalls = 96;

  ndp::NdpCoreSim shared{sys.ndp, sys.monde_mem};
  std::vector<Duration> latencies(kCalls);
  common::TaskPool pool{8};
  pool.run(kCalls, [&](std::size_t i) {
    latencies[i] =
        shared.simulate_expert(shapes[i % shapes.size()], compute::DataType::kFp16).latency;
  });

  // Counters only see each lookup once (they may split hit/miss differently
  // under races, but the total is exact).
  EXPECT_EQ(shared.memo_hits() + shared.memo_misses(), kCalls);

  // Every latency equals what a fresh, strictly sequential simulator
  // computes: memoized values are canonical, not racer-dependent.
  ndp::NdpCoreSim fresh{sys.ndp, sys.monde_mem};
  for (std::size_t i = 0; i < kCalls; ++i) {
    const Duration expect =
        fresh.simulate_expert(shapes[i % shapes.size()], compute::DataType::kFp16).latency;
    EXPECT_EQ(latencies[i], expect) << "call " << i;
  }
}

TEST(NdpMemoConcurrency, HitReturnsIdenticalResultObject) {
  const core::SystemConfig sys = core::SystemConfig::dac24();
  ndp::NdpCoreSim sim{sys.ndp, sys.monde_mem};
  const compute::ExpertShape shape{/*tokens=*/4, /*dmodel=*/512, /*dff=*/1024};
  const ndp::NdpKernelResult first = sim.simulate_expert(shape, compute::DataType::kFp16);
  const ndp::NdpKernelResult again = sim.simulate_expert(shape, compute::DataType::kFp16);
  EXPECT_EQ(first.latency, again.latency);
  EXPECT_EQ(first.compute_cycles, again.compute_cycles);
  EXPECT_EQ(first.read_blocks, again.read_blocks);
  EXPECT_EQ(first.write_blocks, again.write_blocks);
  EXPECT_EQ(sim.memo_hits(), 1u);
  EXPECT_EQ(sim.memo_misses(), 1u);
}

}  // namespace
}  // namespace monde

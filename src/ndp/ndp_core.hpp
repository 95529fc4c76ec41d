// Cycle-level MoNDE NDP core simulator.
//
// This is the component the paper realizes with "a cycle-level expert
// computation simulator [using] Ramulator to model our MoNDE memory"
// (Section 4.1). The simulated machine (Section 3.1):
//
//   * 64 SIMD-controlled 4x4 MAC systolic arrays @ 1 GHz, output-stationary;
//   * one pass computes a 4x256 C tile, streaming K through the arrays in
//     double-buffered chunks via the skew unit;
//   * weights stream from even-indexed banks, activations/outputs use
//     odd-indexed banks (Section 3.4 memory mapping);
//   * the tailing activation (gemm+relu / gemm+gelu) is fused in the VecUnit
//     and adds no extra passes.
//
// The execution pipeline is simulated against the cycle-level DRAM system:
// chunk loads are injected with a two-deep double-buffering window, compute
// of a chunk starts when its loads complete and the arrays are free, and
// output tiles are written back when their pass finishes. Kernel latency is
// "instruction decode -> done register raised" (all outputs committed).
//
// The simulation is event-driven: the DRAM system fast-forwards its clock to
// the next cycle at which any controller state can change, and while all
// banks are in steady-state streaming the pipeline drains whole homogeneous
// chunk batches in one pass -- injecting loads and advancing between events
// without re-running the per-chunk bookkeeping -- returning to it only when
// a chunk's loads complete or an externally timed gate (writeback release,
// prefetch-window opening) arrives. Both shortcuts are cycle-exact: skipped
// cycles are provably no-op ticks, and the batch drain runs only while the
// skipped bookkeeping is provably inert. The per-cycle reference mode
// remains available via MONDE_EXHAUSTIVE_TICK (or `exhaustive_tick`); a
// differential test in tests/test_fastpath_diff.cpp pins the equivalence.
//
// Hot experts with many routed tokens are compute-bound (arithmetic
// intensity grows with the token count); above `cycle_sim_token_limit`
// tokens the simulator switches to a closed-form compute-bound model, which
// the cycle simulator itself validates at the crossover (see tests).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "compute/gemm.hpp"
#include "dram/dram_system.hpp"
#include "ndp/layout.hpp"
#include "ndp/ndp_spec.hpp"

namespace monde::ndp {

/// Result of one simulated NDP kernel (or expert = two chained kernels).
struct NdpKernelResult {
  Duration latency = Duration::zero();  ///< decode -> done register
  std::uint64_t compute_cycles = 0;     ///< MAC-array busy cycles
  std::uint64_t read_blocks = 0;        ///< DRAM column reads issued
  std::uint64_t write_blocks = 0;       ///< DRAM column writes issued
  double row_hit_rate = 0.0;
  Bandwidth achieved_bandwidth;         ///< read+write over kernel latency
  bool cycle_accurate = true;  ///< false when the compute-bound fast path ran
};

/// The NDP core + device-memory simulator. One instance per MoNDE device
/// configuration; expert results are memoized by shape (deterministic).
///
/// Concurrency: simulate_expert() may be called from many threads at once (a
/// parallel ClusterSim shares one NdpCoreSim across every replica). The memo
/// is one ordered map and its hit/miss counters under one mutex, sized to the
/// traffic it sees: the strategies' per-token cost tables absorb repeat
/// pricing, so a replica makes only a handful of lookups per run. A miss
/// simulates outside the lock, so cold shapes still simulate in parallel;
/// racing computers of one shape each derive the identical deterministic
/// value and the first insert stays canonical, so memoized latencies are
/// bit-identical regardless of thread count or interleaving. Only the
/// counters may differ run to run under concurrency (racing misses on one
/// shape each count once); they are diagnostics, never simulation inputs.
/// simulate_gemm() is uncached and touches no shared state. The public knobs
/// (bank_partitioning, exhaustive_tick) must be set before concurrent use
/// begins.
class NdpCoreSim {
 public:
  NdpCoreSim(NdpSpec ndp, dram::Spec mem);

  /// Simulate a single gemm / gemm+relu kernel (uncached: a test entry point;
  /// the simulator prices whole experts).
  NdpKernelResult simulate_gemm(const compute::GemmShape& shape, compute::DataType dt);

  /// Simulate one expert FFN: linear1 (gemm+relu) then linear2 (gemm), with
  /// linear2's weight streaming starting only after linear1 completes (its
  /// input is linear1's output).
  NdpKernelResult simulate_expert(const compute::ExpertShape& expert, compute::DataType dt);

  /// Closed-form lower bound: max(compute cycles, weight streaming at peak
  /// bandwidth). A test oracle for simulate_expert (tests/test_ndp.cpp);
  /// nothing in the simulator calls it.
  [[nodiscard]] Duration analytic_expert_lower_bound(const compute::ExpertShape& expert,
                                                     compute::DataType dt) const;

  /// Total MAC-array cycles for a GEMM (exact tile arithmetic, no memory).
  [[nodiscard]] std::uint64_t compute_cycles_for(const compute::GemmShape& shape) const;

  [[nodiscard]] const NdpSpec& ndp_spec() const { return ndp_; }
  [[nodiscard]] const dram::Spec& mem_spec() const { return mem_; }

  /// Above this token count per expert, use the compute-bound fast path.
  /// The compute/memory crossover for the DAC'24 configuration sits near
  /// 4 tokens; by 16 tokens experts are >4x compute-bound, so the fast
  /// path's error is small (validated against the cycle sim in tests).
  static constexpr int cycle_sim_token_limit = 16;

  /// Section 3.4 design choice: map parameters to even banks and
  /// activations to odd banks. Setting this false places activations in the
  /// same (even) banks as the weights -- the ablation knob for
  /// bench/ablation_bank_partition.
  bool bank_partitioning = true;

  /// Opt-in per-cycle reference mode for the DRAM model (see
  /// DramSystem::set_exhaustive_tick). Folded into the memo key so fast and
  /// exhaustive results never alias in differential tests.
  bool exhaustive_tick = dram::DramSystem::exhaustive_tick_env_default();

  [[nodiscard]] std::uint64_t memo_hits() const {
    const std::lock_guard<std::mutex> lock{memo_mu_};
    return memo_hits_;
  }
  [[nodiscard]] std::uint64_t memo_misses() const {
    const std::lock_guard<std::mutex> lock{memo_mu_};
    return memo_misses_;
  }

 private:
  /// A double-buffered unit of pipeline work.
  struct Chunk {
    std::uint64_t load_blocks = 0;     ///< weight-partition reads
    std::uint64_t load_act_blocks = 0; ///< activation-partition reads (A tiles)
    std::uint64_t compute_cycles = 0;
    std::uint64_t store_blocks = 0;    ///< activation-partition writes (C tiles)
  };

  [[nodiscard]] std::vector<Chunk> build_chunks(const compute::GemmShape& shape,
                                                compute::DataType dt) const;

  /// Run chunk sequences through a fresh DRAM system. Each inner vector is a
  /// dependent kernel (kernel i+1 starts after kernel i completes).
  NdpKernelResult run_pipeline(const std::vector<std::vector<Chunk>>& kernels) const;

  NdpKernelResult compute_bound_estimate(const compute::ExpertShape& expert,
                                         compute::DataType dt) const;

  using Key = std::tuple<std::int64_t, std::int64_t, std::int64_t, int>;

  /// Memo-key flag word: datatype plus the knobs that change results.
  [[nodiscard]] int memo_flags(compute::DataType dt) const {
    return static_cast<int>(dt) * 4 + (bank_partitioning ? 2 : 0) + (exhaustive_tick ? 1 : 0);
  }

  NdpSpec ndp_;
  dram::Spec mem_;
  mutable std::mutex memo_mu_;  ///< guards the three members below
  std::map<Key, NdpKernelResult> memo_;
  std::uint64_t memo_hits_ = 0;
  std::uint64_t memo_misses_ = 0;
};

}  // namespace monde::ndp

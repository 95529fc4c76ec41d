#include "ndp/ndp_core.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/error.hpp"

namespace monde::ndp {

namespace {

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }

}  // namespace

NdpCoreSim::NdpCoreSim(NdpSpec ndp, dram::Spec mem) : ndp_{ndp}, mem_{std::move(mem)} {
  mem_.validate();
  MONDE_REQUIRE(ndp_.num_units > 0 && ndp_.pe_rows > 0 && ndp_.pe_cols > 0,
                "NDP array dimensions must be positive");
  MONDE_REQUIRE(ndp_.clock_ghz > 0.0, "NDP clock must be positive");
  MONDE_REQUIRE(ndp_.stream_chunk_rows > 0, "stream chunk must be positive");
}

std::uint64_t NdpCoreSim::compute_cycles_for(const compute::GemmShape& shape) const {
  if (shape.m <= 0 || shape.n <= 0 || shape.k <= 0) return 0;
  // Output-stationary: each 4x256 C-tile pass streams the full K dimension
  // (one K element per cycle per PE) plus skew fill/drain.
  const auto row_panels = ceil_div(static_cast<std::uint64_t>(shape.m),
                                   static_cast<std::uint64_t>(ndp_.tile_rows()));
  const auto col_panels = ceil_div(static_cast<std::uint64_t>(shape.n),
                                   static_cast<std::uint64_t>(ndp_.tile_cols()));
  const auto per_pass =
      static_cast<std::uint64_t>(shape.k) + static_cast<std::uint64_t>(ndp_.pipeline_fill);
  return row_panels * col_panels * per_pass;
}

std::vector<NdpCoreSim::Chunk> NdpCoreSim::build_chunks(const compute::GemmShape& shape,
                                                        compute::DataType dt) const {
  MONDE_REQUIRE(shape.m > 0 && shape.n > 0 && shape.k > 0, "GEMM dims must be positive");
  const int elem = compute::bytes_per_element(dt);
  const auto access = static_cast<std::uint64_t>(mem_.org.access_bytes);
  auto blocks_of = [&](std::uint64_t bytes) { return ceil_div(bytes, access); };

  const auto tile_rows = static_cast<std::uint64_t>(ndp_.tile_rows());
  const auto tile_cols = static_cast<std::uint64_t>(ndp_.tile_cols());
  const auto chunk_k = static_cast<std::uint64_t>(ndp_.stream_chunk_rows);
  const auto m = static_cast<std::uint64_t>(shape.m);
  const auto n = static_cast<std::uint64_t>(shape.n);
  const auto k = static_cast<std::uint64_t>(shape.k);

  std::vector<Chunk> chunks;
  chunks.reserve(ceil_div(m, tile_rows) * ceil_div(n, tile_cols) * ceil_div(k, chunk_k) + 4);

  for (std::uint64_t r0 = 0; r0 < m; r0 += tile_rows) {
    const std::uint64_t rows = std::min(tile_rows, m - r0);
    // A-tile load for this row panel: rows x K activations, reused across
    // all column panels of the panel (held in the operand buffer).
    Chunk a_load;
    a_load.load_act_blocks = blocks_of(rows * k * static_cast<std::uint64_t>(elem));
    chunks.push_back(a_load);

    for (std::uint64_t c0 = 0; c0 < n; c0 += tile_cols) {
      const std::uint64_t cols = std::min(tile_cols, n - c0);
      for (std::uint64_t k0 = 0; k0 < k; k0 += chunk_k) {
        const std::uint64_t krows = std::min(chunk_k, k - k0);
        Chunk ch;
        ch.load_blocks = blocks_of(krows * cols * static_cast<std::uint64_t>(elem));
        ch.compute_cycles =
            krows + (k0 == 0 ? static_cast<std::uint64_t>(ndp_.pipeline_fill) : 0);
        if (k0 + chunk_k >= k) {
          // Last chunk of the pass: write the finished C tile back.
          ch.store_blocks = blocks_of(rows * cols * static_cast<std::uint64_t>(elem));
        }
        chunks.push_back(ch);
      }
    }
  }
  return chunks;
}

NdpKernelResult NdpCoreSim::run_pipeline(const std::vector<std::vector<Chunk>>& kernels) const {
  dram::DramSystem dramsys{mem_};
  dramsys.set_exhaustive_tick(exhaustive_tick);
  constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};
  const Duration period = mem_.clock_period();
  // Smallest cycle k with k * period >= t: the first cycle at which the
  // per-cycle reference loop would observe `now >= t`. The float estimate is
  // corrected with the exact Duration comparison so fast-forwarding wakes at
  // precisely the cycle the exhaustive loop would act on.
  auto cycle_for_time = [&](Duration t) -> std::uint64_t {
    if (t >= Duration::infinite()) return kNoLimit;
    if (t <= Duration::zero()) return 0;
    auto k = static_cast<std::uint64_t>(std::max(0.0, std::floor(t.ns() / period.ns())));
    while (period * static_cast<double>(k) < t) ++k;
    while (k > 0 && period * static_cast<double>(k - 1) >= t) --k;
    return k;
  };
  const PartitionLayout weights{mem_, dramsys.mapper(), Partition::kWeights};
  // With partitioning disabled (ablation), activations share the weight
  // banks and contend for the same row buffers.
  const PartitionLayout acts{mem_, dramsys.mapper(),
                             bank_partitioning ? Partition::kActivations
                                               : Partition::kWeights};

  NdpKernelResult result;
  Duration kernel_chain_end = Duration::zero();

  // Sequential block cursors: weights stream contiguously; activations place
  // A tiles first and C tiles behind them (distinct rows, same parity).
  std::uint64_t w_cursor = 0;
  std::uint64_t a_cursor = 0;
  std::uint64_t c_cursor = acts.block_count() / 2;

  for (const auto& chunks : kernels) {
    if (chunks.empty()) continue;
    const std::size_t total = chunks.size();
    // Kernel may start only after the previous kernel in the chain is done
    // (linear2 consumes linear1's output) plus instruction decode.
    const Duration t0 = kernel_chain_end + ndp_.kernel_decode;

    // State the load-completion callback updates. The callback captures one
    // pointer to it and finds its chunk in Request::id, so the closure fits
    // std::function's small buffer and a load allocates nothing.
    struct LoadState {
      std::vector<Duration> done;
      std::vector<std::uint64_t> remaining;
      Duration t0;
      bool chunk_completed = false;  ///< some chunk's last load retired
    };
    LoadState loads{std::vector<Duration>(total, Duration::zero()),
                    std::vector<std::uint64_t>(total, 0), t0};
    std::vector<Duration> compute_start(total, Duration::zero());
    std::vector<Duration> compute_end(total, Duration::zero());
    Duration last_store_done = t0;

    // Pending DRAM work, generated lazily per chunk.
    struct PendingReq {
      std::uint64_t addr;
      bool is_write;
      std::size_t chunk;
    };
    std::deque<PendingReq> inject;
    std::deque<PendingReq> deferred_stores;  // released when their pass computes
    std::vector<Duration> store_release(total, Duration::infinite());

    auto gen_chunk_requests = [&](std::size_t idx) {
      const Chunk& ch = chunks[idx];
      loads.remaining[idx] = ch.load_blocks + ch.load_act_blocks;
      for (std::uint64_t b = 0; b < ch.load_blocks; ++b) {
        inject.push_back({weights.block_address(w_cursor % weights.block_count()), false, idx});
        ++w_cursor;
      }
      for (std::uint64_t b = 0; b < ch.load_act_blocks; ++b) {
        inject.push_back({acts.block_address(a_cursor % (acts.block_count() / 2)), false, idx});
        ++a_cursor;
      }
      for (std::uint64_t b = 0; b < ch.store_blocks; ++b) {
        deferred_stores.push_back(
            {acts.block_address(acts.block_count() / 2 +
                                c_cursor % (acts.block_count() / 2)),
             true, idx});
        ++c_cursor;
      }
      result.read_blocks += ch.load_blocks + ch.load_act_blocks;
      result.write_blocks += ch.store_blocks;
      result.compute_cycles += ch.compute_cycles;
    };

    std::size_t generated = 0;  // chunks whose requests exist
    std::size_t computed = 0;   // chunks whose compute has been scheduled
    std::size_t consumed_ptr = 0;  // chunks whose compute has finished by now()

    Duration compute_free = t0;

    auto all_loads_done = [&](std::size_t idx) { return loads.remaining[idx] == 0; };

    // Inject queued loads, oldest first, until channel admission blocks.
    auto pump_loads = [&] {
      while (!inject.empty() && dramsys.can_accept(inject.front().addr)) {
        const PendingReq& pr = inject.front();
        dram::Request req;
        req.addr = pr.addr;
        req.type = dram::Request::Type::kRead;
        req.id = pr.chunk;
        LoadState* st = &loads;
        req.on_complete = [st](const dram::Request& r, Duration t) {
          MONDE_ASSERT(st->remaining[r.id] > 0, "duplicate load completion");
          if (--st->remaining[r.id] == 0) {
            st->done[r.id] = max(t, st->t0);
            st->chunk_completed = true;
          }
        };
        dramsys.enqueue(std::move(req));
        inject.pop_front();
      }
    };

    while (computed < total || !dramsys.idle() || !deferred_stores.empty() || !inject.empty()) {
      const Duration now = max(dramsys.now(), t0);

      // Buffer management: the chunk draining into the arrays plus up to
      // three prefetch slots are live (the skew unit consumes weights
      // through an elastic FIFO, so a buffer frees progressively as its
      // chunk drains; the extra slot is what hides the fixed DRAM access
      // latency at high clock rates). Chunk i may be fetched once chunk
      // i-3 has started compute.
      while (consumed_ptr < computed && compute_start[consumed_ptr] <= now) ++consumed_ptr;
      while (generated < total && generated < consumed_ptr + 3) {
        gen_chunk_requests(generated);
        ++generated;
      }

      // Inject loads subject to channel admission.
      pump_loads();

      // Inject stores whose pass has computed.
      while (!deferred_stores.empty()) {
        const PendingReq& pr = deferred_stores.front();
        if (store_release[pr.chunk] > now) break;
        if (!dramsys.can_accept(pr.addr)) break;
        dram::Request req;
        req.addr = pr.addr;
        req.type = dram::Request::Type::kWrite;
        req.on_complete = [&](const dram::Request&, Duration t) {
          last_store_done = max(last_store_done, t);
        };
        dramsys.enqueue(std::move(req));
        deferred_stores.pop_front();
      }

      // Schedule compute for ready chunks (bookkeeping only; the MAC arrays
      // are not ticked -- their timing is deterministic given start times).
      while (computed < total && computed < generated && all_loads_done(computed) &&
             loads.done[computed] <= now) {
        const Duration start = max(compute_free, loads.done[computed]);
        const Duration len =
            ndp_.cycle_time() * static_cast<double>(chunks[computed].compute_cycles);
        compute_start[computed] = start;
        compute_end[computed] = start + len;
        compute_free = compute_end[computed];
        store_release[computed] = compute_end[computed];
        ++computed;
      }

      if (computed >= total && dramsys.idle() && deferred_stores.empty() && inject.empty()) {
        break;
      }

      // External gates: cycles at which this loop's *time-based* conditions
      // (writeback release, prefetch-window opening) first change. DRAM-state
      // conditions (admission, load completion) change only at controller
      // events, which advance_until never skips. A gate that is already due
      // -- e.g. the compute scheduling above just assigned a start time in
      // the past -- re-runs this bookkeeping at the very next cycle, exactly
      // when the per-cycle reference loop would act on it.
      std::uint64_t limit = kNoLimit;
      if (!deferred_stores.empty()) {
        const Duration release = store_release[deferred_stores.front().chunk];
        limit = std::min(limit, std::max(dramsys.cycle() + 1, cycle_for_time(release)));
      }
      if (consumed_ptr < computed) {
        limit = std::min(limit, std::max(dramsys.cycle() + 1,
                                         cycle_for_time(compute_start[consumed_ptr])));
      }
      dramsys.advance_until(limit);

      // Steady-state batch drain: while every remaining interaction is load
      // injection and in-flight completion -- no writeback is releasable
      // before `limit` and the prefetch window cannot move until a chunk's
      // loads finish -- the per-chunk bookkeeping above is provably inert.
      // Drain the homogeneous batch here in a tight loop instead of paying
      // it per event, returning the moment a chunk completes or a gate hits.
      const bool stores_gated =
          deferred_stores.empty() || store_release[deferred_stores.front().chunk] > now;
      if (stores_gated && !exhaustive_tick) {
        while (!loads.chunk_completed && dramsys.cycle() < limit) {
          pump_loads();
          if (dramsys.idle() && inject.empty()) break;
          dramsys.advance_until(limit);
        }
      }
      loads.chunk_completed = false;
    }

    const Duration kernel_done = max(compute_free, last_store_done);
    kernel_chain_end = kernel_done;
  }

  result.latency = kernel_chain_end;
  const dram::Stats stats = dramsys.stats();
  result.row_hit_rate = stats.row_hit_rate();
  if (result.latency > Duration::zero()) {
    const double bytes = static_cast<double>((result.read_blocks + result.write_blocks) *
                                             static_cast<std::uint64_t>(mem_.org.access_bytes));
    result.achieved_bandwidth = Bandwidth::bytes_per_sec(bytes / result.latency.sec());
  }
  result.cycle_accurate = true;
  return result;
}

NdpKernelResult NdpCoreSim::simulate_gemm(const compute::GemmShape& shape,
                                          compute::DataType dt) {
  return run_pipeline({build_chunks(shape, dt)});
}

NdpKernelResult NdpCoreSim::compute_bound_estimate(const compute::ExpertShape& expert,
                                                   compute::DataType dt) const {
  // Hot experts: arithmetic intensity is high enough that weight streaming
  // fully hides behind compute; latency = compute cycles + memory ramp.
  NdpKernelResult r;
  const std::uint64_t cycles =
      compute_cycles_for(expert.linear1()) + compute_cycles_for(expert.linear2());
  r.compute_cycles = cycles;
  const auto access = static_cast<std::uint64_t>(mem_.org.access_bytes);
  r.read_blocks = (expert.weight_bytes(dt).count() +
                   expert.activation_bytes(dt).count() / 2 + access - 1) /
                  access;
  r.write_blocks = (expert.activation_bytes(dt).count() / 2 + access - 1) / access;
  const Duration compute = ndp_.cycle_time() * static_cast<double>(cycles);
  // First-chunk latency: the pipeline cannot start before the first stream
  // chunk arrives (~one chunk at peak bandwidth + a DRAM access latency).
  const Bytes first_chunk{static_cast<std::uint64_t>(ndp_.stream_chunk_rows) *
                          static_cast<std::uint64_t>(ndp_.tile_cols()) *
                          static_cast<std::uint64_t>(compute::bytes_per_element(dt))};
  const Duration ramp =
      transfer_time(first_chunk, mem_.total_peak_bandwidth()) + Duration::nanos(100.0);
  r.latency = 2.0 * ndp_.kernel_decode + compute + 2.0 * ramp;
  if (r.latency > Duration::zero()) {
    const double bytes =
        static_cast<double>((r.read_blocks + r.write_blocks) * access);
    r.achieved_bandwidth = Bandwidth::bytes_per_sec(bytes / r.latency.sec());
  }
  r.row_hit_rate = 1.0;
  r.cycle_accurate = false;
  return r;
}

NdpKernelResult NdpCoreSim::simulate_expert(const compute::ExpertShape& expert,
                                            compute::DataType dt) {
  MONDE_REQUIRE(expert.tokens > 0, "expert simulation needs at least one token");
  // The memo key folds in the ablation / simulation-mode flags.
  const Key key{expert.tokens, expert.dmodel, expert.dff, memo_flags(dt)};
  {
    const std::lock_guard<std::mutex> lock{memo_mu_};
    if (const auto hit = memo_.find(key); hit != memo_.end()) {
      ++memo_hits_;
      return hit->second;
    }
    ++memo_misses_;
  }
  // Simulated outside the lock: racing threads may simulate the same shape
  // concurrently, but the result is shape-deterministic and the first insert
  // stays canonical.
  NdpKernelResult r;
  if (expert.tokens > cycle_sim_token_limit) {
    r = compute_bound_estimate(expert, dt);
  } else {
    r = run_pipeline({build_chunks(expert.linear1(), dt), build_chunks(expert.linear2(), dt)});
    // Two kernels were decoded (gemm+relu, gemm).
    r.latency += 2.0 * ndp_.kernel_decode;
  }
  const std::lock_guard<std::mutex> lock{memo_mu_};
  return memo_.try_emplace(key, r).first->second;
}

Duration NdpCoreSim::analytic_expert_lower_bound(const compute::ExpertShape& expert,
                                                 compute::DataType dt) const {
  if (expert.tokens <= 0) return Duration::zero();
  const std::uint64_t cycles =
      compute_cycles_for(expert.linear1()) + compute_cycles_for(expert.linear2());
  const Duration compute = ndp_.cycle_time() * static_cast<double>(cycles);
  const Duration stream = transfer_time(expert.weight_bytes(dt), mem_.total_peak_bandwidth());
  return max(compute, stream);
}

}  // namespace monde::ndp

// Top-level multi-channel DRAM system: the cycle-level model of the MoNDE
// device memory. The NDP core simulator drives this system directly --
// enqueueing column-granularity requests and ticking the controller clock --
// to obtain cycle-accurate expert-GEMM latencies (the role Ramulator plays
// in the paper's evaluation).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dram/address.hpp"
#include "dram/controller.hpp"
#include "dram/request.hpp"
#include "dram/spec.hpp"

namespace monde::dram {

/// A complete DRAM device: N independent channel controllers sharing a clock.
class DramSystem {
 public:
  explicit DramSystem(Spec spec);

  DramSystem(const DramSystem&) = delete;
  DramSystem& operator=(const DramSystem&) = delete;

  /// Channel a byte address maps to (for admission control).
  [[nodiscard]] int channel_of(std::uint64_t addr) const;

  /// True if the owning channel can take another request.
  [[nodiscard]] bool can_accept(std::uint64_t addr) const;
  /// True if channel `channel` can take another request: can_accept()
  /// for an address already known to map there, without decoding it.
  [[nodiscard]] bool channel_can_accept(int channel) const;

  /// Enqueue a request if its channel can take it; returns false, changing
  /// nothing, otherwise. The admission check reads only the channel field,
  /// so a refusal costs no full address decode: the streaming form of
  /// can_accept() + enqueue(). An address beyond the device capacity
  /// throws, whether or not its channel is full.
  bool try_enqueue(const Request& req);

  /// Enqueue a request. Requires can_accept(req.addr).
  void enqueue(const Request& req);

  /// Advance one controller cycle on every channel.
  void tick();

  /// Event-driven step: fast-forward the clock to the next cycle at which
  /// any channel's state can change (a transfer retires, a timing constraint
  /// expires, a refresh becomes due) and tick once there. All skipped cycles
  /// are provably no-op ticks, so the result is cycle-exact with calling
  /// tick() in a loop. Callers pass `limit_cycle` when external state
  /// changes at a known future cycle (e.g. the NDP core releasing a
  /// writeback batch): the jump is capped at `limit_cycle` -- except that
  /// every call advances at least one cycle, so a `limit_cycle` at or below
  /// the current cycle still ticks cycle()+1 (progress guarantee; guard in
  /// the caller if the limit must be hard). With exhaustive-tick mode on,
  /// this degrades to a single tick().
  void advance_until(std::uint64_t limit_cycle);

  /// advance_until with no external bound.
  void advance() { advance_until(~std::uint64_t{0}); }

  /// Tick until all queues and in-flight transfers drain.
  void run_until_idle();

  /// Opt-in per-cycle simulation mode: every cycle is ticked individually
  /// instead of fast-forwarding between events. Orders of magnitude slower;
  /// exists as the reference for differential tests. Defaults to the
  /// MONDE_EXHAUSTIVE_TICK environment variable (set and non-"0" = on).
  void set_exhaustive_tick(bool on) { exhaustive_tick_ = on; }
  [[nodiscard]] bool exhaustive_tick() const { return exhaustive_tick_; }

  /// Process-wide default for exhaustive-tick mode (reads the environment
  /// once).
  [[nodiscard]] static bool exhaustive_tick_env_default();

  /// Current simulated time (cycles * clock period).
  [[nodiscard]] Duration now() const;
  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }

  [[nodiscard]] bool idle() const;

  /// Aggregated statistics across channels.
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const Spec& spec() const { return spec_; }
  [[nodiscard]] const AddressMapper& mapper() const { return mapper_; }

  /// Achieved read+write bandwidth since construction.
  [[nodiscard]] Bandwidth achieved_bandwidth() const;

 private:
  Spec spec_;
  AddressMapper mapper_;
  std::vector<std::unique_ptr<ChannelController>> channels_;
  Duration period_;  ///< spec_.clock_period(), computed once
  std::uint64_t cycle_ = 0;
  bool exhaustive_tick_ = exhaustive_tick_env_default();
};

}  // namespace monde::dram

// Per-channel DRAM controller: bank state machines, timing enforcement,
// FR-FCFS scheduling with read priority and write draining, and all-bank
// refresh per rank.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dram/address.hpp"
#include "dram/request.hpp"
#include "dram/spec.hpp"

namespace monde::dram {

/// Fixed-capacity FIFO over a power-of-two slot array: no allocation after
/// construction, index arithmetic is a mask. Index 0 is the oldest entry.
/// A popped slot keeps its stale value until a later push overwrites it.
template <typename T>
class FixedRing {
 public:
  explicit FixedRing(std::size_t capacity)
      : slots_(std::bit_ceil(capacity)), mask_{slots_.size() - 1}, capacity_{capacity} {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const { return slots_[(head_ + i) & mask_]; }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  /// Append a slot at the back and return it for the caller to fill in
  /// place. The slot holds whatever it held before (see above).
  T& emplace_back() {
    MONDE_ASSERT(size_ < capacity_, "fixed ring overflow (capacity " << capacity_ << ")");
    return (*this)[size_++];
  }
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  /// Remove entry `i`, keeping FIFO order: the older entries shift up one
  /// slot and the front pops (callers erase near the front).
  void erase(std::size_t i) {
    for (; i > 0; --i) (*this)[i] = std::move((*this)[i - 1]);
    pop_front();
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// One channel's controller. Owned and ticked by DramSystem.
class ChannelController {
 public:
  ChannelController(const Spec& spec, int channel_index);

  /// True if the (bounded) request queues can take another entry.
  [[nodiscard]] bool can_accept() const;

  /// Enqueue a request already mapped to this channel if can_accept();
  /// returns false, changing nothing, otherwise. `addr` is its decomposed
  /// address. `now_cycle` is the current controller cycle (used for latency
  /// accounting).
  bool try_enqueue(const Request& req, const Address& addr, std::uint64_t now_cycle);

  /// Advance one controller clock cycle: issue at most one command, retire
  /// completed data transfers, handle refresh.
  void tick(std::uint64_t cycle, Duration tick_period);

  /// Earliest cycle > `c` at which this channel's state can change: a data
  /// transfer retires, a refresh becomes due (or quiesce progresses), or a
  /// queued request's blocking timing constraint expires. This is an exact
  /// lower bound: every cycle in (c, next_event_cycle(c)) is provably a
  /// no-op tick, so DramSystem may fast-forward across them without changing
  /// any observable behaviour.
  [[nodiscard]] std::uint64_t next_event_cycle(std::uint64_t c) const;

  /// True when no requests are queued or in flight.
  [[nodiscard]] bool idle() const;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const { return read_q_.size() + write_q_.size(); }
  [[nodiscard]] std::size_t inflight_count() const { return inflight_.size(); }

  /// Maximum queued requests per direction (reads and writes each).
  static constexpr std::size_t kQueueCapacity = 64;

 private:
  /// JEDEC tFAW: ACTs allowed per rank within any nFAW window.
  static constexpr std::size_t kFawActivates = 4;

  struct Bank {
    bool open = false;
    int open_row = -1;
    // Earliest cycles at which each command may be issued to this bank by
    // its own timing; the bank group and rank add theirs (earliest_*_cycle
    // takes the max of all three).
    std::uint64_t next_act = 0;
    std::uint64_t next_pre = 0;
    std::uint64_t next_rd = 0;
    std::uint64_t next_wr = 0;
  };

  /// Constraints that bind every bank of one bank group alike (the
  /// same-group _L timings), kept once instead of copied into each bank.
  struct BankGroup {
    std::uint64_t next_act = 0;  ///< RRD_L
    std::uint64_t next_rd = 0;   ///< CCD_L, WTR_L
    std::uint64_t next_wr = 0;   ///< CCD_L
  };

  struct RankState {
    std::uint64_t next_act = 0;  ///< rank-level ACT constraint (RRD/FAW)
    std::uint64_t next_rd = 0;   ///< rank-level CAS constraints (CCD/WTR)
    std::uint64_t next_wr = 0;
    /// Last kFawActivates ACT cycles for tFAW, a ring: once full,
    /// `act_window[act_next]` is the oldest.
    std::array<std::uint64_t, kFawActivates> act_window{};
    std::size_t act_count = 0;
    std::size_t act_next = 0;
    std::uint64_t refresh_due = 0;
    bool refresh_pending = false;  ///< quiescing: block new work on this rank
    std::size_t queued_demand = 0; ///< queued requests targeting this rank
  };

  /// JEDEC allows postponing up to 8 REF commands; we defer refresh while a
  /// rank has queued demand so streams are not cut mid-burst.
  static constexpr std::uint64_t kMaxPostponedRefreshes = 8;

  /// A queued request with the coordinates the scheduler reads, decoded
  /// once at admission.
  struct Entry {
    Request req;
    std::uint64_t enqueue_cycle = 0;
    std::uint32_t bank = 0;   ///< index into banks_
    std::uint32_t group = 0;  ///< index into groups_
    int rank = 0;
    int row = 0;
    [[nodiscard]] bool is_read() const { return req.type == Request::Type::kRead; }
  };

  struct InFlight {
    Request req;
    std::uint64_t complete_cycle = 0;
    std::uint64_t enqueue_cycle = 0;
  };

  /// Memoized result of a failed prep scan (see schedule_queue): while the
  /// scan window's membership and the bank/rank state are unchanged, the
  /// scan provably keeps failing before `blocked_until`, so it can be
  /// skipped. Thresholds only ever move later between invalidations, so a
  /// stale bound wakes the scan early (harmless), never late.
  struct PrepCache {
    bool valid = false;
    /// Window held a PRE candidate blocked only by an older row-hit; any
    /// queue-front removal may unblock it, so removals invalidate.
    bool has_conflict = false;
    std::uint64_t blocked_until = 0;
  };

  [[nodiscard]] bool row_hit(const Entry& e) const {
    const Bank& b = banks_[e.bank];
    return b.open && b.open_row == e.row;
  }

  // Earliest cycles at which a command could be issued under the timing
  // constraints alone (bank-state preconditions aside). The scheduler's issue
  // checks and the event-bound computations (sched_bound, try_prep's
  // blocked_until) share these so the fast path can never drift from the reference
  // semantics when a timing rule changes.
  [[nodiscard]] std::uint64_t earliest_act_cycle(const Entry& e) const;
  [[nodiscard]] std::uint64_t earliest_cas_cycle(const Entry& e) const;

  // Command issue (updates timing state + stats).
  void issue_activate(const Entry& e, std::uint64_t c);
  void issue_precharge(std::size_t bank, std::uint64_t c);
  void issue_cas(const Entry& e, std::uint64_t c);
  void issue_refresh(int rank, std::uint64_t c);

  /// Try to make progress on one queued request; returns true if a command
  /// was issued this cycle.
  bool schedule_queue(FixedRing<Entry>& q, std::uint64_t c);
  /// Start or advance a due refresh. Called only from cycle refresh_wake_
  /// on: before it no rank can start or advance one.
  bool try_refresh(std::uint64_t c);
  /// Earliest cycle > `c` at which try_refresh could act if no rank's
  /// demand or refresh state changes first.
  [[nodiscard]] std::uint64_t refresh_bound(std::uint64_t c) const;

  void retire(std::uint64_t c, Duration tick_period);

  /// Earliest cycle any entry in `q`'s scan window could have a command
  /// issued for it (CAS, PRE, or ACT), ignoring cross-entry ordering rules
  /// (which only delay, never advance, the true issue cycle).
  [[nodiscard]] std::uint64_t sched_bound(const FixedRing<Entry>& q, std::uint64_t c) const;

  [[nodiscard]] PrepCache& prep_cache_for(const FixedRing<Entry>& q);
  void invalidate_prep_caches();
  /// Incremental prep-cache maintenance after erasing a scan-window entry.
  void on_window_entry_removed(const FixedRing<Entry>& q, PrepCache& cache);

  const Spec& spec_;
  int channel_;

  std::vector<Bank> banks_;        // [rank][flat_bank] flattened
  std::vector<BankGroup> groups_;  // [rank][bankgroup] flattened
  std::vector<RankState> ranks_;
  FixedRing<Entry> read_q_{kQueueCapacity};
  FixedRing<Entry> write_q_{kQueueCapacity};
  /// FIFO by completion: bus_free_ is monotone, so CAS data transfers
  /// complete in issue order and retire pops from the front. At most one
  /// CAS issues per cycle and each completes within max(nCL, nWL) + nBL
  /// cycles, so the Spec timing bounds the ring (see the constructor).
  FixedRing<InFlight> inflight_;
  std::uint64_t bus_free_ = 0;  ///< first cycle the data bus is free
  bool draining_writes_ = false;
  /// Lower bound on the next cycle at which try_refresh can act: it scans
  /// the ranks only from this cycle on. Every state change that can make
  /// refresh act sooner (a rank's demand draining) lowers it; changes that
  /// delay refresh leave it early, which only costs a rescan.
  std::uint64_t refresh_wake_ = 0;
  PrepCache read_prep_cache_;
  PrepCache write_prep_cache_;
  Stats stats_;

  static constexpr std::size_t kWriteDrainHigh = 48;
  static constexpr std::size_t kWriteDrainLow = 16;
  static constexpr std::size_t kSchedulerScanDepth = 32;
  /// Buffered row hits at which a prep command is preferred over a CAS.
  static constexpr std::size_t kPrepSlackHits = 4;
  /// Sentinel for "no event until state changes".
  static constexpr std::uint64_t kNeverCycle = ~std::uint64_t{0};
};

}  // namespace monde::dram

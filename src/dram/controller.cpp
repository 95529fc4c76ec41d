#include "dram/controller.hpp"

#include <algorithm>

namespace monde::dram {

Stats& Stats::operator+=(const Stats& o) {
  reads_completed += o.reads_completed;
  writes_completed += o.writes_completed;
  row_hits += o.row_hits;
  row_misses += o.row_misses;
  row_conflicts += o.row_conflicts;
  activates += o.activates;
  precharges += o.precharges;
  refreshes += o.refreshes;
  data_bus_busy_cycles += o.data_bus_busy_cycles;
  total_cycles = std::max(total_cycles, o.total_cycles);
  read_latency_sum_ns += o.read_latency_sum_ns;
  return *this;
}

ChannelController::ChannelController(const Spec& spec, int channel_index)
    : spec_{spec},
      channel_{channel_index},
      inflight_{static_cast<std::size_t>(std::max(spec.timing.nCL, spec.timing.nWL) +
                                         spec.timing.nBL)} {
  banks_.resize(static_cast<std::size_t>(spec_.org.banks_per_channel()));
  groups_.resize(static_cast<std::size_t>(spec_.org.ranks * spec_.org.bankgroups));
  ranks_.resize(static_cast<std::size_t>(spec_.org.ranks));
  // Stagger refresh across ranks so they do not all block simultaneously.
  const int refi = spec_.timing.nREFI;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].refresh_due =
        static_cast<std::uint64_t>(refi) * (r + 1) / ranks_.size() + static_cast<std::uint64_t>(refi) / 8;
  }
}

bool ChannelController::can_accept() const {
  return read_q_.size() < kQueueCapacity && write_q_.size() < kQueueCapacity;
}

bool ChannelController::try_enqueue(const Request& req, const Address& a,
                                    std::uint64_t now_cycle) {
  MONDE_REQUIRE(a.channel == channel_, "request routed to wrong channel");
  if (!can_accept()) return false;
  const bool is_read = req.type == Request::Type::kRead;
  FixedRing<Entry>& q = is_read ? read_q_ : write_q_;
  Entry& e = q.emplace_back();
  e.req = req;
  e.enqueue_cycle = now_cycle;
  e.bank = static_cast<std::uint32_t>(a.rank * spec_.org.banks_per_rank() +
                                      a.flat_bank(spec_.org));
  e.group = static_cast<std::uint32_t>(a.rank * spec_.org.bankgroups + a.bankgroup);
  e.rank = a.rank;
  e.row = a.row;
  ranks_[static_cast<std::size_t>(a.rank)].queued_demand++;
  if (q.size() <= kSchedulerScanDepth) prep_cache_for(q).valid = false;
  return true;
}

std::uint64_t ChannelController::earliest_act_cycle(const Entry& e) const {
  const RankState& r = ranks_[static_cast<std::size_t>(e.rank)];
  std::uint64_t c = std::max({banks_[e.bank].next_act, groups_[e.group].next_act, r.next_act});
  // tFAW: at most kFawActivates ACTs per rank in any nFAW window.
  if (r.act_count == kFawActivates) {
    c = std::max(c, r.act_window[r.act_next] + static_cast<std::uint64_t>(spec_.timing.nFAW));
  }
  return c;
}

std::uint64_t ChannelController::earliest_cas_cycle(const Entry& e) const {
  const Bank& b = banks_[e.bank];
  const BankGroup& g = groups_[e.group];
  const RankState& r = ranks_[static_cast<std::size_t>(e.rank)];
  const bool is_read = e.is_read();
  std::uint64_t c = is_read ? std::max({b.next_rd, g.next_rd, r.next_rd})
                            : std::max({b.next_wr, g.next_wr, r.next_wr});
  // Data bus must be free when the data burst starts, CL/WL after the CAS.
  const auto lat = static_cast<std::uint64_t>(is_read ? spec_.timing.nCL : spec_.timing.nWL);
  if (bus_free_ > lat) c = std::max(c, bus_free_ - lat);
  return c;
}

void ChannelController::issue_activate(const Entry& e, std::uint64_t c) {
  invalidate_prep_caches();
  Bank& b = banks_[e.bank];
  RankState& r = ranks_[static_cast<std::size_t>(e.rank)];
  const Timing& t = spec_.timing;
  b.open = true;
  b.open_row = e.row;
  b.next_rd = std::max(b.next_rd, c + static_cast<std::uint64_t>(t.nRCD));
  b.next_wr = std::max(b.next_wr, c + static_cast<std::uint64_t>(t.nRCD));
  b.next_pre = std::max(b.next_pre, c + static_cast<std::uint64_t>(t.nRAS));
  b.next_act = std::max(b.next_act, c + static_cast<std::uint64_t>(t.nRC));
  // Rank-level ACT-to-ACT: conservatively apply the same-bank-group value to
  // the whole rank when bank groups are close; model both distances by using
  // the short distance at rank level and the long one per bank group below.
  r.next_act = std::max(r.next_act, c + static_cast<std::uint64_t>(t.nRRDS));
  // Same-bank-group RRD_L.
  BankGroup& g = groups_[e.group];
  g.next_act = std::max(g.next_act, c + static_cast<std::uint64_t>(t.nRRDL));
  r.act_window[r.act_next] = c;
  r.act_next = (r.act_next + 1) % kFawActivates;
  r.act_count = std::min(r.act_count + 1, kFawActivates);
  ++stats_.activates;
}

void ChannelController::issue_precharge(std::size_t bank, std::uint64_t c) {
  invalidate_prep_caches();
  Bank& b = banks_[bank];
  b.open = false;
  b.open_row = -1;
  b.next_act = std::max(b.next_act, c + static_cast<std::uint64_t>(spec_.timing.nRP));
  ++stats_.precharges;
}

void ChannelController::issue_cas(const Entry& e, std::uint64_t c) {
  const Timing& t = spec_.timing;
  const bool is_read = e.is_read();
  Bank& b = banks_[e.bank];
  BankGroup& g = groups_[e.group];
  RankState& r = ranks_[static_cast<std::size_t>(e.rank)];

  const std::uint64_t lat = static_cast<std::uint64_t>(is_read ? t.nCL : t.nWL);
  const std::uint64_t data_start = c + lat;
  const std::uint64_t data_end = data_start + static_cast<std::uint64_t>(t.nBL);
  bus_free_ = data_end;
  stats_.data_bus_busy_cycles += static_cast<std::uint64_t>(t.nBL);

  // CAS-to-CAS separation: long within the same bank group (group state),
  // short across (rank state).
  r.next_rd = std::max(r.next_rd, c + static_cast<std::uint64_t>(t.nCCDS));
  r.next_wr = std::max(r.next_wr, c + static_cast<std::uint64_t>(t.nCCDS));
  g.next_rd = std::max(g.next_rd, c + static_cast<std::uint64_t>(t.nCCDL));
  g.next_wr = std::max(g.next_wr, c + static_cast<std::uint64_t>(t.nCCDL));

  if (is_read) {
    b.next_pre = std::max(b.next_pre, c + static_cast<std::uint64_t>(t.nRTP));
    // Read-to-write turnaround handled by the data-bus check plus one bubble.
    r.next_wr = std::max(r.next_wr, data_end + 1 - std::min<std::uint64_t>(data_end + 1,
                                                      static_cast<std::uint64_t>(t.nWL)));
  } else {
    b.next_pre = std::max(b.next_pre, data_end + static_cast<std::uint64_t>(t.nWR));
    r.next_rd = std::max(r.next_rd, data_end + static_cast<std::uint64_t>(t.nWTRS));
    g.next_rd = std::max(g.next_rd, data_end + static_cast<std::uint64_t>(t.nWTRL));
  }

  ++stats_.row_hits;  // row was already open and matching

  MONDE_ASSERT(r.queued_demand > 0, "rank demand accounting underflow");
  // A rank whose demand drains may refresh without postponement.
  if (--r.queued_demand == 0) refresh_wake_ = std::min(refresh_wake_, r.refresh_due);
  // bus_free_ is monotone, so completions are FIFO; retire() relies on this.
  MONDE_ASSERT(inflight_.empty() || inflight_.back().complete_cycle < data_end,
               "in-flight completions must be FIFO");
  InFlight& f = inflight_.emplace_back();
  f.req = e.req;
  f.complete_cycle = data_end;
  f.enqueue_cycle = e.enqueue_cycle;
}

void ChannelController::issue_refresh(int rank, std::uint64_t c) {
  invalidate_prep_caches();
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  const Timing& t = spec_.timing;
  const auto per_rank = static_cast<std::size_t>(spec_.org.banks_per_rank());
  const std::size_t first = static_cast<std::size_t>(rank) * per_rank;
  for (std::size_t i = first; i < first + per_rank; ++i) {
    Bank& b = banks_[i];
    MONDE_ASSERT(!b.open, "refresh issued with open bank");
    b.next_act = std::max(b.next_act, c + static_cast<std::uint64_t>(t.nRFC));
  }
  r.refresh_due += static_cast<std::uint64_t>(t.nREFI);
  r.refresh_pending = false;
  ++stats_.refreshes;
}

std::uint64_t ChannelController::refresh_bound(std::uint64_t c) const {
  std::uint64_t e = kNeverCycle;
  for (const RankState& r : ranks_) {
    // Quiescing: a PRE or the REF itself may issue as soon as next cycle.
    if (r.refresh_pending) return c + 1;
    // Demand postpones refresh up to the JEDEC window, then it is forced.
    e = std::min(e, r.queued_demand == 0
                        ? r.refresh_due
                        : r.refresh_due + kMaxPostponedRefreshes *
                                              static_cast<std::uint64_t>(spec_.timing.nREFI));
  }
  return std::max(e, c + 1);
}

bool ChannelController::try_refresh(std::uint64_t c) {
  const auto per_rank = static_cast<std::size_t>(spec_.org.banks_per_rank());
  const bool issued = [&] {
    for (std::size_t rk = 0; rk < ranks_.size(); ++rk) {
      RankState& r = ranks_[rk];
      if (c >= r.refresh_due) {
        // Postpone while the rank has queued demand, up to the JEDEC window;
        // once the debt reaches kMaxPostponedRefreshes intervals, force it.
        const bool forced =
            c >= r.refresh_due +
                     kMaxPostponedRefreshes * static_cast<std::uint64_t>(spec_.timing.nREFI);
        if ((forced || r.queued_demand == 0) && !r.refresh_pending) {
          r.refresh_pending = true;
          // refresh_pending changes which entries the prep scan may consider.
          invalidate_prep_caches();
        }
      }
      if (!r.refresh_pending) continue;
      // Close any open bank in this rank, oldest-first by simple scan.
      bool any_open = false;
      for (std::size_t i = rk * per_rank; i < (rk + 1) * per_rank; ++i) {
        const Bank& b = banks_[i];
        if (b.open) {
          any_open = true;
          if (c >= b.next_pre) {
            issue_precharge(i, c);
            return true;  // one command per cycle
          }
        }
      }
      if (!any_open) {
        issue_refresh(static_cast<int>(rk), c);
        return true;
      }
    }
    return false;
  }();
  refresh_wake_ = refresh_bound(c);
  return issued;
}

bool ChannelController::schedule_queue(FixedRing<Entry>& q, std::uint64_t c) {
  if (q.empty()) return false;
  const std::size_t scan = std::min(q.size(), kSchedulerScanDepth);
  PrepCache& cache = prep_cache_for(q);
  // The prep cache proves that no ACT or PRE can issue this cycle: both
  // try_prep calls below then fail without side effects, and the only
  // command left is the CAS of the oldest ready row hit.
  const bool prep_blocked = cache.valid && c < cache.blocked_until;

  // Pass 1 (FR): find the oldest row-hit request whose CAS can issue now,
  // and count how much row-hit work is buffered behind it. When plenty of
  // CAS work remains, spending this command slot on a *prep* command
  // (ACT/PRE for a younger request's bank) instead hides the tRCD+tRP
  // latency of upcoming row/rank switches behind the ongoing data burst --
  // the "open next row early" policy of streaming-oriented controllers.
  // The decision below needs only `hit_idx` and whether the buffered hit
  // count reaches kPrepSlackHits, so the scan stops as soon as both are
  // known (in steady-state streaming: after a handful of entries), and at
  // `hit_idx` itself when no prep command can issue (in steady streaming:
  // at the front entry).
  std::size_t hit_idx = q.size();
  std::size_t hits_buffered = 0;
  for (std::size_t i = 0; i < scan; ++i) {
    const Entry& e = q[i];
    if (ranks_[static_cast<std::size_t>(e.rank)].refresh_pending) continue;  // quiescing
    if (!row_hit(e)) continue;
    ++hits_buffered;
    if (hit_idx == q.size() && c >= earliest_cas_cycle(e)) hit_idx = i;
    if (hit_idx != q.size() && (prep_blocked || hits_buffered >= kPrepSlackHits)) break;
  }

  // Prep commands are safe to issue eagerly (PRE never closes a row an
  // older request still wants; ACT only opens needed rows), so prefer them
  // whenever a few CAS are buffered to absorb the one-cycle command slot.
  const bool cas_has_slack = hits_buffered >= kPrepSlackHits;

  // Pass 2 (FCFS / prep): oldest request that needs bank preparation. A
  // failed scan records when it could first succeed so the (hot) all-hits
  // streaming case skips the rescan entirely until then.
  auto try_prep = [&]() -> bool {
    if (cache.valid && c < cache.blocked_until) return false;
    std::uint64_t blocked_until = kNeverCycle;
    bool has_conflict = false;
    for (std::size_t i = 0; i < scan; ++i) {
      const Entry& e = q[i];
      if (ranks_[static_cast<std::size_t>(e.rank)].refresh_pending) continue;
      const Bank& b = banks_[e.bank];
      if (b.open && b.open_row != e.row) {
        // Only close a row that no older queued request still wants.
        bool older_wants_row = false;
        for (std::size_t j = 0; j < i; ++j) {
          if (q[j].bank == e.bank && q[j].row == b.open_row) {
            older_wants_row = true;
            break;
          }
        }
        if (!older_wants_row && c >= b.next_pre) {
          ++stats_.row_conflicts;
          issue_precharge(e.bank, c);
          return true;
        }
        if (older_wants_row) {
          has_conflict = true;  // unblocks only via a queue change
        } else {
          blocked_until = std::min(blocked_until, b.next_pre);
        }
        continue;
      }
      if (!b.open) {
        const std::uint64_t act = earliest_act_cycle(e);
        if (c >= act) {
          ++stats_.row_misses;
          issue_activate(e, c);
          return true;
        }
        blocked_until = std::min(blocked_until, act);
        continue;
      }
      // Row open and matching: CAS handled by pass 1.
    }
    cache.valid = true;
    cache.has_conflict = has_conflict;
    cache.blocked_until = blocked_until;
    return false;
  };

  if (cas_has_slack && try_prep()) return true;
  if (hit_idx != q.size()) {
    issue_cas(q[hit_idx], c);
    q.erase(hit_idx);
    on_window_entry_removed(q, cache);
    return true;
  }
  return try_prep();
}

ChannelController::PrepCache& ChannelController::prep_cache_for(const FixedRing<Entry>& q) {
  return &q == &read_q_ ? read_prep_cache_ : write_prep_cache_;
}

void ChannelController::invalidate_prep_caches() {
  read_prep_cache_.valid = false;
  write_prep_cache_.valid = false;
}

void ChannelController::on_window_entry_removed(const FixedRing<Entry>& q, PrepCache& cache) {
  if (!cache.valid) return;
  // Removing an entry may unblock a PRE whose open row only that (older)
  // entry still wanted.
  if (cache.has_conflict) {
    cache.valid = false;
    return;
  }
  if (q.size() < kSchedulerScanDepth) return;  // window membership unchanged
  // One entry shifted into the scan window; only a non-hit adds a prep
  // candidate the cached bound does not account for.
  if (!row_hit(q[kSchedulerScanDepth - 1])) cache.valid = false;
}

void ChannelController::retire(std::uint64_t c, Duration tick_period) {
  // In-flight transfers complete in FIFO order (see issue_cas), so retiring
  // is a pop from the front rather than a full scan.
  while (!inflight_.empty() && inflight_.front().complete_cycle <= c) {
    const InFlight& f = inflight_.front();
    if (f.req.type == Request::Type::kRead) {
      ++stats_.reads_completed;
      stats_.read_latency_sum_ns += static_cast<double>(c - f.enqueue_cycle) * tick_period.ns();
    } else {
      ++stats_.writes_completed;
    }
    if (f.req.on_complete != nullptr) {
      f.req.on_complete(f.req.context, f.req, tick_period * static_cast<double>(c));
    }
    inflight_.pop_front();
  }
}

void ChannelController::tick(std::uint64_t cycle, Duration tick_period) {
  stats_.total_cycles = cycle;
  retire(cycle, tick_period);

  // Refresh has absolute priority once due.
  if (cycle >= refresh_wake_ && try_refresh(cycle)) return;

  // Write draining hysteresis.
  if (write_q_.size() >= kWriteDrainHigh) draining_writes_ = true;
  if (write_q_.size() <= kWriteDrainLow) draining_writes_ = false;

  if (draining_writes_ || read_q_.empty()) {
    if (schedule_queue(write_q_, cycle)) return;
    if (!draining_writes_) return;
    // While draining, also let reads through if writes are blocked.
    schedule_queue(read_q_, cycle);
    return;
  }
  if (schedule_queue(read_q_, cycle)) return;
  // Reads blocked on timing: opportunistically serve writes.
  schedule_queue(write_q_, cycle);
}

bool ChannelController::idle() const {
  return read_q_.empty() && write_q_.empty() && inflight_.empty();
}

std::uint64_t ChannelController::sched_bound(const FixedRing<Entry>& q, std::uint64_t c) const {
  const std::size_t scan = std::min(q.size(), kSchedulerScanDepth);
  std::uint64_t bound = kNeverCycle;
  for (std::size_t i = 0; i < scan; ++i) {
    const Entry& e = q[i];
    if (ranks_[static_cast<std::size_t>(e.rank)].refresh_pending) {
      continue;  // wakes via the refresh bound instead
    }
    const Bank& b = banks_[e.bank];
    if (b.open && b.open_row == e.row) {
      bound = std::min(bound, earliest_cas_cycle(e));
    } else if (b.open) {
      // PRE candidate. The older-wants-row ordering rule can only delay the
      // real issue past this, which keeps the bound a valid lower bound.
      bound = std::min(bound, b.next_pre);
    } else {
      bound = std::min(bound, earliest_act_cycle(e));
    }
    if (bound <= c + 1) return bound;  // cannot get earlier than next cycle
  }
  return bound;
}

std::uint64_t ChannelController::next_event_cycle(std::uint64_t c) const {
  // refresh_wake_ is a lower bound on the next cycle refresh can act (see
  // try_refresh), so it bounds the refresh side of the event.
  std::uint64_t e = std::max(refresh_wake_, c + 1);
  if (!inflight_.empty()) e = std::min(e, inflight_.front().complete_cycle);
  if (e > c + 1) e = std::min(e, sched_bound(read_q_, c));
  if (e > c + 1) e = std::min(e, sched_bound(write_q_, c));
  return std::max(e, c + 1);
}

}  // namespace monde::dram

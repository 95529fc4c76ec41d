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
  ranks_.resize(static_cast<std::size_t>(spec_.org.ranks));
  // Stagger refresh across ranks so they do not all block simultaneously.
  const int refi = spec_.timing.nREFI;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].refresh_due =
        static_cast<std::uint64_t>(refi) * (r + 1) / ranks_.size() + static_cast<std::uint64_t>(refi) / 8;
  }
}

ChannelController::Bank& ChannelController::bank_at(const Address& a) {
  const auto idx = static_cast<std::size_t>(a.rank * spec_.org.banks_per_rank() +
                                            a.flat_bank(spec_.org));
  return banks_[idx];
}

const ChannelController::Bank& ChannelController::bank_at(const Address& a) const {
  const auto idx = static_cast<std::size_t>(a.rank * spec_.org.banks_per_rank() +
                                            a.flat_bank(spec_.org));
  return banks_[idx];
}

bool ChannelController::can_accept() const {
  return read_q_.size() < kQueueCapacity && write_q_.size() < kQueueCapacity;
}

void ChannelController::enqueue(Request req, const Address& a, std::uint64_t now_cycle) {
  MONDE_REQUIRE(a.channel == channel_, "request routed to wrong channel");
  Entry e{std::move(req), a, now_cycle};
  ranks_[static_cast<std::size_t>(a.rank)].queued_demand++;
  if (e.req.type == Request::Type::kRead) {
    read_q_.push_back(std::move(e));
    if (read_q_.size() <= kSchedulerScanDepth) read_prep_cache_.valid = false;
  } else {
    write_q_.push_back(std::move(e));
    if (write_q_.size() <= kSchedulerScanDepth) write_prep_cache_.valid = false;
  }
}

std::uint64_t ChannelController::earliest_act_cycle(const Address& a) const {
  const Bank& b = bank_at(a);
  const RankState& r = ranks_[static_cast<std::size_t>(a.rank)];
  std::uint64_t c = std::max(b.next_act, r.next_act);
  // tFAW: at most kFawActivates ACTs per rank in any nFAW window.
  if (r.act_count == kFawActivates) {
    c = std::max(c, r.act_window[r.act_next] + static_cast<std::uint64_t>(spec_.timing.nFAW));
  }
  return c;
}

std::uint64_t ChannelController::earliest_cas_cycle(const Address& a, bool is_read) const {
  const Bank& b = bank_at(a);
  const RankState& r = ranks_[static_cast<std::size_t>(a.rank)];
  std::uint64_t c = is_read ? std::max(b.next_rd, r.next_rd) : std::max(b.next_wr, r.next_wr);
  // Data bus must be free when the data burst starts, CL/WL after the CAS.
  const auto lat = static_cast<std::uint64_t>(is_read ? spec_.timing.nCL : spec_.timing.nWL);
  if (bus_free_ > lat) c = std::max(c, bus_free_ - lat);
  return c;
}

bool ChannelController::can_activate(const Address& a, std::uint64_t c) const {
  return !bank_at(a).open && c >= earliest_act_cycle(a);
}

bool ChannelController::can_precharge(const Address& a, std::uint64_t c) const {
  const Bank& b = bank_at(a);
  return b.open && c >= b.next_pre;
}

bool ChannelController::can_read(const Address& a, std::uint64_t c) const {
  const Bank& b = bank_at(a);
  if (!b.open || b.open_row != a.row) return false;
  return c >= earliest_cas_cycle(a, /*is_read=*/true);
}

bool ChannelController::can_write(const Address& a, std::uint64_t c) const {
  const Bank& b = bank_at(a);
  if (!b.open || b.open_row != a.row) return false;
  return c >= earliest_cas_cycle(a, /*is_read=*/false);
}

void ChannelController::issue_activate(const Address& a, std::uint64_t c) {
  invalidate_prep_caches();
  Bank& b = bank_at(a);
  RankState& r = ranks_[static_cast<std::size_t>(a.rank)];
  const Timing& t = spec_.timing;
  b.open = true;
  b.open_row = a.row;
  b.next_rd = std::max(b.next_rd, c + static_cast<std::uint64_t>(t.nRCD));
  b.next_wr = std::max(b.next_wr, c + static_cast<std::uint64_t>(t.nRCD));
  b.next_pre = std::max(b.next_pre, c + static_cast<std::uint64_t>(t.nRAS));
  b.next_act = std::max(b.next_act, c + static_cast<std::uint64_t>(t.nRC));
  // Rank-level ACT-to-ACT: conservatively apply the same-bank-group value to
  // the whole rank when bank groups are close; model both distances by using
  // the short distance at rank level and the long one per bank group below.
  r.next_act = std::max(r.next_act, c + static_cast<std::uint64_t>(t.nRRDS));
  // Same-bank-group RRD_L: push next_act of sibling banks.
  for (int bank = 0; bank < spec_.org.banks_per_group; ++bank) {
    Address sib = a;
    sib.bank = bank;
    Bank& sb = bank_at(sib);
    sb.next_act = std::max(sb.next_act, c + static_cast<std::uint64_t>(t.nRRDL));
  }
  r.act_window[r.act_next] = c;
  r.act_next = (r.act_next + 1) % kFawActivates;
  r.act_count = std::min(r.act_count + 1, kFawActivates);
  ++stats_.activates;
}

void ChannelController::issue_precharge(const Address& a, std::uint64_t c) {
  invalidate_prep_caches();
  Bank& b = bank_at(a);
  b.open = false;
  b.open_row = -1;
  b.next_act = std::max(b.next_act, c + static_cast<std::uint64_t>(spec_.timing.nRP));
  ++stats_.precharges;
}

void ChannelController::issue_cas(Entry& e, std::uint64_t c) {
  const Timing& t = spec_.timing;
  const bool is_read = e.req.type == Request::Type::kRead;
  Bank& b = bank_at(e.addr);
  RankState& r = ranks_[static_cast<std::size_t>(e.addr.rank)];

  const std::uint64_t lat = static_cast<std::uint64_t>(is_read ? t.nCL : t.nWL);
  const std::uint64_t data_start = c + lat;
  const std::uint64_t data_end = data_start + static_cast<std::uint64_t>(t.nBL);
  bus_free_ = data_end;
  stats_.data_bus_busy_cycles += static_cast<std::uint64_t>(t.nBL);

  // CAS-to-CAS separation: long within the same bank group (per-bank state
  // below), short across (rank-level state).
  r.next_rd = std::max(r.next_rd, c + static_cast<std::uint64_t>(t.nCCDS));
  r.next_wr = std::max(r.next_wr, c + static_cast<std::uint64_t>(t.nCCDS));
  for (int bank = 0; bank < spec_.org.banks_per_group; ++bank) {
    Address sib = e.addr;
    sib.bank = bank;
    Bank& sb = bank_at(sib);
    sb.next_rd = std::max(sb.next_rd, c + static_cast<std::uint64_t>(t.nCCDL));
    sb.next_wr = std::max(sb.next_wr, c + static_cast<std::uint64_t>(t.nCCDL));
  }

  if (is_read) {
    b.next_pre = std::max(b.next_pre, c + static_cast<std::uint64_t>(t.nRTP));
    // Read-to-write turnaround handled by the data-bus check plus one bubble.
    r.next_wr = std::max(r.next_wr, data_end + 1 - std::min<std::uint64_t>(data_end + 1,
                                                      static_cast<std::uint64_t>(t.nWL)));
  } else {
    b.next_pre = std::max(b.next_pre, data_end + static_cast<std::uint64_t>(t.nWR));
    r.next_rd = std::max(r.next_rd, data_end + static_cast<std::uint64_t>(t.nWTRS));
    for (int bank = 0; bank < spec_.org.banks_per_group; ++bank) {
      Address sib = e.addr;
      sib.bank = bank;
      Bank& sb = bank_at(sib);
      sb.next_rd = std::max(sb.next_rd, data_end + static_cast<std::uint64_t>(t.nWTRL));
    }
  }

  ++stats_.row_hits;  // row was already open and matching

  MONDE_ASSERT(r.queued_demand > 0, "rank demand accounting underflow");
  r.queued_demand--;
  // bus_free_ is monotone, so completions are FIFO; retire() relies on this.
  MONDE_ASSERT(inflight_.empty() || inflight_.back().complete_cycle < data_end,
               "in-flight completions must be FIFO");
  inflight_.push_back(InFlight{std::move(e.req), data_end, e.enqueue_cycle, is_read});
}

void ChannelController::issue_refresh(int rank, std::uint64_t c) {
  invalidate_prep_caches();
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  const Timing& t = spec_.timing;
  for (int fb = 0; fb < spec_.org.banks_per_rank(); ++fb) {
    Address a;
    a.rank = rank;
    a.bankgroup = fb / spec_.org.banks_per_group;
    a.bank = fb % spec_.org.banks_per_group;
    Bank& b = bank_at(a);
    MONDE_ASSERT(!b.open, "refresh issued with open bank");
    b.next_act = std::max(b.next_act, c + static_cast<std::uint64_t>(t.nRFC));
  }
  r.refresh_due += static_cast<std::uint64_t>(t.nREFI);
  r.refresh_pending = false;
  ++stats_.refreshes;
}

bool ChannelController::try_refresh(std::uint64_t c) {
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
    for (int fb = 0; fb < spec_.org.banks_per_rank(); ++fb) {
      Address a;
      a.rank = static_cast<int>(rk);
      a.bankgroup = fb / spec_.org.banks_per_group;
      a.bank = fb % spec_.org.banks_per_group;
      Bank& b = bank_at(a);
      if (b.open) {
        any_open = true;
        if (can_precharge(a, c)) {
          issue_precharge(a, c);
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
}

bool ChannelController::schedule_queue(FixedRing<Entry>& q, std::uint64_t c) {
  const std::size_t scan = std::min(q.size(), kSchedulerScanDepth);
  PrepCache& cache = prep_cache_for(q);

  // Pass 1 (FR): find the oldest row-hit request whose CAS can issue now,
  // and count how much row-hit work is buffered behind it. When plenty of
  // CAS work remains, spending this command slot on a *prep* command
  // (ACT/PRE for a younger request's bank) instead hides the tRCD+tRP
  // latency of upcoming row/rank switches behind the ongoing data burst --
  // the "open next row early" policy of streaming-oriented controllers.
  // The decision below needs only `hit_idx` and whether the buffered hit
  // count reaches kPrepSlackHits, so the scan stops as soon as both are
  // known (in steady-state streaming: after a handful of entries).
  std::size_t hit_idx = q.size();
  std::size_t hits_buffered = 0;
  for (std::size_t i = 0; i < scan; ++i) {
    Entry& e = q[i];
    const RankState& r = ranks_[static_cast<std::size_t>(e.addr.rank)];
    if (r.refresh_pending) continue;  // rank is quiescing for refresh
    const Bank& b = bank_at(e.addr);
    if (!b.open || b.open_row != e.addr.row) continue;
    ++hits_buffered;
    if (hit_idx == q.size()) {
      const bool ok = e.req.type == Request::Type::kRead ? can_read(e.addr, c)
                                                         : can_write(e.addr, c);
      if (ok) hit_idx = i;
    }
    if (hit_idx != q.size() && hits_buffered >= kPrepSlackHits) break;
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
      Entry& e = q[i];
      const RankState& r = ranks_[static_cast<std::size_t>(e.addr.rank)];
      if (r.refresh_pending) continue;
      const Bank& b = bank_at(e.addr);
      if (b.open && b.open_row != e.addr.row) {
        // Only close a row that no older queued request still wants.
        bool older_wants_row = false;
        for (std::size_t j = 0; j < i; ++j) {
          if (q[j].addr.rank == e.addr.rank && q[j].addr.bankgroup == e.addr.bankgroup &&
              q[j].addr.bank == e.addr.bank && q[j].addr.row == b.open_row) {
            older_wants_row = true;
            break;
          }
        }
        if (!older_wants_row && can_precharge(e.addr, c)) {
          ++stats_.row_conflicts;
          issue_precharge(e.addr, c);
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
        if (can_activate(e.addr, c)) {
          ++stats_.row_misses;
          issue_activate(e.addr, c);
          return true;
        }
        blocked_until = std::min(blocked_until, earliest_act_cycle(e.addr));
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
  const Entry& e = q[kSchedulerScanDepth - 1];
  const Bank& b = bank_at(e.addr);
  if (!b.open || b.open_row != e.addr.row) cache.valid = false;
}

void ChannelController::retire(std::uint64_t c, Duration tick_period) {
  // In-flight transfers complete in FIFO order (see issue_cas), so retiring
  // is a pop from the front rather than a full scan.
  while (!inflight_.empty() && inflight_.front().complete_cycle <= c) {
    InFlight& f = inflight_.front();
    if (f.is_read) {
      ++stats_.reads_completed;
      stats_.read_latency_sum_ns += static_cast<double>(c - f.enqueue_cycle) * tick_period.ns();
    } else {
      ++stats_.writes_completed;
    }
    if (f.req.on_complete) {
      const Duration t = tick_period * static_cast<double>(c);
      f.req.on_complete(f.req, t);
    }
    inflight_.pop_front();
  }
}

void ChannelController::tick(std::uint64_t cycle, Duration tick_period) {
  stats_.total_cycles = cycle;
  retire(cycle, tick_period);

  // Refresh has absolute priority once due.
  if (try_refresh(cycle)) return;

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
    const RankState& r = ranks_[static_cast<std::size_t>(e.addr.rank)];
    if (r.refresh_pending) continue;  // wakes via the refresh bound instead
    const Bank& b = bank_at(e.addr);
    if (b.open && b.open_row == e.addr.row) {
      bound = std::min(bound,
                       earliest_cas_cycle(e.addr, e.req.type == Request::Type::kRead));
    } else if (b.open) {
      // PRE candidate. The older-wants-row ordering rule can only delay the
      // real issue past this, which keeps the bound a valid lower bound.
      bound = std::min(bound, b.next_pre);
    } else {
      bound = std::min(bound, earliest_act_cycle(e.addr));
    }
    if (bound <= c + 1) return bound;  // cannot get earlier than next cycle
  }
  return bound;
}

std::uint64_t ChannelController::next_event_cycle(std::uint64_t c) const {
  std::uint64_t e = kNeverCycle;
  if (!inflight_.empty()) e = std::min(e, inflight_.front().complete_cycle);
  for (const RankState& r : ranks_) {
    if (r.refresh_pending) {
      // Quiescing: a PRE or the REF itself may issue as soon as next cycle.
      e = std::min(e, c + 1);
    } else if (r.queued_demand == 0) {
      e = std::min(e, r.refresh_due);
    } else {
      // Demand postpones refresh up to the JEDEC window, then it is forced.
      e = std::min(e, r.refresh_due +
                          kMaxPostponedRefreshes * static_cast<std::uint64_t>(spec_.timing.nREFI));
    }
    if (e <= c + 1) return c + 1;
  }
  if (e > c + 1) e = std::min(e, sched_bound(read_q_, c));
  if (e > c + 1) e = std::min(e, sched_bound(write_q_, c));
  return std::max(e, c + 1);
}

}  // namespace monde::dram

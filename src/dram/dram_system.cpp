#include "dram/dram_system.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/error.hpp"

namespace monde::dram {

bool DramSystem::exhaustive_tick_env_default() {
  static const bool on = [] {
    const char* v = std::getenv("MONDE_EXHAUSTIVE_TICK");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
  }();
  return on;
}

DramSystem::DramSystem(Spec spec)
    : spec_{std::move(spec)}, mapper_{spec_}, period_{spec_.clock_period()} {
  channels_.reserve(static_cast<std::size_t>(spec_.org.channels));
  for (int c = 0; c < spec_.org.channels; ++c) {
    channels_.push_back(std::make_unique<ChannelController>(spec_, c));
  }
}

int DramSystem::channel_of(std::uint64_t addr) const { return mapper_.channel_of(addr); }

bool DramSystem::can_accept(std::uint64_t addr) const {
  return channel_can_accept(channel_of(addr));
}

bool DramSystem::channel_can_accept(int channel) const {
  return channels_[static_cast<std::size_t>(channel)]->can_accept();
}

bool DramSystem::try_enqueue(const Request& req) {
  // Admission first: a refusal reads the channel field alone (after the
  // capacity check), and only an accepted request is fully decoded.
  ChannelController& ch = *channels_[static_cast<std::size_t>(channel_of(req.addr))];
  if (!ch.can_accept()) return false;
  return ch.try_enqueue(req, mapper_.decompose(req.addr), cycle_);
}

void DramSystem::enqueue(const Request& req) {
  const bool accepted = try_enqueue(req);
  MONDE_REQUIRE(accepted,
                "channel " << channel_of(req.addr) << " queue full; check can_accept() first");
}

void DramSystem::tick() {
  ++cycle_;
  for (auto& ch : channels_) ch->tick(cycle_, period_);
}

void DramSystem::advance_until(std::uint64_t limit_cycle) {
  if (exhaustive_tick_) {
    tick();
    return;
  }
  // Every call advances at least one cycle, so once some channel's next
  // event is the very next cycle the other channels need not be asked.
  const std::uint64_t next = cycle_ + 1;
  std::uint64_t target = limit_cycle;
  for (const auto& ch : channels_) {
    if (target <= next) break;
    target = std::min(target, ch->next_event_cycle(cycle_));
  }
  cycle_ = std::max(target, next);
  for (auto& ch : channels_) ch->tick(cycle_, period_);
}

void DramSystem::run_until_idle() {
  // Guard against runaway loops from scheduling bugs. The limit is phrased
  // in simulated time (not raw cycles) so it stays meaningful across clock
  // rates: no workload in this repository legitimately needs more than ~1 s
  // of simulated DRAM time to drain.
  const Duration max_drain = Duration::seconds(1.0);
  const std::uint64_t limit = cycle_ + static_cast<std::uint64_t>(max_drain / period_) + 1;
  while (!idle()) {
    advance_until(limit);
    if (cycle_ >= limit && !idle()) {
      std::ostringstream os;
      os << "DRAM system failed to drain within " << max_drain.str()
         << " of simulated time (scheduler livelock?); stuck channels:";
      for (std::size_t c = 0; c < channels_.size(); ++c) {
        if (channels_[c]->idle()) continue;
        os << " ch" << c << "{queued=" << channels_[c]->queue_depth()
           << ", inflight=" << channels_[c]->inflight_count() << "}";
      }
      MONDE_ASSERT(false, os.str());
    }
  }
}

Duration DramSystem::now() const { return period_ * static_cast<double>(cycle_); }

bool DramSystem::idle() const {
  for (const auto& ch : channels_) {
    if (!ch->idle()) return false;
  }
  return true;
}

Stats DramSystem::stats() const {
  Stats agg;
  for (const auto& ch : channels_) agg += ch->stats();
  // Utilization denominators aggregate across channels: one device cycle
  // offers `channels` data-bus cycles.
  agg.total_cycles = cycle_ * static_cast<std::uint64_t>(spec_.org.channels);
  return agg;
}

Bandwidth DramSystem::achieved_bandwidth() const {
  const Stats s = stats();
  const double secs = now().sec();
  if (secs <= 0.0) return Bandwidth::gbps(0.0);
  const double bytes =
      static_cast<double>(s.accesses()) * static_cast<double>(spec_.org.access_bytes);
  return Bandwidth::bytes_per_sec(bytes / secs);
}

}  // namespace monde::dram

// Memory request type exchanged between the NDP core model and the DRAM
// simulator. One request moves exactly one column access (Spec access_bytes).
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/units.hpp"

namespace monde::dram {

/// One column-granularity DRAM transaction. Trivially copyable: the
/// controller queues requests by value, so a request carries no owning
/// state -- its completion is a plain function pointer plus the caller's
/// context, and a caller with many requests in flight tells them apart by
/// `id`.
struct Request {
  enum class Type : std::uint8_t { kRead, kWrite };
  using Completion = void (*)(void* context, const Request& req, Duration completion_time);

  std::uint64_t addr = 0;
  Type type = Type::kRead;
  std::uint64_t id = 0;  ///< caller-assigned tag, echoed on completion

  /// Called with `context` at the cycle the data transfer finishes (read
  /// data returned / write data accepted by the device). May be null.
  Completion on_complete = nullptr;
  void* context = nullptr;

  /// Route the completion to `sink(req, completion_time)`. The request holds
  /// only `&sink`, so the sink must outlive the request's retirement.
  template <typename Sink>
  void complete_into(Sink& sink) {
    context = &sink;
    on_complete = [](void* ctx, const Request& req, Duration t) {
      (*static_cast<Sink*>(ctx))(req, t);
    };
  }
};
static_assert(std::is_trivially_copyable_v<Request>);

/// Aggregate statistics across the device (or one channel).
struct Stats {
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;   ///< ACT needed on an idle (closed) bank
  std::uint64_t row_conflicts = 0;  ///< PRE+ACT needed (other row open)
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t data_bus_busy_cycles = 0;
  std::uint64_t total_cycles = 0;
  double read_latency_sum_ns = 0.0;  ///< enqueue -> data return

  [[nodiscard]] std::uint64_t accesses() const { return reads_completed + writes_completed; }
  [[nodiscard]] double row_hit_rate() const {
    const auto total = row_hits + row_misses + row_conflicts;
    return total == 0 ? 0.0 : static_cast<double>(row_hits) / static_cast<double>(total);
  }
  [[nodiscard]] double avg_read_latency_ns() const {
    return reads_completed == 0 ? 0.0 : read_latency_sum_ns / static_cast<double>(reads_completed);
  }

  Stats& operator+=(const Stats& o);
};

}  // namespace monde::dram

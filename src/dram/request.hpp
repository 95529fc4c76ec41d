// Memory request type exchanged between the NDP core model and the DRAM
// simulator. One request moves exactly one column access (Spec access_bytes).
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.hpp"

namespace monde::dram {

/// One column-granularity DRAM transaction.
struct Request {
  enum class Type { kRead, kWrite };

  std::uint64_t addr = 0;
  Type type = Type::kRead;
  std::uint64_t id = 0;  ///< caller-assigned tag, echoed on completion

  /// Called at the cycle the data transfer finishes (read data returned /
  /// write data accepted by the device). May be empty.
  std::function<void(const Request&, Duration completion_time)> on_complete;
};

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

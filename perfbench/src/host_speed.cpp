#include "host_speed.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace.hpp"

namespace perfbench {

namespace {

volatile std::uint64_t g_sink;  // keeps the kernel's result alive

/// About 4-5 ms on a shared 4-vCPU x86 host: 40 000 xorshift keys into a
/// hash map of up to 100 000 entries, then a sort of its values.
void kernel() {
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 40'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x % 100'000] += x;
  }
  std::vector<std::uint64_t> values;
  values.reserve(table.size());
  for (const auto& [key, value] : table) values.push_back(value);
  std::sort(values.begin(), values.end());
  g_sink = values[values.size() / 2];
}

}  // namespace

void HostSpeed::sample(int n) {
  for (int i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    kernel();
    fastest_ms_ = std::min(fastest_ms_, static_cast<double>(now_ns() - t0) * 1e-6);
    ++samples_;
  }
}

}  // namespace perfbench

#include "dram/spec.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace monde::dram {

Spec Spec::monde_lpddr5x_8533() {
  Spec s;
  s.name = "MoNDE-LPDDR5X-8533";
  // Defaults in Organization/Timing are already the MoNDE configuration:
  // 8 channels x 8 ranks x 16 banks x 65536 rows x 8 KiB rows = 512 GiB,
  // 8 x 68.3 GB/s ~= 546 GB/s peak (512 GB/s sustained-class).
  return s;
}

Spec Spec::with_bandwidth_scale(double factor) const {
  MONDE_REQUIRE(factor > 0.0, "bandwidth scale must be positive");
  Spec s = *this;
  s.name = name + "@" + std::to_string(factor) + "x";
  s.data_rate_mtps = data_rate_mtps * factor;
  // Keep analog timings constant in wall-clock terms: rescale cycle counts
  // to the new (faster/slower) controller clock. Burst length stays 1 CK by
  // construction; latencies round up to whole cycles.
  auto rescale = [&](int cycles) {
    const double ns = static_cast<double>(cycles) * clock_period().ns();
    return std::max(1, static_cast<int>(std::ceil(ns / s.clock_period().ns())));
  };
  Timing& t = s.timing;
  const Timing o = timing;
  t.nCL = rescale(o.nCL);
  t.nWL = rescale(o.nWL);
  t.nRCD = rescale(o.nRCD);
  t.nRP = rescale(o.nRP);
  t.nRAS = rescale(o.nRAS);
  t.nRC = rescale(o.nRC);
  // CAS-to-CAS spacing is a bus-rate constraint (bursts stay seamless at
  // any data rate), not an analog latency -- keep the cycle counts.
  t.nCCDS = o.nCCDS;
  t.nCCDL = o.nCCDL;
  t.nRRDS = rescale(o.nRRDS);
  t.nRRDL = rescale(o.nRRDL);
  t.nFAW = rescale(o.nFAW);
  t.nRTP = rescale(o.nRTP);
  t.nWR = rescale(o.nWR);
  t.nWTRS = rescale(o.nWTRS);
  t.nWTRL = rescale(o.nWTRL);
  t.nREFI = rescale(o.nREFI);
  t.nRFC = rescale(o.nRFC);
  return s;
}

void Spec::validate() const {
  MONDE_REQUIRE(org.channels > 0 && org.channels <= 64, "invalid channel count");
  MONDE_REQUIRE(org.ranks > 0 && org.ranks <= 16, "invalid rank count");
  MONDE_REQUIRE(org.bankgroups > 0 && org.banks_per_group > 0, "invalid bank topology");
  MONDE_REQUIRE(org.rows > 0 && org.columns > 0, "invalid row/column counts");
  MONDE_REQUIRE(org.access_bytes > 0 && (org.access_bytes & (org.access_bytes - 1)) == 0,
                "access granularity must be a power of two");
  // Field widths must be powers of two so the address mapper can use bit slices.
  auto pow2 = [](int v) { return v > 0 && (v & (v - 1)) == 0; };
  MONDE_REQUIRE(pow2(org.channels) && pow2(org.ranks) && pow2(org.bankgroups) &&
                    pow2(org.banks_per_group) && pow2(org.rows) && pow2(org.columns),
                "organization dimensions must be powers of two for bit-sliced mapping");
  MONDE_REQUIRE(data_rate_mtps > 0.0, "data rate must be positive");
  // Every constraint is at least one cycle: a zero tREFI would make refresh
  // due forever, and a non-positive latency breaks the in-flight FIFO order.
  const Timing& t = timing;
  const std::pair<const char*, int> cycles[] = {
      {"nBL", t.nBL},   {"nCL", t.nCL},     {"nWL", t.nWL},     {"nRCD", t.nRCD},
      {"nRP", t.nRP},   {"nRAS", t.nRAS},   {"nRC", t.nRC},     {"nCCDS", t.nCCDS},
      {"nCCDL", t.nCCDL}, {"nRRDS", t.nRRDS}, {"nRRDL", t.nRRDL}, {"nFAW", t.nFAW},
      {"nRTP", t.nRTP}, {"nWR", t.nWR},     {"nWTRS", t.nWTRS}, {"nWTRL", t.nWTRL},
      {"nREFI", t.nREFI}, {"nRFC", t.nRFC}};
  for (const auto& [field, value] : cycles) {
    MONDE_REQUIRE(value >= 1, "timing " << field << " must be at least one cycle, got " << value);
  }
  MONDE_REQUIRE(t.nRAS + t.nRP <= t.nRC + 1, "tRC must cover tRAS + tRP");
  // A refresh must finish before the next one falls due, or the device does
  // nothing but refresh.
  MONDE_REQUIRE(t.nRFC < t.nREFI, "tRFC (" << t.nRFC << ") must be shorter than tREFI ("
                                            << t.nREFI << ")");
}

}  // namespace monde::dram

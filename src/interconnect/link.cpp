#include "interconnect/link.hpp"

#include <cmath>

#include "common/error.hpp"

namespace monde::interconnect {

LinkSpec LinkSpec::pcie_gen4_x16() {
  LinkSpec s;
  s.name = "PCIe-Gen4-x16";
  s.raw_bandwidth = Bandwidth::gbps(31.5);
  s.protocol_efficiency = 0.914;  // 256-B MPS: 256 / (256 + 24 B TLP overhead)
  s.propagation = Duration::micros(0.5);
  s.dma_setup = Duration::micros(4.0);
  return s;
}

LinkSpec LinkSpec::pcie_gen3_x16() {
  LinkSpec s = pcie_gen4_x16();
  s.name = "PCIe-Gen3-x16";
  s.raw_bandwidth = Bandwidth::gbps(15.75);
  return s;
}

LinkSpec LinkSpec::cxl_mem_gen4_x16() {
  LinkSpec s;
  s.name = "CXL.mem-Gen4-x16";
  s.raw_bandwidth = Bandwidth::gbps(31.5);
  s.protocol_efficiency = 64.0 / 68.0;  // 68-B flit, 64-B payload
  s.propagation = Duration::nanos(150.0);  // load-to-use class latency
  s.dma_setup = Duration::micros(1.0);     // lighter-weight than PCIe DMA
  return s;
}

void LinkSpec::validate() const {
  const double bw = effective_bandwidth().as_bytes_per_sec();
  MONDE_REQUIRE(std::isfinite(bw) && bw > 0.0,
                "link " << name << ": bandwidth must be finite and > 0");
  MONDE_REQUIRE(propagation >= Duration::zero() && dma_setup >= Duration::zero(),
                "link " << name << ": latencies must be non-negative");
}

}  // namespace monde::interconnect

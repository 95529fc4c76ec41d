// Host interconnect timing models: PCIe bulk-DMA links and the CXL.mem
// path used for MoNDE instruction/doorbell traffic.
//
// A transfer costs: DMA setup (descriptor + doorbell) + one-way propagation
// + payload / effective_bandwidth, where effective bandwidth derates the raw
// link rate by the protocol (TLP or flit) efficiency. Small MMIO-style
// messages skip DMA setup and pay per-message latency instead.
#pragma once

#include <string>

#include "common/units.hpp"

namespace monde::interconnect {

/// Static description of one link direction.
struct LinkSpec {
  std::string name;
  Bandwidth raw_bandwidth;       ///< per direction, after line coding
  double protocol_efficiency = 1.0;  ///< payload fraction of link bytes
  Duration propagation = Duration::micros(0.5);  ///< one-way latency
  Duration dma_setup = Duration::micros(4.0);    ///< descriptor + doorbell cost

  /// Payload bandwidth after protocol overhead.
  [[nodiscard]] Bandwidth effective_bandwidth() const {
    return raw_bandwidth * protocol_efficiency;
  }

  /// Bulk DMA transfer latency (setup + propagation + streaming).
  [[nodiscard]] Duration transfer_time(Bytes payload) const {
    return dma_setup + propagation + ::monde::transfer_time(payload, effective_bandwidth());
  }

  /// Latency of a small control message (no DMA setup), e.g. an MMIO write
  /// of one 64-B instruction or a doorbell/done-register access.
  [[nodiscard]] Duration message_time(Bytes payload) const {
    return propagation + ::monde::transfer_time(payload, effective_bandwidth());
  }

  // --- Presets -------------------------------------------------------------

  /// PCIe Gen4 x16: 16 GT/s x 16 lanes, 128b/130b -> 31.5 GB/s raw,
  /// ~91% TLP efficiency at 256-B MPS.
  [[nodiscard]] static LinkSpec pcie_gen4_x16();

  /// PCIe Gen3 x16: 8 GT/s x 16 lanes -> 15.75 GB/s raw.
  [[nodiscard]] static LinkSpec pcie_gen3_x16();

  /// CXL.mem over a Gen4 x16 PHY (as in the paper's MoNDE device): 68-B
  /// flits carrying 64-B payloads, sub-microsecond access latency, no DMA
  /// setup for flit-granularity requests.
  [[nodiscard]] static LinkSpec cxl_mem_gen4_x16();

  /// Throws monde::Error unless every transfer is priced finite: the
  /// effective bandwidth must be finite and positive (a zero rate prices a
  /// payload at +inf, a non-finite one at NaN) and both latencies
  /// non-negative.
  void validate() const;
};

}  // namespace monde::interconnect

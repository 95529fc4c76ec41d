// Disaggregated prefill/decode serving configuration.
//
// Splitwise/DistServe-style pool specialization for the fleet: when enabled,
// every replica is assigned a role -- prefill specialist or decode
// specialist. Dispatch routes newly arriving (prefill-phase) requests to the
// prefill pool only; as soon as a request's prompt is fully prefilled, the
// prefill replica releases it and its KV state is handed off to a decode
// replica over `handoff_link`, priced per token through the same
// kv_bytes_per_token model that prices retry/migration transfers
// (serve/kvcache.hpp). The handoff reuses the checkpointed-resume machinery:
// the released request carries a ResumeState with `prefilled == prompt_len`,
// so the decode replica admits it as a resumed request and never re-runs the
// prompt. The fleet's own dispatch policy picks that decode replica from the
// whole decode pool.
//
// Everything is off by default: with `enabled == false` the cluster is
// bit-identical to the unified fleet (pinned by tests/test_calendar_diff.cpp
// and tests/test_random_diff.cpp), mirroring the PrefixCacheConfig /
// ExpertServingConfig pattern.
#pragma once

#include <cstddef>

#include "common/error.hpp"
#include "interconnect/link.hpp"

namespace monde::serve {

struct DisaggConfig {
  bool enabled = false;

  /// Boot-time prefill specialists: replicas [0, prefill_replicas) of the
  /// initial fleet take the prefill role, the rest decode. Autoscaling keeps
  /// the pools near this boot-time ratio and never retires the last replica
  /// of either pool.
  std::size_t prefill_replicas = 1;

  /// Link carrying the KV state of a prefilled request from its prefill
  /// replica to the chosen decode replica. The payload is
  /// `kv_bytes_per_token * (prompt + decoded so far)` -- the request's whole
  /// resident frontier -- so slow links visibly delay the first decode step.
  interconnect::LinkSpec handoff_link = interconnect::LinkSpec::pcie_gen4_x16();

  void validate() const {
    if (!enabled) return;
    MONDE_REQUIRE(prefill_replicas > 0,
                  "disaggregated serving needs prefill_replicas > 0");
    // A handoff priced at +inf or NaN could never land on a decode replica.
    handoff_link.validate();
  }
};

}  // namespace monde::serve

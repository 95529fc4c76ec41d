// The request model of the serving layer.
//
// A serving workload is a trace of inference requests: each arrives at some
// wall-clock time with a prompt to prefill (one encoder pass) and a budget of
// new tokens to decode. The scheduler (scheduler.hpp) decides when a request
// is admitted into the shared decode batch; ServerSim (server.hpp) turns a
// trace into per-request latency and aggregate throughput numbers.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/units.hpp"
#include "moe/expert_profile.hpp"

namespace monde::serve {

/// Canonical serving-trace order: by arrival time, request id breaking
/// ties. Every layer that orders a trace -- scheduler submission, the
/// scheduler's push() precondition, cluster dispatch, fleet aggregation --
/// must agree on this one definition. Works for any record carrying
/// `arrival` and `id` (Request, RequestMetrics).
template <typename T>
[[nodiscard]] bool arrival_order(const T& a, const T& b) {
  return a.arrival != b.arrival ? a.arrival < b.arrival : a.id < b.id;
}

/// Progress a request carries into a re-dispatch (retry after a failure, or
/// a scale-down migration). Zero-initialized = a fresh request: nothing
/// prefilled, nothing decoded. A non-zero resume means the target replica's
/// prefix cache holds (or receives, at a modelled transfer cost) the KV
/// state of the first `prefilled` prompt tokens and `decoded` generated
/// tokens, so serving continues from that frontier instead of restarting.
struct ResumeState {
  std::int64_t prefilled = 0;  ///< prompt tokens whose prefill cost is already paid
  std::int64_t decoded = 0;    ///< tokens generated by earlier attempts
  /// Instant the FIRST token (across all attempts) surfaced; meaningful only
  /// when `decoded` > 0. The user saw this token before the failure, so TTFT
  /// keeps pointing at it across re-dispatches.
  Duration first_token = Duration::zero();

  /// KV state resident for this request: prefilled prompt + decoded tokens.
  [[nodiscard]] std::int64_t resident_tokens() const { return prefilled + decoded; }
  [[nodiscard]] bool any() const { return prefilled > 0 || decoded > 0; }
};

/// One inference request in a serving trace.
///
/// Units: `arrival` is simulated time (Duration, nanosecond resolution);
/// `prompt_len` and `max_new_tokens` are token counts. `attempt` tracks
/// re-dispatch: a request stranded on a failed replica (or evacuated from a
/// retiring one) is re-enqueued elsewhere with `attempt` incremented. Its
/// `arrival` stays the original trace arrival -- the re-dispatch instant is
/// the queue-join time passed to ServerSim::enqueue -- so fleet-level
/// metrics measure from it and retries show up in the latency tail.
/// `prefix_id`/`shared_prefix_len` model system-prompt-style
/// shared prefixes: requests with the same non-zero `prefix_id` share their
/// first `shared_prefix_len` prompt tokens, which a replica's prefix cache
/// (serve/kvcache.hpp) can serve without re-running the prefill.
struct Request {
  std::uint64_t id = 0;
  Duration arrival = Duration::zero();  ///< when the request enters the trace
  std::int64_t prompt_len = 0;          ///< source tokens to prefill
  std::int64_t max_new_tokens = 0;      ///< decode budget (tokens to generate)
  std::uint32_t attempt = 0;            ///< 0 = first dispatch; +1 per re-dispatch
  std::uint64_t prefix_id = 0;          ///< shared-prefix group (0 = no shared prefix)
  std::int64_t shared_prefix_len = 0;   ///< leading tokens shared with the group
  ResumeState resume{};                 ///< progress carried in from earlier attempts
  /// Top activated experts per decoder MoE layer (moe/expert_profile.hpp),
  /// attached by the cluster when expert-aware serving is enabled. Empty =
  /// unknown: gating-aware dispatchers fall back to load-only routing and
  /// replicas price no expert fetches. Survives retries and migrations so a
  /// re-dispatch can still route by affinity.
  moe::ExpertProfile expert_profile{};

  /// Disaggregated-serving phase test (serve/disagg.hpp): a request whose
  /// prompt is fully prefilled belongs to the decode pool -- it arrived via
  /// a prefill-complete handoff or a checkpointed retry that preserved the
  /// prompt's KV state. Anything else needs a prefill replica.
  [[nodiscard]] bool decode_phase() const { return resume.prefilled >= prompt_len; }

  void validate() const {
    MONDE_REQUIRE(prompt_len > 0, "request " << id << " needs prompt_len > 0");
    MONDE_REQUIRE(max_new_tokens > 0, "request " << id << " needs max_new_tokens > 0");
    MONDE_REQUIRE(arrival >= Duration::zero(), "request " << id << " arrives before t=0");
    MONDE_REQUIRE(shared_prefix_len >= 0 && shared_prefix_len <= prompt_len,
                  "request " << id << " shared prefix must lie within the prompt");
    MONDE_REQUIRE(prefix_id != 0 || shared_prefix_len == 0,
                  "request " << id << " has a shared prefix length but no prefix group");
    MONDE_REQUIRE(resume.prefilled >= 0 && resume.prefilled <= prompt_len,
                  "request " << id << " resumes more prefill than its prompt");
    MONDE_REQUIRE(resume.decoded >= 0 && resume.decoded < max_new_tokens,
                  "request " << id << " resumes at or past its decode budget");
    MONDE_REQUIRE(resume.decoded == 0 || resume.prefilled == prompt_len,
                  "request " << id << " decoded tokens without a full prefill");
  }
};

/// Final per-request latency accounting. `arrival` is the instant the
/// request joined *this* server's queue -- for a failure retry that is the
/// re-dispatch instant; the cluster re-bases its fleet-level copy to
/// `trace_arrival` (Request::arrival), so the retry delay lands in the
/// latency tail.
///
/// A request resumed with prior decode progress (`resumed_tokens` > 0)
/// keeps its ORIGINAL `first_token` instant -- the user saw that token
/// before the failure -- which may precede this server's `arrival`;
/// per-server TTFT/TPOT percentiles therefore skip resumed requests, while
/// the cluster's re-based copies include them.
struct RequestMetrics {
  std::uint64_t id = 0;
  std::uint32_t attempt = 0;  ///< dispatch attempt that finally served it
  std::int64_t prompt_len = 0;
  std::int64_t generated = 0;       ///< tokens delivered, summed across attempts
  std::int64_t saved_tokens = 0;    ///< prefill tokens the cache skipped this attempt
  std::int64_t resumed_tokens = 0;  ///< decode tokens carried in from earlier attempts
  Duration arrival = Duration::zero();
  Duration trace_arrival = Duration::zero();  ///< the original trace arrival
  Duration admitted = Duration::zero();
  Duration first_token = Duration::zero();
  Duration completion = Duration::zero();

  [[nodiscard]] Duration ttft() const { return first_token - arrival; }
  [[nodiscard]] Duration e2e() const { return completion - arrival; }
  [[nodiscard]] Duration tpot() const {
    return generated > 1 ? (completion - first_token) / static_cast<double>(generated - 1)
                         : Duration::zero();
  }
};

}  // namespace monde::serve

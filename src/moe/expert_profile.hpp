// Per-request expert profiles for gating-aware serving.
//
// The paper's core observation (§2.2, Figure 3) is that expert routing
// popularity is heavily skewed and STABLE: the experts a request activates
// on its first decode steps are overwhelmingly the experts it keeps
// activating. A compact per-request summary of those experts -- the top
// activated experts per decoder MoE layer -- is therefore a usable routing
// key at the fleet level: a dispatcher can send the request to the replica
// whose resident hot set overlaps it best (serve/dispatch.hpp).
//
// This header deliberately depends on nothing but the standard library:
// moe/ sits below core/ and serve/ in the layering, so the expert identity
// and profile types that core::ExpertCache, the strategies and the serving
// stack (Request, ReplicaSnapshot) all share must live here.
#pragma once

#include <cstdint>
#include <vector>

namespace monde::moe {

/// Identifies an expert within the model: (MoE layer index, expert index).
/// Ordered layer-major, so ordered containers walk experts layer by layer.
struct ExpertId {
  int layer = 0;
  int expert = 0;
  auto operator<=>(const ExpertId&) const = default;
};

/// Maps an (layer, expert) pair onto one of 64 signature bits. The scramble
/// (a multiply-xorshift of the packed pair) spreads consecutive expert ids
/// across the word so small models do not collide in the low bits. Shared by
/// the profile below and core::ExpertCache's residency signature so overlap
/// popcounts compare like with like.
[[nodiscard]] inline int expert_signature_bit(int layer, int expert) {
  std::uint64_t x = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(layer)) << 32) |
                    static_cast<std::uint32_t>(expert);
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 29;
  return static_cast<int>(x & 63);
}

/// The top activated experts of one request, derived from its own routing
/// stream (WorkloadGenerator::expert_profile_for) so it is deterministic in
/// (seed, request_id). Entries are layer-major and, within a layer, in
/// descending activation order -- so truncating to the first k entries per
/// layer (the pruned-expert degraded mode) keeps the heaviest experts.
/// `signature` is the OR of each entry's signature bit: a 64-bit Bloom-style
/// summary a dispatcher can intersect with a replica's residency signature
/// in one AND + popcount.
struct ExpertProfile {
  std::vector<ExpertId> experts;  ///< layer-major, descending activation within a layer
  std::uint64_t signature = 0;    ///< OR of expert_signature_bit over `experts`

  [[nodiscard]] bool empty() const { return experts.empty(); }

  /// Recompute `signature` from `experts` (after truncation/pruning).
  void rebuild_signature() {
    signature = 0;
    for (const ExpertId& e : experts) {
      signature |= std::uint64_t{1} << expert_signature_bit(e.layer, e.expert);
    }
  }
};

}  // namespace monde::moe

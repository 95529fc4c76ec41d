#include "serve/dispatch.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "serve/kvcache.hpp"

namespace monde::serve {
namespace {

/// Index of the snapshot minimizing `load`, lowest replica index on ties.
template <typename LoadFn>
std::size_t argmin_load(const std::vector<ReplicaSnapshot>& snapshots, LoadFn load) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    if (load(snapshots[i]) < load(snapshots[best])) best = i;
  }
  return best;
}

/// Least-outstanding-tokens: a load-only policy in its own right, and the
/// fallback of both residency-aware policies when the state they route on
/// is absent.
std::size_t least_outstanding(const std::vector<ReplicaSnapshot>& snapshots) {
  return argmin_load(snapshots, [](const ReplicaSnapshot& s) { return s.outstanding_tokens; });
}

/// Power-of-two choices over [0, n), n >= 2: two distinct uniform probes,
/// of which the lower `load` wins (the lower index on ties, so the choice
/// is deterministic given the RNG stream).
template <typename LoadFn>
std::size_t two_probe_pick(std::size_t n, Rng& rng, LoadFn load) {
  std::size_t a = static_cast<std::size_t>(rng.next_below(n));
  std::size_t b = static_cast<std::size_t>(rng.next_below(n - 1));
  if (b >= a) ++b;
  if (a > b) std::swap(a, b);
  return load(b) < load(a) ? b : a;
}

class RoundRobinDispatcher final : public Dispatcher {
 public:
  [[nodiscard]] std::string name() const override { return "round-robin"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots, const Request&) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    return next_++ % snapshots.size();
  }

 private:
  std::size_t next_ = 0;
};

class JoinShortestQueueDispatcher final : public Dispatcher {
 public:
  [[nodiscard]] std::string name() const override { return "join-shortest-queue"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots, const Request&) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    return argmin_load(snapshots, [](const ReplicaSnapshot& s) { return s.in_flight; });
  }
};

class LeastOutstandingTokensDispatcher final : public Dispatcher {
 public:
  [[nodiscard]] std::string name() const override { return "least-outstanding-tokens"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots, const Request&) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    return least_outstanding(snapshots);
  }
};

class PowerOfTwoChoicesDispatcher final : public Dispatcher {
 public:
  explicit PowerOfTwoChoicesDispatcher(std::uint64_t seed) : rng_{seed} {}

  [[nodiscard]] std::string name() const override { return "power-of-two"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots, const Request&) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    const std::size_t n = snapshots.size();
    if (n == 1) return 0;
    // Keep the shorter queue of the two probes.
    return two_probe_pick(n, rng_, [&](std::size_t i) { return snapshots[i].in_flight; });
  }

 private:
  Rng rng_;
};

/// Shared by the residency-aware policies: a power-of-two load spill-over.
/// Affinity concentrates hot state (experts, shared prefixes), but a popular
/// home must not melt -- so after the affinity choice, probe two random
/// replicas and defect to the less-loaded probe when the choice carries more
/// than twice its outstanding tokens. Deterministic given the RNG stream.
std::size_t spill_over(const std::vector<ReplicaSnapshot>& snapshots, std::size_t choice,
                       Rng& rng) {
  const std::size_t n = snapshots.size();
  if (n < 2) return choice;
  const std::size_t probe =
      two_probe_pick(n, rng, [&](std::size_t i) { return snapshots[i].outstanding_tokens; });
  if (snapshots[choice].outstanding_tokens > 2 * snapshots[probe].outstanding_tokens) {
    return probe;
  }
  return choice;
}

class ExpertAffinityDispatcher final : public Dispatcher {
 public:
  explicit ExpertAffinityDispatcher(std::uint64_t seed) : rng_{seed} {}

  [[nodiscard]] std::string name() const override { return "expert-affinity"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots,
                   const Request& rq) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    if (rq.expert_profile.empty()) return least_outstanding(snapshots);
    // Best hot-set overlap; ties go to the lighter replica, then the lower
    // index (so an all-cold fleet degenerates to least-outstanding-tokens).
    std::size_t best = 0;
    int best_overlap = std::popcount(snapshots[0].expert_sig & rq.expert_profile.signature);
    for (std::size_t i = 1; i < snapshots.size(); ++i) {
      const int overlap =
          std::popcount(snapshots[i].expert_sig & rq.expert_profile.signature);
      if (overlap > best_overlap ||
          (overlap == best_overlap &&
           snapshots[i].outstanding_tokens < snapshots[best].outstanding_tokens)) {
        best = i;
        best_overlap = overlap;
      }
    }
    return spill_over(snapshots, best, rng_);
  }

 private:
  Rng rng_;
};

/// Power-of-two choices restricted to replicas whose snapshot signature
/// says the request's shared prefix is resident *right now*. Falls back to
/// least-outstanding-tokens when no holder exists (the first arrival of a
/// group seeds a home wherever the load is lowest), for prefix-less
/// requests, and for decode-phase work. The spill-over keeps a saturated
/// holder from absorbing its whole group.
class PrefixAffinityDispatcher final : public Dispatcher {
 public:
  explicit PrefixAffinityDispatcher(std::uint64_t seed) : rng_{seed} {}

  [[nodiscard]] std::string name() const override { return "prefix-affinity"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots,
                   const Request& rq) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    if (rq.prefix_id == 0 || rq.decode_phase()) return least_outstanding(snapshots);
    const std::uint64_t bit = std::uint64_t{1} << prefix_signature_bit(rq.prefix_id);
    holders_.clear();
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      if ((snapshots[i].prefix_sig & bit) != 0) holders_.push_back(i);
    }
    if (holders_.empty()) return least_outstanding(snapshots);
    std::size_t choice = holders_.front();
    if (holders_.size() > 1) {
      // Two probes among the holders; fewer outstanding tokens wins.
      choice = holders_[two_probe_pick(holders_.size(), rng_, [&](std::size_t i) {
        return snapshots[holders_[i]].outstanding_tokens;
      })];
    }
    return spill_over(snapshots, choice, rng_);
  }

 private:
  Rng rng_;
  std::vector<std::size_t> holders_;  ///< scratch: view indices holding the prefix
};

}  // namespace

std::string to_string(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return "round-robin";
    case DispatchPolicy::kJoinShortestQueue: return "join-shortest-queue";
    case DispatchPolicy::kLeastOutstandingTokens: return "least-outstanding-tokens";
    case DispatchPolicy::kPowerOfTwoChoices: return "power-of-two";
    case DispatchPolicy::kExpertAffinity: return "expert-affinity";
    case DispatchPolicy::kPrefixAffinity: return "prefix-affinity";
  }
  MONDE_ASSERT(false, "unknown dispatch policy");
  return {};
}

std::vector<DispatchPolicy> all_dispatch_policies() {
  return {DispatchPolicy::kRoundRobin, DispatchPolicy::kJoinShortestQueue,
          DispatchPolicy::kLeastOutstandingTokens, DispatchPolicy::kPowerOfTwoChoices};
}

std::vector<ReplicaSnapshot> eligible_snapshots(const std::vector<ReplicaSnapshot>& all,
                                                double slow_ewma_factor) {
  if (!std::isfinite(slow_ewma_factor)) return all;
  // Soft filter: skip pathologically slow replicas, but never starve the
  // dispatcher -- if everyone looks slow, everyone stays eligible.
  std::vector<double> ewmas;
  for (const ReplicaSnapshot& s : all) {
    if (s.step_ewma_ms > 0.0) ewmas.push_back(s.step_ewma_ms);
  }
  if (ewmas.empty()) return all;
  const double cutoff = percentile(std::move(ewmas), 50.0) * slow_ewma_factor;
  std::vector<ReplicaSnapshot> fast;
  for (const ReplicaSnapshot& s : all) {
    if (s.step_ewma_ms <= cutoff) fast.push_back(s);
  }
  return fast.empty() ? all : fast;
}

std::vector<ReplicaSnapshot> pool_snapshots(const std::vector<ReplicaSnapshot>& all,
                                            bool prefill) {
  std::vector<ReplicaSnapshot> pool;
  for (const ReplicaSnapshot& s : all) {
    if (s.prefill_pool == prefill) pool.push_back(s);
  }
  return pool;
}

std::unique_ptr<Dispatcher> make_dispatcher(DispatchPolicy policy, std::uint64_t seed) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return std::make_unique<RoundRobinDispatcher>();
    case DispatchPolicy::kJoinShortestQueue:
      return std::make_unique<JoinShortestQueueDispatcher>();
    case DispatchPolicy::kLeastOutstandingTokens:
      return std::make_unique<LeastOutstandingTokensDispatcher>();
    case DispatchPolicy::kPowerOfTwoChoices:
      return std::make_unique<PowerOfTwoChoicesDispatcher>(seed);
    case DispatchPolicy::kExpertAffinity:
      return std::make_unique<ExpertAffinityDispatcher>(seed);
    case DispatchPolicy::kPrefixAffinity:
      return std::make_unique<PrefixAffinityDispatcher>(seed);
  }
  MONDE_ASSERT(false, "unknown dispatch policy");
  return nullptr;
}

}  // namespace monde::serve

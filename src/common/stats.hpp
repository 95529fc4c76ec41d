// Histograms and sample statistics used by the simulator's bookkeeping
// (DRAM row-hit rates, per-expert token distributions, latency summaries).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace monde {

/// Histogram over explicit, strictly-increasing bucket upper bounds, with
/// half-open buckets: bucket `i` covers [bounds[i-1], bounds[i]) (the first
/// bucket is unbounded below; values are normally non-negative), and values
/// at or above the last bound land in the overflow bucket. This supports
/// both the paper's integer token-count buckets (Figure 3: 0, 1-3, 4-7,
/// ..., 128+) and fractional bounds such as latency-ms buckets.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void add(double value, double weight = 1.0);

  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  /// Weighted count in bucket `i` (last bucket is overflow).
  [[nodiscard]] double bucket(std::size_t i) const;
  /// Human-readable bucket interval. Integral bounds render in the paper's
  /// inclusive style ("0", "1-3", "128+"); fractional bounds render as the
  /// half-open interval itself ("[0.5, 2.5)", "2.5+").
  [[nodiscard]] std::string bucket_label(std::size_t i) const;
  [[nodiscard]] double total() const { return total_; }

  /// Divide all buckets by `k` (e.g., to average over batches).
  void scale(double k);

 private:
  std::vector<double> bounds_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

/// Convenience: the Figure-3 token-count histogram buckets
/// 0, 1-3, 4-7, 8-15, 16-31, 32-63, 64-127, 128+.
[[nodiscard]] Histogram make_token_histogram();

/// Geometric mean of a set of strictly positive values.
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Arithmetic mean of a non-empty sample.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Fleet-load imbalance: max over mean of a non-empty, non-negative sample
/// (per-replica busy times, dispatched counts, ...). 1.0 means perfectly
/// balanced; N means one of N replicas did all the work. Zero for an
/// all-zero sample (an idle fleet).
[[nodiscard]] double imbalance_factor(const std::vector<double>& values);

/// The q-th percentile (q in [0, 100]) of a non-empty sample, using linear
/// interpolation between closest ranks (the common "R-7" / NumPy default).
/// Takes the sample by value: callers keep their ordering.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// The latency summary trio every serving report carries.
struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// p50/p95/p99 of a non-empty sample (one sort, three lookups).
[[nodiscard]] Percentiles compute_percentiles(std::vector<double> values);

}  // namespace monde

#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace monde {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_{std::move(upper_bounds)} {
  MONDE_REQUIRE(!bounds_.empty(), "histogram needs at least one bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    MONDE_REQUIRE(bounds_[i] > bounds_[i - 1], "histogram bounds must be strictly increasing");
  }
  counts_.assign(bounds_.size() + 1, 0.0);  // +1 overflow bucket
}

void Histogram::add(double value, double weight) {
  // Half-open buckets: the first bound strictly greater than `value` names
  // the bucket, so bucket i covers [bounds[i-1], bounds[i]).
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), value);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx] += weight;
  total_ += weight;
}

double Histogram::bucket(std::size_t i) const {
  MONDE_REQUIRE(i < counts_.size(), "histogram bucket out of range");
  return counts_[i];
}

std::string Histogram::bucket_label(std::size_t i) const {
  MONDE_REQUIRE(i < counts_.size(), "histogram bucket out of range");
  char buf[64];
  if (i == counts_.size() - 1) {
    std::snprintf(buf, sizeof(buf), "%g+", bounds_.back());
    return buf;
  }
  const double lo = (i == 0) ? 0.0 : bounds_[i - 1];
  const double hi = bounds_[i];
  // Integral bounds describe count data; [lo, hi) over the integers is the
  // inclusive range lo..hi-1, the paper's Figure-3 style. Fractional bounds
  // print as the half-open interval itself.
  const bool integral = std::floor(lo) == lo && std::floor(hi) == hi;
  if (integral && hi - 1.0 >= lo) {
    if (hi - 1.0 == lo) {
      std::snprintf(buf, sizeof(buf), "%g", lo);
    } else {
      std::snprintf(buf, sizeof(buf), "%g-%g", lo, hi - 1.0);
    }
  } else {
    std::snprintf(buf, sizeof(buf), "[%g, %g)", lo, hi);
  }
  return buf;
}

void Histogram::scale(double k) {
  for (auto& c : counts_) c *= k;
  total_ *= k;
}

Histogram make_token_histogram() {
  return Histogram{{1.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0}};
}

namespace {

/// Percentile of an already-sorted sample (linear interpolation, R-7).
double sorted_percentile(const std::vector<double>& sorted, double q) {
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  MONDE_REQUIRE(!values.empty(), "percentile of empty set");
  MONDE_REQUIRE(q >= 0.0 && q <= 100.0, "percentile q must be in [0, 100], got " << q);
  std::sort(values.begin(), values.end());
  return sorted_percentile(values, q);
}

Percentiles compute_percentiles(std::vector<double> values) {
  MONDE_REQUIRE(!values.empty(), "percentiles of empty set");
  std::sort(values.begin(), values.end());
  return {sorted_percentile(values, 50.0), sorted_percentile(values, 95.0),
          sorted_percentile(values, 99.0)};
}

double mean(const std::vector<double>& values) {
  MONDE_REQUIRE(!values.empty(), "mean of empty set");
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double imbalance_factor(const std::vector<double>& values) {
  MONDE_REQUIRE(!values.empty(), "imbalance of empty set");
  double mx = 0.0;
  for (const double v : values) {
    MONDE_REQUIRE(v >= 0.0, "imbalance requires non-negative values, got " << v);
    mx = std::max(mx, v);
  }
  const double m = mean(values);
  return m == 0.0 ? 0.0 : mx / m;
}

double geomean(const std::vector<double>& values) {
  MONDE_REQUIRE(!values.empty(), "geomean of empty set");
  double log_sum = 0.0;
  for (double v : values) {
    MONDE_REQUIRE(v > 0.0, "geomean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace monde

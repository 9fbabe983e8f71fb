#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

/// Statistical oracles for the sampler tests (distribution moments,
/// capacity-proportional `RandomSector()`, uniform AllocTable sampling).
/// Test-only: no library or tool code computes these.
namespace fi::util {

/// Welford-style running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Pearson chi-squared statistic for observed vs expected counts.
inline double chi_squared_statistic(const std::vector<std::uint64_t>& observed,
                                    const std::vector<double>& expected) {
  FI_CHECK(observed.size() == expected.size());
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    FI_CHECK_MSG(expected[i] > 0.0, "expected count must be positive");
    const double diff = static_cast<double>(observed[i]) - expected[i];
    stat += diff * diff / expected[i];
  }
  return stat;
}

}  // namespace fi::util

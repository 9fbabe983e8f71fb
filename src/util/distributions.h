#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/prng.h"

/// Samplers for the distributions used by the paper.
///
/// Table III draws file-backup sizes from five distributions (uniform,
/// exponential, two normals); `Auto_CheckAlloc` samples the refresh countdown
/// from an exponential distribution; §VI-B samples the number of backups to
/// swap into a new sector from a Poisson distribution. All samplers are pure
/// functions of the supplied PRNG so experiments replay deterministically.
namespace fi::util {

/// Uniform real in [lo, hi).
double sample_uniform(Xoshiro256& rng, double lo, double hi);

/// Exponential with the given mean (the paper's `SampleExp(x)`).
double sample_exponential(Xoshiro256& rng, double mean);

/// Standard normal via the Marsaglia polar method.
double sample_standard_normal(Xoshiro256& rng);

/// Normal with the given mean and standard deviation.
double sample_normal(Xoshiro256& rng, double mean, double stddev);

/// Normal truncated to strictly positive values (resamples until > 0);
/// used for file sizes, which must be positive.
double sample_positive_normal(Xoshiro256& rng, double mean, double stddev);

/// Poisson with the given mean. Knuth's method for small means, the
/// transformed-rejection (PTRS) method for large ones.
std::uint64_t sample_poisson(Xoshiro256& rng, double mean);

/// Zipf over {1..n} with exponent `s` (rank-frequency workload skew), by
/// rejection-inversion (Hörmann & Derflinger 1996), no table. The
/// constructor computes the per-(n, s) constants once — build one per
/// population and reuse it for every draw; each call runs the rejection
/// loop.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);

  std::uint64_t operator()(Xoshiro256& rng) const;

 private:
  [[nodiscard]] double h_integral(double x) const;
  [[nodiscard]] double h(double x) const;

  // Declaration order is initialization order: each constant below is
  // computed from the ones above it.
  std::uint64_t n_;
  double s_;
  double one_minus_s_;
  /// |1 - s| < 1e-12: h_integral is log x and its inverse exp u.
  bool log_form_;
  double h_x1_;
  double spread_;
};

/// One draw of `ZipfSampler(n, s)`.
std::uint64_t sample_zipf(Xoshiro256& rng, std::uint64_t n, double s);

/// Partial Fisher–Yates: shuffles a uniform sample without replacement of
/// `min(count, pool.size())` elements into `pool`'s prefix and returns the
/// sample size. One RNG draw per sampled slot (including the last even
/// when it is forced), so the stream advances a predictable amount.
template <typename T>
std::size_t shuffle_prefix(std::vector<T>& pool, std::size_t count,
                           Xoshiro256& rng) {
  count = count < pool.size() ? count : pool.size();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_below(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
  return count;
}

/// The five file-backup-size distributions of Table III.
enum class SizeDistribution {
  uniform01,      ///< [1] Uniform on [0, 1]
  uniform12,      ///< [2] Uniform on [1, 2]
  exponential,    ///< [3] Exponential (mean 1)
  normal_mu_var,  ///< [4] Normal with mu = sigma^2 (mu = 1, sigma = 1)
  normal_mu_2var, ///< [5] Normal with mu = 2*sigma^2 (mu = 1, sigma = 1/sqrt 2)
};

/// Human-readable label matching the paper's column headers.
const char* size_distribution_name(SizeDistribution dist);

/// Draw one backup size (a positive real, unit = "average file size").
double sample_size(Xoshiro256& rng, SizeDistribution dist);

}  // namespace fi::util

#include "util/distributions.h"

#include <cmath>

#include "util/check.h"

namespace fi::util {

double sample_uniform(Xoshiro256& rng, double lo, double hi) {
  FI_CHECK(lo <= hi);
  return lo + (hi - lo) * rng.uniform_double();
}

double sample_exponential(Xoshiro256& rng, double mean) {
  FI_CHECK(mean > 0);
  return -mean * std::log(rng.uniform_double_open_zero());
}

double sample_standard_normal(Xoshiro256& rng) {
  // Marsaglia polar method; discards the second variate for simplicity —
  // sampler state stays a pure function of the PRNG stream.
  for (;;) {
    const double u = 2.0 * rng.uniform_double() - 1.0;
    const double v = 2.0 * rng.uniform_double() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double sample_normal(Xoshiro256& rng, double mean, double stddev) {
  FI_CHECK(stddev >= 0);
  return mean + stddev * sample_standard_normal(rng);
}

double sample_positive_normal(Xoshiro256& rng, double mean, double stddev) {
  FI_CHECK(mean > 0);
  for (;;) {
    const double x = sample_normal(rng, mean, stddev);
    if (x > 0.0) return x;
  }
}

std::uint64_t sample_poisson(Xoshiro256& rng, double mean) {
  FI_CHECK(mean >= 0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= rng.uniform_double_open_zero();
    } while (p > limit);
    return k - 1;
  }
  // PTRS transformed rejection (Hörmann 1993) for large means.
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = rng.uniform_double() - 0.5;
    const double v = rng.uniform_double_open_zero();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    const double log_mean = std::log(mean);
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        k * log_mean - mean - std::lgamma(k + 1.0)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : n_(n),
      s_(s),
      one_minus_s_(1.0 - s),
      log_form_(std::abs(one_minus_s_) < 1e-12),
      h_x1_(h_integral(1.5) - 1.0),
      spread_(h_integral(static_cast<double>(n) + 0.5) - h_x1_) {
  FI_CHECK(n >= 1);
  FI_CHECK(s > 0);
}

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  if (log_form_) return log_x;
  return std::expm1(one_minus_s_ * log_x) / one_minus_s_;
}

double ZipfSampler::h(double x) const { return std::exp(-s_ * std::log(x)); }

std::uint64_t ZipfSampler::operator()(Xoshiro256& rng) const {
  for (;;) {
    const double u = h_x1_ + rng.uniform_double() * spread_;
    double x;  // inverse of h_integral
    if (log_form_) {
      x = std::exp(u);
    } else {
      x = std::exp(std::log1p(u * one_minus_s_) / one_minus_s_);
    }
    const double k = std::floor(x + 0.5);
    if (k < 1.0) continue;
    if (k > static_cast<double>(n_)) continue;
    // Accept when u lies inside the histogram column of k.
    if (u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

std::uint64_t sample_zipf(Xoshiro256& rng, std::uint64_t n, double s) {
  return ZipfSampler(n, s)(rng);
}

const char* size_distribution_name(SizeDistribution dist) {
  switch (dist) {
    case SizeDistribution::uniform01: return "U[0,1]";
    case SizeDistribution::uniform12: return "U[1,2]";
    case SizeDistribution::exponential: return "Exp";
    case SizeDistribution::normal_mu_var: return "N(mu=s^2)";
    case SizeDistribution::normal_mu_2var: return "N(mu=2s^2)";
  }
  return "?";
}

double sample_size(Xoshiro256& rng, SizeDistribution dist) {
  switch (dist) {
    case SizeDistribution::uniform01:
      return sample_uniform(rng, 0.0, 1.0);
    case SizeDistribution::uniform12:
      return sample_uniform(rng, 1.0, 2.0);
    case SizeDistribution::exponential:
      return sample_exponential(rng, 1.0);
    case SizeDistribution::normal_mu_var:
      // mu = sigma^2 with mu = 1  =>  sigma = 1.
      return sample_positive_normal(rng, 1.0, 1.0);
    case SizeDistribution::normal_mu_2var:
      // mu = 2 sigma^2 with mu = 1  =>  sigma = 1/sqrt(2).
      return sample_positive_normal(rng, 1.0, 0.7071067811865476);
  }
  FI_CHECK_MSG(false, "unreachable size distribution");
  return 0.0;
}

}  // namespace fi::util

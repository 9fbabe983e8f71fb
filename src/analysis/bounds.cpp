#include "analysis/bounds.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace fi::analysis {

double theorem1_r1(double sum_size_times_value, double sum_size,
                   double min_value) {
  FI_CHECK(sum_size > 0 && min_value > 0);
  return sum_size_times_value / (min_value * sum_size);
}

double theorem1_r2(double sum_value, double sum_size, double min_capacity,
                   double min_value, double cap_para) {
  FI_CHECK(sum_size > 0 && min_value > 0 && cap_para > 0);
  return min_capacity * sum_value / (min_value * sum_size * cap_para);
}

double theorem1_capacity_bound(double ns, double min_capacity, double r1,
                               double r2, std::uint32_t k) {
  FI_CHECK(r1 > 0 && r2 > 0 && k >= 1);
  const double total = ns * min_capacity;
  return std::min(total / (2.0 * r1 * static_cast<double>(k)), total / r2);
}

double theorem2_collision_bound(double ns, double sector_capacity,
                                double file_size) {
  FI_CHECK(file_size > 0);
  return ns * std::exp(-0.144 * sector_capacity / file_size);
}

double kl_divergence(double x, double p) {
  FI_CHECK(x > 0 && x < 1 && p > 0 && p < 1);
  return x * std::log(x / p) + (1.0 - x) * std::log((1.0 - x) / (1.0 - p));
}

double theorem3_gamma_lost_bound(double lambda, std::uint32_t k, double ns,
                                 double gamma_v_m, double cap_para, double c) {
  FI_CHECK(lambda > 0 && lambda < 1);
  FI_CHECK(gamma_v_m > 0 && cap_para > 0 && ns > 0 && c > 0);
  const double t1 = 5.0 * std::pow(lambda, static_cast<double>(k));
  const double t2 = std::pow(lambda, static_cast<double>(k) / 2.0);
  const double entropy_term =
      -(lambda * std::log(lambda) + (1.0 - lambda) * std::log(1.0 - lambda));
  const double numerator =
      4.0 * ((std::log(std::exp(1.0) / (2.0 * M_PI)) - std::log(c)) / ns +
             entropy_term);
  const double denominator = gamma_v_m * static_cast<double>(k) *
                             std::log(1.0 / lambda) * cap_para;
  const double t3 = numerator / denominator;
  return std::max({t1, t2, t3});
}

double theorem4_deposit_ratio_bound(double lambda, std::uint32_t k, double ns,
                                    double cap_para, double c) {
  FI_CHECK(lambda > 0 && lambda < 1);
  FI_CHECK(k >= 2 && cap_para > 0 && ns > 1 && c > 0);
  const double t1 = 5.0 * std::pow(lambda, static_cast<double>(k) - 1.0);
  const double t2 = std::pow(lambda, static_cast<double>(k) / 2.0 - 1.0);
  const double t3 =
      (4.0 / (static_cast<double>(k) * cap_para)) *
      (std::log(ns) / std::log(1.0 / lambda) + std::log(1.0 / c) / std::log(ns));
  return std::max({t1, t2, t3});
}

double file_loss_probability(double lambda, std::uint32_t cp) {
  FI_CHECK(lambda >= 0 && lambda <= 1);
  return std::pow(lambda, static_cast<double>(cp));
}

}  // namespace fi::analysis

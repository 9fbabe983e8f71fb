#pragma once

#include <cstdint>

/// Closed-form bounds from the paper's analysis (Section V, Appendices A–D).
/// All logarithms are natural; the Theorem 4 worked example (γ_deposit =
/// 0.0046 at k=20, Ns=1e6, capPara=1e3, λ=0.5, c=1e-18) reproduces exactly
/// under this convention.
namespace fi::analysis {

/// Security parameter from Table II.
inline constexpr double kDefaultSecurityParam = 1e-18;

/// Theorem 1, eq. (1): r1 = Σ f.size·f.value / (minValue · Σ f.size).
double theorem1_r1(double sum_size_times_value, double sum_size,
                   double min_value);

/// Theorem 1, eq. (2): r2 = minCapacity · Σ f.value /
///                          (minValue · Σ f.size · capPara).
double theorem1_r2(double sum_value, double sum_size, double min_capacity,
                   double min_value, double cap_para);

/// Theorem 1: maximum total raw-file size storable,
/// min{ Ns·minCap / (2·r1·k), Ns·minCap / r2 }.
double theorem1_capacity_bound(double ns, double min_capacity, double r1,
                               double r2, std::uint32_t k);

/// Theorem 2: Pr[∃s: freeCap ≤ capacity/8] ≤ Ns·exp(−0.144·capacity/size)
/// under equal file sizes and 2x redundant capacity.
double theorem2_collision_bound(double ns, double sector_capacity,
                                double file_size);

/// KL divergence D(x‖p) between Bernoulli(x) and Bernoulli(p) (Lemma 2).
double kl_divergence(double x, double p);

/// Theorem 3: upper bound on γ_lost — the lost-value fraction when a λ
/// fraction of capacity is corrupted — holding with probability ≥ 1−c.
///
/// max{ 5λ^k, λ^{k/2},
///      4·((ln(e/2π) − ln c)/Ns − ln(λ^λ(1−λ)^{1−λ}))
///        / (γ_v^m · k · ln(1/λ) · capPara) }
double theorem3_gamma_lost_bound(double lambda, std::uint32_t k, double ns,
                                 double gamma_v_m, double cap_para,
                                 double c = kDefaultSecurityParam);

/// Theorem 4: sufficient deposit ratio for full compensation w.p. ≥ 1−c:
/// max{ 5λ^{k−1}, λ^{k/2−1},
///      (4/(k·capPara)) · (ln Ns/ln(1/λ) + ln(1/c)/ln Ns) }.
double theorem4_deposit_ratio_bound(double lambda, std::uint32_t k, double ns,
                                    double cap_para,
                                    double c = kDefaultSecurityParam);

/// Probability that one specific file (with `cp` i.i.d. replicas) is lost
/// when a λ fraction of capacity is corrupted: λ^cp. The building block of
/// Lemma 3.
double file_loss_probability(double lambda, std::uint32_t cp);

}  // namespace fi::analysis

// Reproduces the Theorem 3 corollary (§V-B3): the fraction of file value
// lost when an adversary corrupts a λ fraction of capacity.
//
// Each cell runs the protocol engine (`fi::Session`) twice on one
// placement: a random `corrupt_burst` of λ of the sectors, and the
// span-greedy `informed_pool` adversary with the same budget. Loss comes
// from Auto_CheckProof, compensation from deposits at Theorem 4's ratio,
// and the bound is γ_lost <= max{5λ^k, λ^{k/2}, (log term)}.
// The paper's headline: with k=20, even λ=0.5 loses < 0.1% of value.
// Exits 1 if any cell breaks the bound or leaves a loss uncompensated.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "adversary/spec.h"
#include "analysis/bounds.h"
#include "api/session.h"
#include "scenario/spec.h"

int main() {
  using namespace fi::analysis;
  using fi::scenario::PhaseSpec;
  using fi::scenario::ScenarioSpec;

  constexpr std::uint64_t kFiles = 100'000;
  constexpr std::uint64_t kSectors = 1000;
  const double files = static_cast<double>(kFiles);
  const double sectors = static_cast<double>(kSectors);

  // (lost value, compensated / lost) of one engine run; 1 when none lost.
  const auto run = [files](const ScenarioSpec& spec) {
    const fi::core::NetworkStats t =
        fi::Session::from_spec(spec).value().report().totals;
    return std::pair{
        static_cast<double>(t.value_lost) /
            (files * static_cast<double>(spec.params.min_value)),
        t.value_lost == 0 ? 1.0
                          : static_cast<double>(t.value_compensated) /
                                static_cast<double>(t.value_lost)};
  };

  std::printf("Theorem 3 reproduction — lost-value ratio vs corruption\n");
  std::printf("(protocol engine: Nv = %llu files, Ns = %llu sectors, "
              "gamma_v_m = 1, Theorem 4 deposits, one run per cell)\n",
              static_cast<unsigned long long>(kFiles),
              static_cast<unsigned long long>(kSectors));

  bool all_hold = true;
  for (const std::uint32_t k : {4u, 8u, 12u, 20u}) {
    std::printf("\nk = %u\n", k);
    std::printf("%8s %14s %14s %12s %14s %8s\n", "lambda", "random loss",
                "targeted loss", "compensated", "bound", "holds");
    for (const double lambda : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
      // 1 KiB files at value = min_value (cp = k), filling the network's
      // value capacity exactly (γ_v^m = 1).
      ScenarioSpec spec;
      spec.name = "theorem3";
      spec.seed = k * 101;
      spec.sectors = kSectors;
      spec.sector_units = 4 * k;
      spec.initial_files = kFiles;
      spec.file_size_min = 1024;
      spec.file_size_max = 1024;
      spec.params.k = k;
      spec.file_value = spec.params.min_value;
      spec.params.cap_para =
          files / (sectors * static_cast<double>(spec.sector_units));
      spec.params.gamma_deposit = theorem4_deposit_ratio_bound(
          lambda, k, sectors, spec.params.cap_para);
      ScenarioSpec targeted = spec;
      spec.phases.push_back(PhaseSpec::make_corrupt_burst(lambda, 2));
      targeted.adversaries.push_back(
          fi::adversary::AdversarySpec::make_informed_pool(lambda, 1));
      targeted.phases.push_back(PhaseSpec::make_idle(2));

      const auto [random_loss, random_comp] = run(spec);
      const auto [targeted_loss, targeted_comp] = run(targeted);
      const double compensated = std::min(random_comp, targeted_comp);
      const double bound = theorem3_gamma_lost_bound(
          lambda, k, sectors, /*gamma_v_m=*/1.0, files / sectors);
      const bool holds = random_loss <= bound && targeted_loss <= bound &&
                         compensated == 1.0;
      all_hold = all_hold && holds;
      std::printf("%8.1f %14.6f %14.6f %12.3f %14.6f %8s\n", lambda,
                  random_loss, targeted_loss, compensated,
                  std::min(bound, 1.0), holds ? "yes" : "NO");
    }
  }

  // The paper's worked example, in closed form.
  std::printf("\nWorked example (paper §V-B3): k=20, Ns=1e6, capPara=1e3, "
              "lambda=0.5\n");
  std::printf("  5*lambda^k      = %.2e\n  lambda^(k/2)    = %.2e\n",
              5.0 * std::pow(0.5, 20), std::pow(0.5, 10));
  for (const double gmv : {0.005, 0.05, 0.2, 0.5}) {
    std::printf("  bound(gamma_v_m=%.3f) = %.6f\n", gmv,
                theorem3_gamma_lost_bound(0.5, 20, 1e6, gmv, 1e3));
  }
  std::printf("Paper claims gamma_lost <= 0.001 when gamma_v_m >= 0.005; see "
              "docs/BENCHMARKS.md\n(Theorem 3) for a note on the paper's "
              "third-term arithmetic.\n");
  return all_hold ? 0 : 1;
}

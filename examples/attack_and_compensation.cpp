// Adversarial storage attack: half of the network's capacity is destroyed
// at once (the paper's headline scenario, §V-B3/§V-B4).
//
// The same catastrophe is run against the full FileInsurer protocol and the
// Filecoin-style baseline, side by side:
//   * FileInsurer: randomized, refreshed placement keeps losses near λ^k,
//     and confiscated deposits pay every loss back in full;
//   * Filecoin model: deal-time placement loses at the same rate, but the
//     slashed pledges are burnt — owners see only the deal collateral.
//
// The FileInsurer side is a declarative scenario spec (the same workload
// as configs/attack_half.cfg) executed by the scenario engine.

#include <cstdio>

#include "baselines/model.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

using namespace fi;
using namespace fi::scenario;

int main() {
  std::printf("== half the storage collapses: FileInsurer vs Filecoin ==\n");

  // ---- FileInsurer, full protocol via the scenario engine ----------------
  ScenarioSpec spec;
  spec.name = "attack_half";
  spec.seed = 31337;
  spec.sectors = 120;
  spec.sector_units = 1;
  spec.initial_files = 900;
  spec.file_size_min = 1024;
  spec.file_size_max = 1024;
  spec.file_value = 100;
  spec.params.min_capacity = 32 * 1024;
  spec.params.min_value = 100;
  spec.params.k = 4;
  spec.params.cap_para = 30.0;
  spec.params.gamma_deposit = 0.08;
  spec.phases.push_back(PhaseSpec::make_corrupt_burst(0.5, 2));

  ScenarioRunner runner(spec);
  const MetricsReport report = runner.run();
  const auto stored = report.initial_files;
  const TokenAmount stored_value =
      static_cast<TokenAmount>(stored) * spec.file_value;
  std::printf("\nFileInsurer: %llu files stored (value %llu), k=%u, "
              "gamma_deposit=%.3f\n",
              static_cast<unsigned long long>(stored),
              static_cast<unsigned long long>(stored_value), spec.params.k,
              spec.params.gamma_deposit);

  const auto& stats = report.totals;
  std::printf("  after the attack:\n");
  std::printf("    sectors corrupted        : %llu of %llu\n",
              static_cast<unsigned long long>(stats.sectors_corrupted),
              static_cast<unsigned long long>(spec.sectors));
  std::printf("    files lost               : %llu of %llu  (%.3f%%; "
              "lambda^k = %.3f%%)\n",
              static_cast<unsigned long long>(stats.files_lost),
              static_cast<unsigned long long>(stored),
              100.0 * static_cast<double>(stats.files_lost) /
                  static_cast<double>(stored),
              100.0 * 0.0625);
  std::printf("    value lost / compensated : %llu / %llu  (coverage %.0f%%, "
              "outstanding %llu)\n",
              static_cast<unsigned long long>(stats.value_lost),
              static_cast<unsigned long long>(stats.value_compensated),
              stats.value_lost == 0
                  ? 100.0
                  : 100.0 * static_cast<double>(stats.value_compensated) /
                        static_cast<double>(stats.value_lost),
              static_cast<unsigned long long>(
                  report.outstanding_liabilities));
  std::printf("    compensation pool left   : %llu\n",
              static_cast<unsigned long long>(report.compensation_pool));

  // ---- Filecoin baseline, same catastrophe ------------------------------
  // Filecoin's Table IV row, with FileInsurer's replica count.
  baselines::Protocol protocol = *baselines::find_protocol("filecoin");
  protocol.holders = spec.params.k;
  baselines::Model filecoin(protocol, static_cast<std::uint32_t>(spec.sectors),
                            stored, /*seed=*/31337);
  const baselines::Outcome outcome = filecoin.corrupt_random(0.5);
  std::printf("\nFilecoin baseline (same %llu files, %u replicas, same "
              "lambda=0.5):\n",
              static_cast<unsigned long long>(stored), protocol.holders);
  std::printf("    value lost               : %.1f%% of stored value\n",
              100.0 * outcome.lost_value_fraction);
  std::printf("    compensated              : %.0f%% of the loss "
              "(deal collateral only; pledges are burnt)\n",
              100.0 * outcome.compensated_fraction);

  std::printf("\nThe insurance difference: identical losses, but FileInsurer "
              "owners are made whole\nwhile Filecoin owners absorb ~%.0f%% of "
              "the damage.\n",
              100.0 * (1.0 - outcome.compensated_fraction));
  return 0;
}

// Attack matrix at engine scale (ROADMAP north-star, not in the paper):
// sweeps every adversary strategy across an intensity grid on a
// 10^5-10^6-file population and reports the blast radius (files lost,
// compensation paid) against the attacker's bill (deposits confiscated,
// penalties paid). Every cell must conserve rent and keep the insurance
// identity, value lost == compensated + outstanding liabilities (§IV-B);
// the exit status is 1 when a cell breaks either.
//
// Intensity means: the controlled fleet fraction for colluding_pool /
// informed_pool / proof_withholder / refresh_saboteur / churn_griefer,
// holders-per-epoch (x20) for targeted_file, and the penalty budget as a
// fraction of all pledged deposits for adaptive_threshold.
//
// Usage: bench_adversary [files] [--intensities 0.05,0.2]
//                        [--strategies colluding_pool,refresh_saboteur]

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "adversary/spec.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/config.h"

namespace {

using fi::adversary::AdversarySpec;
using fi::adversary::StrategyKind;
using fi::scenario::MetricsReport;
using fi::scenario::PhaseSpec;
using fi::scenario::ScenarioRunner;
using fi::scenario::ScenarioSpec;

constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::targeted_file,      StrategyKind::colluding_pool,
    StrategyKind::proof_withholder,   StrategyKind::churn_griefer,
    StrategyKind::adaptive_threshold, StrategyKind::refresh_saboteur,
    StrategyKind::informed_pool,
};

std::uint64_t sectors_for(std::uint64_t files) {
  return files / 5 < 1'000 ? 1'000 : files / 5;
}

ScenarioSpec matrix_spec(std::uint64_t files) {
  ScenarioSpec spec;
  spec.seed = 42;
  spec.sectors = sectors_for(files);
  spec.sector_units = 4;
  spec.initial_files = files;
  spec.file_size_min = 1024;
  spec.file_size_max = 2048;
  spec.file_value = 10;
  spec.params.min_value = 10;
  spec.params.k = 3;
  spec.params.cap_para = 200.0;
  spec.params.gamma_deposit = 0.02;
  spec.params.avg_refresh = 20.0;
  spec.phases.push_back(PhaseSpec::make_idle(6));
  spec.phases.push_back(PhaseSpec::make_rent_audit(0));  // settle + audit
  return spec;
}

AdversarySpec adversary_for(StrategyKind kind, double intensity,
                            const ScenarioSpec& spec) {
  const auto scaled = [&](double x) {
    const auto v = static_cast<std::uint64_t>(
        x * static_cast<double>(spec.sectors));
    return v == 0 ? std::uint64_t{1} : v;
  };
  switch (kind) {
    case StrategyKind::targeted_file:
      return AdversarySpec::make_targeted_file(
          static_cast<std::uint64_t>(intensity * 20.0) + 1, 0, 1);
    case StrategyKind::colluding_pool:
      return AdversarySpec::make_colluding_pool(intensity, 2, 1);
    case StrategyKind::informed_pool:
      return AdversarySpec::make_informed_pool(intensity, 2, 1);
    case StrategyKind::proof_withholder:
      return AdversarySpec::make_proof_withholder(intensity, 1'000, 1);
    case StrategyKind::churn_griefer:
      // A griefer fleet this large re-registers every other epoch; cap it
      // so the bench stays about the protocol, not allocator churn.
      return AdversarySpec::make_churn_griefer(
          std::min<std::uint64_t>(scaled(intensity), 20'000), 2, 1);
    case StrategyKind::adaptive_threshold: {
      const fi::ByteCount capacity = spec.sector_units *
                                     spec.params.min_capacity;
      const fi::TokenAmount pledged =
          spec.params.sector_deposit(capacity) * spec.sectors;
      const auto budget = static_cast<fi::TokenAmount>(
          intensity * static_cast<double>(pledged));
      return AdversarySpec::make_adaptive_threshold(
          budget == 0 ? 1 : budget, scaled(0.0005), 2, 1);
    }
    case StrategyKind::refresh_saboteur:
      return AdversarySpec::make_refresh_saboteur(intensity, 0, 1);
    case StrategyKind::retrieval_ddos:
    case StrategyKind::cartel_starver:
      // Traffic-engine strategies need an enabled traffic block and are
      // benched by bench_retrieval, not the adversary matrix.
      break;
  }
  return AdversarySpec::make_targeted_file();
}

int usage(const char* argv0, const char* complaint) {
  std::fprintf(stderr,
               "bench_adversary: %s\n"
               "usage: %s [files] [--intensities 0.05,0.2]\n"
               "       [--strategies name,name,...]\n",
               complaint, argv0);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  // Positive-only wrapper over the shared strict parse (util/config.h).
  return fi::util::parse_u64(text, out) && out != 0;
}

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    out.push_back(list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t files = 100'000;
  std::vector<double> intensities{0.05, 0.2};
  std::vector<StrategyKind> strategies(std::begin(kAllStrategies),
                                       std::end(kAllStrategies));
  bool files_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--intensities" || arg == "--strategies") && i + 1 >= argc) {
      return usage(argv[0], (arg + " expects a value").c_str());
    }
    if (arg == "--intensities") {
      intensities.clear();
      for (const std::string& token : split_list(argv[++i])) {
        char* end = nullptr;
        const double x = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0' || !(x > 0.0 && x <= 1.0)) {
          return usage(argv[0], "--intensities expects fractions in (0, 1]");
        }
        intensities.push_back(x);
      }
    } else if (arg == "--strategies") {
      strategies.clear();
      for (const std::string& token : split_list(argv[++i])) {
        const auto kind = fi::adversary::strategy_kind_from_name(token);
        if (!kind.is_ok()) {
          return usage(argv[0],
                       ("unknown strategy '" + token + "'").c_str());
        }
        strategies.push_back(kind.value());
      }
    } else if (!files_given && !arg.empty() && arg[0] != '-') {
      constexpr std::uint64_t kMaxFiles = 10'000'000;
      if (!parse_u64(argv[i], files)) {
        return usage(argv[0], "file count must be a positive integer");
      }
      files_given = true;
      if (files > kMaxFiles) {
        std::fprintf(stderr, "bench_adversary: clamping to %llu files\n",
                     static_cast<unsigned long long>(kMaxFiles));
        files = kMaxFiles;
      }
    } else {
      return usage(argv[0], ("unknown argument '" + arg + "'").c_str());
    }
  }
  if (intensities.empty() || strategies.empty()) {
    return usage(argv[0], "nothing to sweep");
  }

  // idle(6) runs epochs 0..5 and every strategy starts at epoch 1, so
  // each cell is attacked for five epochs.
  std::printf("Attack matrix: %llu files, %llu sectors, 5 attacked epochs "
              "per cell\n\n",
              static_cast<unsigned long long>(files),
              static_cast<unsigned long long>(sectors_for(files)));
  // "actions" is the strategy's non-corruption activity: withheld proofs,
  // refused transfers, and exit/join churn.
  std::printf("%-18s %9s %10s %12s %12s %12s %10s %8s %5s %7s\n",
              "strategy", "intensity", "files_lost", "compensated",
              "confiscated", "penalties", "actions", "wall(s)", "rent",
              "insured");

  bool all_hold = true;
  for (const StrategyKind kind : strategies) {
    for (const double intensity : intensities) {
      ScenarioSpec spec = matrix_spec(files);
      spec.name = std::string("attack_matrix_") +
                  fi::adversary::strategy_kind_name(kind);
      spec.adversaries.push_back(adversary_for(kind, intensity, spec));

      ScenarioRunner runner(std::move(spec));
      const MetricsReport report = runner.run();
      const auto& c = report.adversaries.front().counters;
      const bool insured = report.totals.value_lost ==
                           report.totals.value_compensated +
                               report.outstanding_liabilities;
      all_hold = all_hold && report.rent_conserved && insured;
      std::printf(
          "%-18s %9.3f %10llu %12llu %12llu %12llu %10llu %8.1f %5s %7s\n",
          fi::adversary::strategy_kind_name(kind), intensity,
          static_cast<unsigned long long>(report.totals.files_lost),
          static_cast<unsigned long long>(report.totals.value_compensated),
          static_cast<unsigned long long>(c.deposits_confiscated),
          static_cast<unsigned long long>(c.penalties_paid),
          static_cast<unsigned long long>(c.proofs_withheld +
                                          c.transfers_refused +
                                          c.sectors_exited +
                                          c.sectors_joined),
          report.wall_seconds + report.setup_seconds,
          report.rent_conserved ? "ok" : "LEAK", insured ? "ok" : "BROKEN");
    }
  }
  return all_hold ? 0 : 1;
}

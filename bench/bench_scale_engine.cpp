// Engine scalability scenario driver (ROADMAP north-star, not in the paper):
// drives the full protocol engine — File_Add, File_Confirm, Auto_CheckProof,
// Auto_Refresh, corruption, rent — at 10^3..10^5 sectors and up to 10^5-10^6
// files, and reports ops/sec plus the per-rent-cycle cost.
//
// Three sections:
//   A. Rent-distribution scaling — the O(1)-per-cycle accumulator must stay
//      flat as the sector count grows 100x.
//   B. Epoch latency — wall time per proving/refresh epoch over a fixed
//      stored population.
//   C. Full churn at scale with a conservation audit (exit status).
//
// With --json, sections A and B are additionally emitted as machine-readable
// JSON (schema: docs/BENCHMARKS.md); CI feeds that file to
// scripts/check_bench_regression.py against bench/baseline.json.
//
// Usage: bench_scale_engine [files] [--json <path>]

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/config.h"

namespace {

using fi::scenario::MetricsReport;
using fi::scenario::PhaseKind;
using fi::scenario::PhaseSpec;
using fi::scenario::ScenarioRunner;
using fi::scenario::ScenarioSpec;

/// Fleet sizing shared by every file-count-driven section (and by the
/// emitted JSON, so the reported sector count always matches the measured
/// workload).
std::uint64_t sectors_for(std::uint64_t files) {
  return files / 5 < 1'000 ? 1'000 : files / 5;
}

ScenarioSpec scale_spec() {
  ScenarioSpec spec;
  spec.sector_units = 4;
  spec.file_size_min = 1024;
  spec.file_size_max = 2048;
  spec.file_value = 10;
  spec.params.min_value = 10;
  spec.params.k = 3;
  spec.params.cap_para = 200.0;
  spec.params.gamma_deposit = 0.01;
  return spec;
}

struct RentRow {
  std::uint64_t sectors = 0;
  double us_per_rent_cycle = 0.0;
};

/// Section A: per-rent-cycle cost vs sector count with a fixed file
/// workload. O(1) distribution => the us/rent-cycle column stays flat as
/// Ns grows 100x.
std::vector<RentRow> rent_cycle_scaling() {
  constexpr std::uint64_t kPeriods = 20;
  std::printf("Rent distribution scaling (fixed 200-file workload, %llu rent "
              "periods)\n",
              static_cast<unsigned long long>(kPeriods));
  std::printf("%8s %12s %16s %16s %14s\n", "Ns", "setup(s)", "advance(ms)",
              "us/rent-cycle", "rent paid");
  std::vector<RentRow> rows;
  for (const std::uint64_t ns : {1'000u, 10'000u, 100'000u}) {
    ScenarioSpec spec = scale_spec();
    spec.name = "rent_scaling";
    spec.seed = ns;
    spec.sectors = ns;
    spec.initial_files = 200;
    spec.phases.push_back(
        PhaseSpec::make_rent_audit(kPeriods));

    ScenarioRunner runner(std::move(spec));
    const MetricsReport report = runner.run();
    const double adv_secs = report.phases[0].wall_seconds;
    const double us_per_cycle =
        adv_secs * 1e6 / static_cast<double>(kPeriods);
    std::printf("%8llu %12.2f %16.1f %16.2f %14llu\n",
                static_cast<unsigned long long>(ns), report.setup_seconds,
                adv_secs * 1e3, us_per_cycle,
                static_cast<unsigned long long>(report.rent_paid));
    rows.push_back({ns, us_per_cycle});
  }
  std::printf("\n");
  return rows;
}

/// Section B: per-epoch latency of the proving/refresh epoch loop over a
/// fixed stored population.
double epoch_latency(std::uint64_t nf) {
  constexpr std::uint64_t kCycles = 4;
  const std::uint64_t ns = sectors_for(nf);
  std::printf("Epoch latency: %llu files, %llu sectors, %llu proving "
              "epochs\n",
              static_cast<unsigned long long>(nf),
              static_cast<unsigned long long>(ns),
              static_cast<unsigned long long>(kCycles));
  // One untimed warmup so the measurement is not charged for first-run
  // costs (allocator pools, page faults).
  {
    ScenarioSpec warm = scale_spec();
    warm.name = "epoch_latency_warmup";
    warm.seed = 42;
    warm.sectors = ns;
    warm.initial_files = nf;
    warm.params.avg_refresh = 20.0;
    warm.phases.push_back(PhaseSpec::make_idle(1));
    ScenarioRunner runner(std::move(warm));
    (void)runner.run();
  }
  ScenarioSpec spec = scale_spec();
  spec.name = "epoch_latency";
  spec.seed = 42;
  spec.sectors = ns;
  spec.initial_files = nf;
  spec.params.avg_refresh = 20.0;  // visible refresh traffic
  spec.phases.push_back(PhaseSpec::make_idle(kCycles));

  ScenarioRunner runner(std::move(spec));
  const MetricsReport report = runner.run();
  const double per_epoch =
      report.phases[0].wall_seconds / static_cast<double>(kCycles);
  std::printf("  %.4f s/epoch\n\n", per_epoch);
  return per_epoch;
}

/// Section C: full churn at scale — add/prove/refresh/corrupt/rent over a
/// large file population, with a conservation audit at the end (the same
/// workload as configs/churn_1m.cfg, sized by the file-count argument).
int churn_at_scale(std::uint64_t nf) {
  const std::uint64_t ns = sectors_for(nf);
  std::printf("Churn run: %llu files across %llu sectors\n",
              static_cast<unsigned long long>(nf),
              static_cast<unsigned long long>(ns));

  ScenarioSpec spec = scale_spec();
  spec.name = "churn_at_scale";
  spec.seed = 42;
  spec.sectors = ns;
  spec.initial_files = nf;
  spec.params.avg_refresh = 20.0;  // visible refresh traffic
  // Three proof cycles of proving/refreshing, then a 1% corruption burst
  // riding through one full rent period, then settle and audit.
  spec.phases.push_back(PhaseSpec::make_idle(3));
  spec.phases.push_back(PhaseSpec::make_corrupt_burst(0.01, 10));
  spec.phases.push_back(
      PhaseSpec::make_rent_audit(0));

  ScenarioRunner runner(std::move(spec));
  const MetricsReport report = runner.run();

  // setup_seconds covers the whole population build — sector
  // registration plus add+confirm — so this is a setup rate, not a pure
  // File_Add rate.
  std::printf("  setup (reg+add+confirm): %10.0f files/s  (%.1fs, %llu "
              "sectors registered)\n",
              static_cast<double>(report.initial_files) /
                  report.setup_seconds,
              report.setup_seconds, static_cast<unsigned long long>(ns));
  const auto& prove = report.phases[0];
  std::printf("  check_proof: %10.0f file-cycles/s  (%.1fs, %llu refreshes "
              "started)\n",
              static_cast<double>(report.initial_files * 3) /
                  prove.wall_seconds,
              prove.wall_seconds,
              static_cast<unsigned long long>(prove.delta.refreshes_started));
  const auto& burst = report.phases[1];
  std::printf("  corruption:  %.0f sectors hit, %llu files lost, "
              "%llu/%llu value compensated  (%.1fs)\n",
              fi::scenario::extra_or(burst, "sectors_hit"),
              static_cast<unsigned long long>(burst.delta.files_lost),
              static_cast<unsigned long long>(burst.delta.value_compensated),
              static_cast<unsigned long long>(burst.delta.value_lost),
              burst.wall_seconds);
  std::printf("  rent audit:  charged=%llu paid=%llu pool=%llu  %s\n",
              static_cast<unsigned long long>(report.rent_charged),
              static_cast<unsigned long long>(report.rent_paid),
              static_cast<unsigned long long>(report.rent_pool),
              report.rent_conserved ? "CONSERVED" : "LEAK");
  std::printf("  stats: stored=%llu lost=%llu corrupted=%llu "
              "refresh done=%llu\n",
              static_cast<unsigned long long>(report.totals.files_stored),
              static_cast<unsigned long long>(report.totals.files_lost),
              static_cast<unsigned long long>(
                  report.totals.sectors_corrupted),
              static_cast<unsigned long long>(
                  report.totals.refreshes_completed));
  return report.rent_conserved ? 0 : 1;
}

bool write_json(const std::string& path, std::uint64_t files,
                double per_epoch_seconds, const std::vector<RentRow>& rent) {
  const std::uint64_t ns = sectors_for(files);
  std::ofstream out(path, std::ios::binary);
  out << "{\n";
  out << "  \"bench\": \"bench_scale_engine\",\n";
  out << "  \"files\": " << files << ",\n";
  out << "  \"sectors\": " << ns << ",\n";
  char epoch[96];
  std::snprintf(epoch, sizeof(epoch),
                "    {\"files\": %llu, \"per_epoch_seconds\": %.6f}\n",
                static_cast<unsigned long long>(files), per_epoch_seconds);
  out << "  \"epoch_latency\": [\n" << epoch << "  ],\n";
  out << "  \"rent_scaling\": [\n";
  for (std::size_t i = 0; i < rent.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "    {\"sectors\": %llu, \"us_per_rent_cycle\": %.3f}%s\n",
                  static_cast<unsigned long long>(rent[i].sectors),
                  rent[i].us_per_rent_cycle,
                  i + 1 < rent.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n";
  out << "}\n";
  out.close();
  return out.good();
}

int usage(const char* argv0, const char* complaint) {
  std::fprintf(stderr,
               "bench_scale_engine: %s\n"
               "usage: %s [files] [--json <path>]\n",
               complaint, argv0);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  // Positive-only wrapper over the shared strict parse (util/config.h).
  return fi::util::parse_u64(text, out) && out != 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t nf = 100'000;
  std::string json_path;
  bool files_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 >= argc) {
      return usage(argv[0], "--json expects a value");
    }
    if (arg == "--json") {
      json_path = argv[++i];
    } else if (!files_given && !arg.empty() && arg[0] != '-') {
      // Validate instead of feeding strtoull garbage into the workload: a
      // non-numeric or zero argument is an error, and absurd counts clamp.
      constexpr std::uint64_t kMaxFiles = 10'000'000;
      if (!parse_u64(argv[i], nf)) {
        return usage(argv[0], "file count must be a positive integer");
      }
      files_given = true;
      if (nf > kMaxFiles) {
        std::fprintf(stderr,
                     "bench_scale_engine: clamping %llu to %llu files\n",
                     static_cast<unsigned long long>(nf),
                     static_cast<unsigned long long>(kMaxFiles));
        nf = kMaxFiles;
      }
    } else {
      return usage(argv[0], ("unknown argument '" + arg + "'").c_str());
    }
  }

  std::printf("Engine scale benchmark — million-file trajectory\n\n");
  const std::vector<RentRow> rent = rent_cycle_scaling();
  const double per_epoch = epoch_latency(nf);
  if (!json_path.empty() && !write_json(json_path, nf, per_epoch, rent)) {
    std::fprintf(stderr, "bench_scale_engine: failed to write %s\n",
                 json_path.c_str());
    return 1;
  }
  return churn_at_scale(nf);
}

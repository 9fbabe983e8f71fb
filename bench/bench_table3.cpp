// Reproduces Table III: "maximum capacity usage of sectors".
//
// Two settings, exactly as in §V-B2:
//   (top)    reallocate all Ncp file backups in one go, R times;
//   (bottom) refresh the location of a uniformly random backup M·Ncp times.
// Sector capacities are equal and total capacity is twice the total backup
// size (the redundant-capacity assumption). Five backup-size distributions.
//
// Default scale runs the four smaller (Ncp, Ns) rows with R=10, M=10 so the
// binary finishes in seconds; set FI_FULL_SCALE=1 for the paper's full grid
// (Ncp up to 1e8, R=100, M=100 — needs ~2 GB RAM and a long coffee).
//
// Exits 1, naming the row and distribution, when any cell's maximum usage
// reaches 7/8: Theorem 2's event (a sector's free capacity below 1/8 of
// it), which the paper's claim says does not happen at this redundancy.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "analysis/allocation_model.h"
#include "util/distributions.h"

namespace {

using fi::analysis::AllocationModel;
using fi::util::SizeDistribution;

const SizeDistribution kDistributions[] = {
    SizeDistribution::uniform01, SizeDistribution::uniform12,
    SizeDistribution::exponential, SizeDistribution::normal_mu_var,
    SizeDistribution::normal_mu_2var,
};
const char* const kDistributionNames[] = {"[1]U01", "[2]U12", "[3]Exp",
                                          "[4]N(s^2)", "[5]N(2s^2)"};

/// Theorem 2's event: a sector's usage above 7/8 of its capacity.
constexpr double kTheorem2Usage = 7.0 / 8.0;

struct GridRow {
  std::uint64_t ncp;
  std::size_t ns;
};

bool full_scale() {
  const char* env = std::getenv("FI_FULL_SCALE");
  return env != nullptr && env[0] == '1';
}

void print_header(const char* title) {
  std::printf("\n%s\n", title);
  std::printf("%10s %8s | %8s %8s %8s %9s %9s\n", "Ncp", "Ns",
              kDistributionNames[0], kDistributionNames[1],
              kDistributionNames[2], kDistributionNames[3],
              kDistributionNames[4]);
}

/// Whether the cell stays below Theorem 2's threshold; names it on stderr
/// when it does not.
bool cell_holds(const char* setting, const GridRow& row, std::size_t d,
                double max_usage) {
  if (max_usage < kTheorem2Usage) return true;
  std::fprintf(stderr, "FAIL: %s, Ncp %llu, Ns %zu, %s: max usage %.3f "
               "reaches 7/8\n", setting,
               static_cast<unsigned long long>(row.ncp), row.ns,
               kDistributionNames[d], max_usage);
  return false;
}

}  // namespace

int main() {
  const bool full = full_scale();
  std::vector<GridRow> grid = {
      {100'000, 20},     {100'000, 100},   {1'000'000, 200},
      {1'000'000, 1000},
  };
  if (full) {
    grid.push_back({10'000'000, 2'000});
    grid.push_back({10'000'000, 10'000});
    grid.push_back({100'000'000, 20'000});
    grid.push_back({100'000'000, 100'000});
  }
  const int rounds = full ? 100 : 10;
  const int refresh_multiplier = full ? 100 : 10;
  bool all_hold = true;

  std::printf("Table III reproduction — maximum capacity usage of sectors\n");
  std::printf("(total capacity = 2x total backup size; %s scale: "
              "%d reallocation rounds, %dx Ncp refreshes)\n",
              full ? "FULL" : "default", rounds, refresh_multiplier);

  // ---- Setting 1: reallocate all file backups `rounds` times ------------
  print_header("reallocate all file backups");
  for (const GridRow& row : grid) {
    std::printf("%10llu %8zu |", static_cast<unsigned long long>(row.ncp),
                row.ns);
    for (std::size_t d = 0; d < 5; ++d) {
      auto model = AllocationModel::from_distribution(
          kDistributions[d], row.ncp, row.ns, 2.0,
          /*seed=*/row.ncp + row.ns * 31 + d);
      double max_usage = model.max_usage();
      for (int r = 0; r < rounds; ++r) {
        max_usage = std::max(max_usage, model.reallocate_all());
      }
      all_hold = cell_holds("reallocate", row, d, max_usage) && all_hold;
      std::printf(" %8.3f", max_usage);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  // ---- Setting 2: refresh a random backup refresh_multiplier*Ncp times --
  print_header("refresh the location of a file backup");
  for (const GridRow& row : grid) {
    std::printf("%10llu %8zu |", static_cast<unsigned long long>(row.ncp),
                row.ns);
    for (std::size_t d = 0; d < 5; ++d) {
      auto model = AllocationModel::from_distribution(
          kDistributions[d], row.ncp, row.ns, 2.0,
          /*seed=*/row.ncp * 7 + row.ns * 13 + d);
      const double max_usage =
          model.refresh(static_cast<std::uint64_t>(refresh_multiplier) *
                        row.ncp);
      all_hold = cell_holds("refresh", row, d, max_usage) && all_hold;
      std::printf(" %8.3f", max_usage);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf(
      "\nPaper reference (full scale): maxima between 0.52 and 0.64 across\n"
      "all rows; usage never approaches 1, so collisions are negligible.\n");
  std::printf("\n%s\n", all_hold
                            ? "Every cell stays below Theorem 2's 7/8 usage."
                            : "Some cell reaches Theorem 2's 7/8 usage.");
  return all_hold ? 0 : 1;
}

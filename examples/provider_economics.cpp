// Provider economics: the full financial lifecycle of a storage provider —
// the deposit burden the paper works hard to minimize (§IV-B), rent income
// (§IV-A2), punishment for sloppiness, and the safe exit path
// (Sector_Disable -> drain -> deposit refund).

#include <cstdio>
#include <vector>

#include "analysis/bounds.h"
#include "core/network.h"
#include "ledger/account.h"

using namespace fi;
using namespace fi::core;

int main() {
  Params params;
  params.min_capacity = 32 * 1024;
  params.min_value = 10;
  params.k = 2;
  params.cap_para = 20.0;
  params.gamma_deposit = 0.5;
  params.punish_bp = 1000;  // 10% slash per late-proof offence
  params.proof_cycle = 50;
  params.proof_due = 75;
  params.proof_deadline = 300;
  params.avg_refresh = 4.0;

  ledger::Ledger ledger;
  Network net(params, ledger, /*seed=*/404);

  std::printf("== provider economics ==\n\n");

  // The paper's selling point: a deposit ratio of fractions of a percent
  // suffices at scale. Print what Theorem 4 demands at headline parameters.
  std::printf("Theorem 4 deposit ratio at paper scale (k=20, Ns=1e6, "
              "capPara=1e3, lambda=0.5): %.4f\n",
              analysis::theorem4_deposit_ratio_bound(0.5, 20, 1e6, 1e3));
  std::printf("-> a provider pledges ~0.46%% of the value it helps secure.\n\n");

  // Our protagonist and five peers.
  const AccountId hero = ledger.create_account(100'000);
  std::vector<AccountId> peers;
  std::vector<SectorId> peer_sectors;
  for (int i = 0; i < 5; ++i) {
    peers.push_back(ledger.create_account(100'000));
    peer_sectors.push_back(
        net.sector_register(peers.back(), params.min_capacity).value());
  }
  const TokenAmount hero_start = ledger.balance(hero);
  const SectorId hero_sector =
      net.sector_register(hero, params.min_capacity).value();
  std::printf("hero registers a 32 KiB sector: deposit %llu locked "
              "(balance %llu -> %llu)\n",
              static_cast<unsigned long long>(
                  net.deposits().remaining(hero_sector)),
              static_cast<unsigned long long>(hero_start),
              static_cast<unsigned long long>(ledger.balance(hero)));

  // Clients fill the network to ~half its capacity — the paper's
  // redundant-capacity assumption (§V-A), which is what keeps refreshes
  // (and therefore sector draining) collision-free.
  const AccountId client = ledger.create_account(10'000'000);
  int accepted = 0;
  for (int i = 0; i < 45; ++i) {
    auto f = net.file_add(client, {1024, 10, {}});
    if (!f.is_ok()) break;
    for (ReplicaIndex r = 0; r < net.allocations().replica_count(f.value());
         ++r) {
      const AllocEntry& e = net.allocations().entry(f.value(), r);
      (void)net.file_confirm(net.sectors().at(e.next).owner, f.value(), r,
                             e.next);
    }
    ++accepted;
  }
  std::printf("clients stored %d files across the 6-sector fleet\n\n",
              accepted);

  // Earn rent for five rent periods; confirm refresh handoffs as they come.
  net.subscribe([&](const Event& event) {
    if (const auto* req = std::get_if<ReplicaTransferRequested>(&event)) {
      if (req->from != kNoSector) {
        (void)net.file_confirm(net.sectors().at(req->to).owner, req->file,
                               req->index, req->to);
      }
    }
  });
  const TokenAmount before_rent = ledger.balance(hero);
  const Time five_periods =
      5 * static_cast<Time>(params.rent_period_cycles) * params.proof_cycle;
  net.advance_to(five_periods + 1);
  std::printf("after 5 rent periods: hero earned %lld tokens of rent "
              "(capacity share = 1/6 of the pool)\n",
              static_cast<long long>(ledger.balance(hero)) -
                  static_cast<long long>(before_rent));

  // A lapse: the hero's disk goes dark past ProofDue (slash territory) but
  // comes back before ProofDeadline (confiscation).
  std::printf("\nhero's disk goes dark for ~2.5 proof cycles...\n");
  const TokenAmount before_punish = net.deposits().remaining(hero_sector);
  net.corrupt_sector_physical(hero_sector);
  net.advance_to(net.now() + params.proof_cycle * 5 / 2);
  net.restore_sector_physical(hero_sector);
  net.advance_to(net.now() + params.proof_cycle);
  std::printf("  deposit %llu -> %llu (late-proof slashes, 10%% each), "
              "sector %s\n",
              static_cast<unsigned long long>(before_punish),
              static_cast<unsigned long long>(
                  net.deposits().remaining(hero_sector)),
              to_string(net.sectors().at(hero_sector).state));

  // Safe exit: disable, wait for refreshes to drain the sector, refund.
  std::printf("\nhero disables the sector and waits for the refresh "
              "mechanism to drain it...\n");
  (void)net.sector_disable(hero, hero_sector);
  Time waited = 0;
  while (net.sectors().at(hero_sector).state == SectorState::disabled &&
         waited < 400 * params.proof_cycle) {
    net.advance_to(net.now() + params.proof_cycle);
    waited += params.proof_cycle;
  }
  const bool exited =
      net.sectors().at(hero_sector).state == SectorState::removed;
  std::printf("  sector state after %llu cycles: %s\n",
              static_cast<unsigned long long>(waited / params.proof_cycle),
              to_string(net.sectors().at(hero_sector).state));
  std::printf("\n== closing balance ==\n");
  std::printf("  start %llu -> end %llu (%+lld): rent income minus "
              "punishments%s\n",
              static_cast<unsigned long long>(hero_start),
              static_cast<unsigned long long>(ledger.balance(hero)),
              static_cast<long long>(ledger.balance(hero)) -
                  static_cast<long long>(hero_start),
              exited ? ", deposit refunded in full" : " (deposit still locked)");
  return 0;
}

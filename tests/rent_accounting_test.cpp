// Rent-accounting equivalence and conservation (§IV-A2).
//
// The engine distributes rent with an O(1)-per-cycle accumulator and lazy
// per-sector settlement. These tests pin that scheme to the specification
// it replaced — the two-sweep algorithm that, every rent period, paid each
// live (normal or disabled) sector floor(pool * capacity / total_capacity):
//
//  * a deterministic check that settled payouts equal the two-sweep shares
//    exactly (up to integer floor) in a hand-computable scenario;
//  * a randomized interleaving of register / disable / corrupt / add /
//    discard / settle asserting every provider is paid within rounding
//    dust of the two-sweep totals;
//  * an exact conservation audit: rent charged == rent settled + pool.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/network.h"
#include "ledger/account.h"
#include "util/prng.h"

namespace fi::core {
namespace {

Params rent_params() {
  Params p;
  p.min_capacity = 1024;
  p.min_value = 10;
  p.k = 2;
  p.cap_para = 10.0;
  p.gamma_deposit = 0.5;
  p.proof_cycle = 100;
  p.proof_due = 150;
  p.proof_deadline = 300;
  p.rent_period_cycles = 10;  // distribution every 1000 ticks
  p.avg_refresh = 1000.0;     // keep the refresh path out of the ledger
  return p;
}

std::uint64_t abs_diff(TokenAmount a, TokenAmount b) {
  return a > b ? a - b : b - a;
}

TEST(RentAccounting, SettlementMatchesTwoSweepSharesExactly) {
  const Params params = rent_params();
  ledger::Ledger ledger;
  Network net(params, ledger, /*seed=*/3);

  const AccountId pa = ledger.create_account(1'000'000);
  const AccountId pb = ledger.create_account(1'000'000);
  const SectorId sa = net.sector_register(pa, 1 * 1024).value();
  const SectorId sb = net.sector_register(pb, 3 * 1024).value();

  const AccountId client = ledger.create_account(1'000'000);
  auto file = net.file_add(client, {1024, 10, {}});
  ASSERT_TRUE(file.is_ok());
  for (ReplicaIndex i = 0; i < net.allocations().replica_count(file.value());
       ++i) {
    const AllocEntry& e = net.allocations().entry(file.value(), i);
    ASSERT_TRUE(net.file_confirm(net.sectors().at(e.next).owner, file.value(),
                                 i, e.next)
                    .is_ok());
  }

  // Just before the first distribution: the pool holds every charge so far
  // and nothing has been credited yet.
  net.advance_to(params.rent_period_cycles * params.proof_cycle - 1);
  const TokenAmount charged = net.total_rent_charged();
  ASSERT_GT(charged, 0u);
  EXPECT_EQ(net.accrued_rent(sa), 0u);
  EXPECT_EQ(ledger.balance(net.rent_pool_account()), charged);

  // Two-sweep reference: capacity-proportional floor shares of the pool.
  const TokenAmount share_a = charged * 1 / 4;
  const TokenAmount share_b = charged * 3 / 4;

  net.advance_to(params.rent_period_cycles * params.proof_cycle + 1);
  EXPECT_LE(abs_diff(net.accrued_rent(sa), share_a), 1u);
  EXPECT_LE(abs_diff(net.accrued_rent(sb), share_b), 1u);

  const TokenAmount paid_a = net.settle_rent(sa);
  const TokenAmount paid_b = net.settle_rent(sb);
  EXPECT_LE(abs_diff(paid_a, share_a), 1u);
  EXPECT_LE(abs_diff(paid_b, share_b), 1u);
  // Settlement is idempotent until the next distribution.
  EXPECT_EQ(net.settle_rent(sa), 0u);
  EXPECT_EQ(net.settle_rent(sb), 0u);
  // Exact conservation at all times.
  EXPECT_EQ(net.total_rent_charged(),
            net.total_rent_paid() + ledger.balance(net.rent_pool_account()));
}

TEST(RentAccounting, CorruptionSettlesPriorAccrualThenFreezes) {
  const Params params = rent_params();
  ledger::Ledger ledger;
  Network net(params, ledger, /*seed=*/5);

  const AccountId pa = ledger.create_account(1'000'000);
  const AccountId pb = ledger.create_account(1'000'000);
  const SectorId sa = net.sector_register(pa, 2 * 1024).value();
  ASSERT_TRUE(net.sector_register(pb, 2 * 1024).is_ok());

  const AccountId client = ledger.create_account(1'000'000);
  auto file = net.file_add(client, {512, 10, {}});
  ASSERT_TRUE(file.is_ok());
  for (ReplicaIndex i = 0; i < net.allocations().replica_count(file.value());
       ++i) {
    const AllocEntry& e = net.allocations().entry(file.value(), i);
    ASSERT_TRUE(net.file_confirm(net.sectors().at(e.next).owner, file.value(),
                                 i, e.next)
                    .is_ok());
  }

  // Cross one distribution so sa has credited, unsettled rent.
  net.advance_to(params.rent_period_cycles * params.proof_cycle + 1);
  const TokenAmount accrued = net.accrued_rent(sa);
  const TokenAmount before = ledger.balance(pa);

  // Corruption pays the accrual (earned before the fault) and freezes it.
  net.corrupt_sector_now(sa);
  EXPECT_EQ(ledger.balance(pa), before + accrued);
  EXPECT_EQ(net.accrued_rent(sa), 0u);
  net.advance_to(2 * params.rent_period_cycles * params.proof_cycle + 1);
  EXPECT_EQ(net.accrued_rent(sa), 0u);
  EXPECT_EQ(net.settle_rent(sa), 0u);
}

TEST(RentAccounting, TinyPoolNonPowerOfTwoUnitsNeverOverdraws) {
  // Regression: the distribution must subtract its exact fixed-point
  // commitment from the undistributed balance. Subtracting only whole
  // credited tokens re-credits the sub-token remainder every cycle, and
  // with 1 token of rent against 3 capacity units the accumulator's
  // liability outgrows the pool until settlement overdraws and aborts.
  Params params = rent_params();
  params.k = 1;  // cp = 1 => rent of exactly 1 token per cycle
  ledger::Ledger ledger;
  Network net(params, ledger, /*seed=*/9);

  const AccountId provider = ledger.create_account(1'000'000);
  const SectorId s = net.sector_register(provider, 3 * 1024).value();

  const AccountId client = ledger.create_account(1'000'000);
  auto file = net.file_add(client, {512, 10, {}});
  ASSERT_TRUE(file.is_ok());
  const AllocEntry& e = net.allocations().entry(file.value(), 0);
  ASSERT_TRUE(net.file_confirm(provider, file.value(), 0, e.next).is_ok());

  // Let exactly one cycle's rent land, then bankrupt the client so the
  // file is discarded and no further rent flows.
  net.advance_to(net.now() + params.transfer_window(512) + params.proof_cycle);
  ASSERT_EQ(net.total_rent_charged(), 1u);
  ASSERT_TRUE(
      ledger.transfer(client, provider, ledger.balance(client)).is_ok());

  // Many distribution cycles over the stranded token: every settlement
  // must stay within the pool (the buggy carry-over threw here).
  const Time period =
      static_cast<Time>(params.rent_period_cycles) * params.proof_cycle;
  for (int k = 0; k < 50; ++k) {
    net.advance(period);
    EXPECT_LE(net.accrued_rent(s), ledger.balance(net.rent_pool_account()));
    (void)net.settle_rent(s);
  }
  net.settle_all_rent();
  EXPECT_EQ(net.total_rent_charged(),
            net.total_rent_paid() + ledger.balance(net.rent_pool_account()));
  EXPECT_LE(net.total_rent_paid(), 1u);
}

/// Randomized equivalence harness. Drives the engine through interleaved
/// register / disable / corrupt / add / discard / settle operations while an
/// oracle replays the old two-sweep distribution on the same state; at the
/// end every provider's actual rent income (ledger delta net of deposits,
/// gas, refunds and traffic fees) must match the oracle within rounding
/// dust.
class RentEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RentEquivalenceTest, LazyAccumulatorMatchesTwoSweep) {
  const std::uint64_t seed = GetParam();
  const Params params = rent_params();
  ledger::Ledger ledger;
  Network net(params, ledger, seed);
  util::Xoshiro256 rng(seed * 9176 + 11);

  constexpr int kProviders = 5;
  constexpr TokenAmount kInitial = 10'000'000;
  std::vector<AccountId> providers;
  // Non-rent ledger flows per provider, tracked exactly so the rent income
  // can be isolated from the final balances.
  std::unordered_map<AccountId, TokenAmount> outflow;  // deposits + gas
  std::unordered_map<AccountId, TokenAmount> inflow;   // refunds + traffic
  std::unordered_map<SectorId, AccountId> sector_owner;
  std::unordered_map<AccountId, TokenAmount> oracle_paid;
  for (int i = 0; i < kProviders; ++i) {
    providers.push_back(ledger.create_account(kInitial));
    outflow[providers.back()] = 0;
    inflow[providers.back()] = 0;
    oracle_paid[providers.back()] = 0;
  }
  net.subscribe([&](const Event& e) {
    if (const auto* removed = std::get_if<SectorRemoved>(&e)) {
      inflow[sector_owner.at(removed->sector)] += removed->refunded;
    }
  });

  const AccountId client = ledger.create_account(100'000'000);
  std::vector<FileId> files;

  const auto register_sector = [&](AccountId provider, ByteCount capacity) {
    auto id = net.sector_register(provider, capacity);
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    sector_owner[id.value()] = provider;
    outflow[provider] +=
        params.sector_deposit(capacity) + params.gas_per_task;
  };

  const auto add_file = [&] {
    const ByteCount size = 200 + rng.uniform_below(2800);
    const TokenAmount value = 10 * (1 + rng.uniform_below(2));
    auto id = net.file_add(client, {size, value, {}});
    if (!id.is_ok()) return;  // no space: acceptable under churn
    for (ReplicaIndex i = 0; i < net.allocations().replica_count(id.value());
         ++i) {
      const AllocEntry& e = net.allocations().entry(id.value(), i);
      const ProviderId owner = net.sectors().at(e.next).owner;
      if (net.file_confirm(owner, id.value(), i, e.next).is_ok()) {
        inflow[owner] += params.traffic_fee(size);
      }
    }
    files.push_back(id.value());
  };

  for (int i = 0; i < kProviders; ++i) {
    register_sector(providers[i], (1 + rng.uniform_below(4)) * 1024);
  }
  for (int i = 0; i < 4; ++i) add_file();

  const Time period =
      static_cast<Time>(params.rent_period_cycles) * params.proof_cycle;
  constexpr int kPeriods = 6;
  for (int k = 1; k <= kPeriods; ++k) {
    // Random churn strictly inside the period.
    for (int op = 0; op < 6; ++op) {
      switch (rng.uniform_below(6)) {
        case 0:
          add_file();
          break;
        case 1: {  // discard a live file
          if (files.empty()) break;
          const FileId f = files[rng.uniform_below(files.size())];
          if (net.file_exists(f)) (void)net.file_discard(client, f);
          break;
        }
        case 2: {  // register another sector
          const AccountId p = providers[rng.uniform_below(providers.size())];
          register_sector(p, (1 + rng.uniform_below(4)) * 1024);
          break;
        }
        case 3: {  // disable a random normal sector
          const SectorId s = rng.uniform_below(net.sectors().count());
          if (net.sectors().at(s).state == SectorState::normal) {
            if (net.sector_disable(sector_owner.at(s), s).is_ok()) {
              outflow[sector_owner.at(s)] += params.gas_per_task;
            }
          }
          break;
        }
        case 4: {  // corrupt a random normal sector
          const SectorId s = rng.uniform_below(net.sectors().count());
          if (net.sectors().at(s).state == SectorState::normal) {
            net.corrupt_sector_now(s);
          }
          break;
        }
        case 5: {  // a provider polls (and settles) its rent balance
          const SectorId s = rng.uniform_below(net.sectors().count());
          (void)net.settle_rent(s);
          break;
        }
      }
      net.advance(20 + rng.uniform_below(50));
      // Stay clear of the period boundary: the oracle snapshot below must
      // observe the exact pre-distribution state.
      if (net.now() >= static_cast<Time>(k) * period - 2) break;
    }

    // Oracle: replay the two-sweep distribution on the pre-distribution
    // state (tasks at the boundary run after the distribution task, so the
    // state at period-end minus one tick is what the sweep would see).
    net.advance_to(static_cast<Time>(k) * period - 1);
    TokenAmount oracle_paid_total = 0;
    for (auto& [provider, paid] : oracle_paid) oracle_paid_total += paid;
    const TokenAmount oracle_pool =
        net.total_rent_charged() - oracle_paid_total;
    ByteCount total_cap = 0;
    for (SectorId s = 0; s < net.sectors().count(); ++s) {
      const Sector& sec = net.sectors().at(s);
      if (sec.state == SectorState::normal ||
          sec.state == SectorState::disabled) {
        total_cap += sec.capacity;
      }
    }
    if (oracle_pool > 0 && total_cap > 0) {
      for (SectorId s = 0; s < net.sectors().count(); ++s) {
        const Sector& sec = net.sectors().at(s);
        if (sec.state != SectorState::normal &&
            sec.state != SectorState::disabled) {
          continue;
        }
        oracle_paid[sec.owner] += oracle_pool * sec.capacity / total_cap;
      }
    }
    net.advance_to(static_cast<Time>(k) * period + 1);
  }

  // Flush all outstanding accruals, then audit.
  net.settle_all_rent();

  // Exact conservation: every charged token is either settled or pooled.
  EXPECT_EQ(net.total_rent_charged(),
            net.total_rent_paid() + ledger.balance(net.rent_pool_account()));

  std::size_t sectors_total = sector_owner.size();
  for (const AccountId provider : providers) {
    const TokenAmount actual = ledger.balance(provider) + outflow[provider] -
                               inflow[provider] - kInitial;
    // Dust bound: the oracle floors once per sector per distribution; the
    // accumulator floors once per paying settlement. Both are < 1 token.
    const std::uint64_t dust = (kPeriods + 2) * (sectors_total + 1);
    EXPECT_LE(abs_diff(actual, oracle_paid[provider]), dust)
        << "provider " << provider << " actual=" << actual
        << " oracle=" << oracle_paid[provider] << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RentEquivalenceTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace fi::core

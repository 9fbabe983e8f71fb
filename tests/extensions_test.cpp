#include <gtest/gtest.h>

#include <algorithm>

#include "core/agents.h"
#include "core/retrieval_market.h"
#include "ledger/account.h"

/// Tests for the competitive retrieval market (§III-E): cheapest-ask
/// selection, settlement, and a retrieval by the off-chain agents. The
/// traffic engine drives the same market end to end (tests/traffic_test.cpp).
namespace fi {
namespace {

using namespace fi::core;

// ---------------------------------------------------------------------------
// RetrievalMarket
// ---------------------------------------------------------------------------

struct MarketFixture : ::testing::Test {
  ledger::Ledger ledger;
  RetrievalMarket market{ledger, /*default_price=*/3};
  AccountId client = ledger.create_account(10'000);
  AccountId cheap = ledger.create_account(0);
  AccountId pricey = ledger.create_account(0);
};

TEST_F(MarketFixture, CheapestAskWinsSelection) {
  market.post_ask(cheap, 1);
  market.post_ask(pricey, 7);
  const auto winner = market.select({pricey, cheap});
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(*winner, cheap);
}

TEST_F(MarketFixture, DefaultPriceAppliesToSilentProviders) {
  EXPECT_EQ(market.ask_of(cheap), 3u);
  market.post_ask(cheap, 1);
  EXPECT_EQ(market.ask_of(cheap), 1u);
}

TEST_F(MarketFixture, TiesBreakDeterministically) {
  market.post_ask(cheap, 2);
  market.post_ask(pricey, 2);
  const AccountId low = std::min(cheap, pricey);
  EXPECT_EQ(*market.select({pricey, cheap}), low);
  EXPECT_EQ(*market.select({cheap, pricey}), low);
}

TEST_F(MarketFixture, EmptyCandidateSetSelectsNothing) {
  EXPECT_FALSE(market.select({}).has_value());
}

TEST_F(MarketFixture, SettleMovesQuoteAndTracksVolume) {
  market.post_ask(cheap, 2);
  ASSERT_TRUE(market.settle(client, cheap, 3000).is_ok());  // 3 KiB * 2
  EXPECT_EQ(ledger.balance(cheap), 6u);
  EXPECT_EQ(ledger.balance(client), 10'000u - 6u);
  EXPECT_EQ(market.bytes_served(cheap), 3000u);
  EXPECT_EQ(market.revenue(cheap), 6u);
  EXPECT_EQ(market.retrievals_settled(), 1u);
}

TEST_F(MarketFixture, SettleFailsWithoutFundsAndRecordsNothing) {
  const AccountId broke = ledger.create_account(1);
  market.post_ask(pricey, 100);
  EXPECT_EQ(market.settle(broke, pricey, 2048).code(),
            util::ErrorCode::insufficient_funds);
  EXPECT_EQ(market.bytes_served(pricey), 0u);
  EXPECT_EQ(market.retrievals_settled(), 0u);
}

TEST(MarketIntegration, RetrievalGoesToTheCheapestHolder) {
  Params p;
  p.min_capacity = 8 * 1024;
  p.min_value = 10;
  p.k = 2;
  p.cap_para = 20.0;
  p.gamma_deposit = 0.2;
  p.delay_per_kib = 5;
  p.min_transfer_window = 5;
  p.verify_proofs = true;
  p.seal = {.work = 1, .challenges = 2};
  p.cr_size = 2048;
  Simulation sim(p, 77);
  ClientAgent& client = sim.add_client(1'000'000);
  ProviderAgent& a = sim.add_provider(10'000'000);
  ProviderAgent& b = sim.add_provider(10'000'000);
  ASSERT_TRUE(a.register_sector(4 * 8 * 1024).is_ok());
  ASSERT_TRUE(b.register_sector(4 * 8 * 1024).is_ok());
  a.set_retrieval_price(1);
  b.set_retrieval_price(9);

  std::vector<std::uint8_t> data(3000, 0x2a);
  auto file = client.store_file(data, 10);  // cp=2: one replica per provider
  ASSERT_TRUE(file.is_ok());
  sim.run_until(200);

  bool ok = false;
  client.retrieve(file.value(), [&](bool success) { ok = success; });
  sim.run_until(400);
  ASSERT_TRUE(ok);
  // The cheap provider served and earned at its own ask.
  EXPECT_GT(sim.market().bytes_served(a.account()), 0u);
  EXPECT_EQ(sim.market().bytes_served(b.account()), 0u);
  EXPECT_EQ(sim.market().revenue(a.account()), 3u);  // 3 KiB * 1
}

}  // namespace
}  // namespace fi

#include <gtest/gtest.h>

#include "core/retrieval_market.h"
#include "ledger/account.h"

/// Tests for the competitive retrieval market (§III-E): the asks, quotes
/// and settlement. Choosing among holders is the traffic tick's rule
/// (cheapest ask, then shortest queue, then lowest sector id), driven end
/// to end in tests/traffic_test.cpp and pinned by the golden hashes; the
/// market's snapshot loader is exercised there too.
namespace fi {
namespace {

using namespace fi::core;

// ---------------------------------------------------------------------------
// RetrievalMarket
// ---------------------------------------------------------------------------

struct MarketFixture : ::testing::Test {
  ledger::Ledger ledger;
  RetrievalMarket market{ledger, /*price_per_kib=*/3};
  AccountId client = ledger.create_account(10'000);
  AccountId provider = ledger.create_account(0);
  SectorId even = 2;
  SectorId odd = 3;
};

TEST_F(MarketFixture, DefaultPriceAppliesToSilentProviders) {
  // The configured price is the even tier; odd sectors ask one more.
  EXPECT_EQ(market.ask_of(even), 3u);
  EXPECT_EQ(market.ask_of(odd), 4u);
  // Entering the ask book records the sector; it does not reprice it.
  market.post_ask(odd);
  EXPECT_EQ(market.ask_of(odd), 4u);
}

TEST_F(MarketFixture, SettleMovesQuoteAndTracksVolume) {
  market.post_ask(even);
  const TokenAmount price = market.quote(even, 3000);  // 3 KiB * 3
  ASSERT_TRUE(market.settle_to(client, even, provider, 3000, price).is_ok());
  EXPECT_EQ(ledger.balance(provider), 9u);
  EXPECT_EQ(ledger.balance(client), 10'000u - 9u);
  EXPECT_EQ(market.bytes_served(even), 3000u);
  EXPECT_EQ(market.revenue(even), 9u);
  EXPECT_EQ(market.bytes_served(odd), 0u);
  EXPECT_EQ(market.retrievals_settled(), 1u);
}

TEST_F(MarketFixture, SettleFailsWithoutFundsAndRecordsNothing) {
  const AccountId broke = ledger.create_account(1);
  market.post_ask(odd);
  const TokenAmount price = market.quote(odd, 2048);  // 2 KiB * 4
  EXPECT_EQ(market.settle_to(broke, odd, provider, 2048, price).code(),
            util::ErrorCode::insufficient_funds);
  EXPECT_EQ(market.bytes_served(odd), 0u);
  EXPECT_EQ(market.revenue(odd), 0u);
  EXPECT_EQ(market.retrievals_settled(), 0u);
}

}  // namespace
}  // namespace fi

#include <gtest/gtest.h>

#include "core/retrieval_market.h"
#include "ledger/account.h"

/// Tests for the competitive retrieval market (§III-E): the ask book,
/// quotes and settlement. Choosing among holders is the traffic tick's
/// rule (cheapest ask, then shortest queue, then lowest sector id), driven
/// end to end in tests/traffic_test.cpp and pinned by the golden hashes.
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

TEST_F(MarketFixture, DefaultPriceAppliesToSilentProviders) {
  EXPECT_EQ(market.ask_of(cheap), 3u);
  market.post_ask(cheap, 1);
  EXPECT_EQ(market.ask_of(cheap), 1u);
}

TEST_F(MarketFixture, SettleMovesQuoteAndTracksVolume) {
  market.post_ask(cheap, 2);
  const TokenAmount price = market.quote(cheap, 3000);  // 3 KiB * 2
  ASSERT_TRUE(market.settle_to(client, cheap, cheap, 3000, price).is_ok());
  EXPECT_EQ(ledger.balance(cheap), 6u);
  EXPECT_EQ(ledger.balance(client), 10'000u - 6u);
  EXPECT_EQ(market.bytes_served(cheap), 3000u);
  EXPECT_EQ(market.revenue(cheap), 6u);
  EXPECT_EQ(market.retrievals_settled(), 1u);
}

TEST_F(MarketFixture, SettleFailsWithoutFundsAndRecordsNothing) {
  const AccountId broke = ledger.create_account(1);
  market.post_ask(pricey, 100);
  const TokenAmount price = market.quote(pricey, 2048);
  EXPECT_EQ(market.settle_to(broke, pricey, pricey, 2048, price).code(),
            util::ErrorCode::insufficient_funds);
  EXPECT_EQ(market.bytes_served(pricey), 0u);
  EXPECT_EQ(market.retrievals_settled(), 0u);
}

}  // namespace
}  // namespace fi

#include <gtest/gtest.h>

#include "ledger/account.h"
#include "util/prng.h"

namespace fi::ledger {
namespace {

// ---------------------------------------------------------------------------
// Accounts
// ---------------------------------------------------------------------------

TEST(Accounts, CreateAndQuery) {
  Ledger ledger;
  const AccountId a = ledger.create_account(100);
  const AccountId b = ledger.create_account();
  EXPECT_TRUE(ledger.exists(a));
  EXPECT_TRUE(ledger.exists(b));
  EXPECT_NE(a, b);
  EXPECT_EQ(ledger.balance(a), 100u);
  EXPECT_EQ(ledger.balance(b), 0u);
  EXPECT_EQ(ledger.total_supply(), 100u);
}

TEST(Accounts, TransferMovesExactAmount) {
  Ledger ledger;
  const AccountId a = ledger.create_account(100);
  const AccountId b = ledger.create_account(5);
  ASSERT_TRUE(ledger.transfer(a, b, 30).is_ok());
  EXPECT_EQ(ledger.balance(a), 70u);
  EXPECT_EQ(ledger.balance(b), 35u);
  EXPECT_EQ(ledger.total_supply(), 105u);
}

TEST(Accounts, OverdraftRejectedWithoutSideEffects) {
  Ledger ledger;
  const AccountId a = ledger.create_account(10);
  const AccountId b = ledger.create_account(0);
  const auto status = ledger.transfer(a, b, 11);
  EXPECT_EQ(status.code(), util::ErrorCode::insufficient_funds);
  EXPECT_EQ(ledger.balance(a), 10u);
  EXPECT_EQ(ledger.balance(b), 0u);
}

TEST(Accounts, UnknownAccountsRejected) {
  Ledger ledger;
  const AccountId a = ledger.create_account(10);
  EXPECT_EQ(ledger.transfer(a, 999, 1).code(), util::ErrorCode::not_found);
  EXPECT_EQ(ledger.transfer(999, a, 1).code(), util::ErrorCode::not_found);
  EXPECT_EQ(ledger.mint(999, 1).code(), util::ErrorCode::not_found);
}

TEST(Accounts, MintGrowsSupply) {
  Ledger ledger;
  const AccountId a = ledger.create_account(1);
  ASSERT_TRUE(ledger.mint(a, 41).is_ok());
  EXPECT_EQ(ledger.balance(a), 42u);
  EXPECT_EQ(ledger.total_supply(), 42u);
}

TEST(Accounts, SupplyConservedUnderTransferStorm) {
  Ledger ledger;
  util::Xoshiro256 rng(7);
  std::vector<AccountId> accounts;
  for (int i = 0; i < 20; ++i) accounts.push_back(ledger.create_account(1000));
  for (int i = 0; i < 10'000; ++i) {
    const AccountId from = accounts[rng.uniform_below(accounts.size())];
    const AccountId to = accounts[rng.uniform_below(accounts.size())];
    (void)ledger.transfer(from, to, rng.uniform_below(200));
  }
  TokenAmount total = 0;
  for (AccountId a : accounts) total += ledger.balance(a);
  EXPECT_EQ(total, 20'000u);
  EXPECT_EQ(ledger.total_supply(), 20'000u);
}

}  // namespace
}  // namespace fi::ledger

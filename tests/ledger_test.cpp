#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "ledger/account.h"
#include "util/binary_io.h"
#include "util/prng.h"

namespace fi::ledger {
namespace {

/// A ledger body in `Ledger::save`'s layout: next id, supply, then
/// (id, balance) rows as given.
std::vector<std::uint8_t> ledger_body(
    AccountId next_id, TokenAmount supply,
    const std::vector<std::pair<AccountId, TokenAmount>>& rows) {
  util::BinaryWriter writer;
  writer.u64(next_id);
  writer.u64(supply);
  writer.u64(rows.size());
  for (const auto& [id, balance] : rows) {
    writer.u64(id);
    writer.u64(balance);
  }
  return writer.data();
}

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

TEST(Accounts, LoadRoundTrips) {
  Ledger ledger;
  const AccountId a = ledger.create_account(100);
  const AccountId b = ledger.create_account(0);
  const AccountId c = ledger.create_account(250);
  ASSERT_TRUE(ledger.transfer(c, b, 50).is_ok());
  ASSERT_TRUE(ledger.mint(a, 7).is_ok());
  util::BinaryWriter saved;
  ledger.save(saved);

  Ledger restored;
  restored.create_account(5);  // load replaces the contents, not merges
  util::BinaryReader reader(saved.data());
  restored.load(reader);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(restored.account_count(), 3u);
  EXPECT_EQ(restored.total_supply(), 357u);
  for (const AccountId id : {a, b, c}) {
    EXPECT_EQ(restored.balance(id), ledger.balance(id));
  }
  util::BinaryWriter again;
  restored.save(again);
  EXPECT_EQ(again.data(), saved.data());
  // Fresh ids continue where the saved ledger stopped.
  EXPECT_EQ(restored.create_account(), ledger.create_account());
}

TEST(Accounts, LoadRejectsNonCanonicalBodies) {
  {
    const auto body = ledger_body(3, 300, {{1, 100}, {2, 200}});
    Ledger ledger;
    util::BinaryReader reader(body);
    ledger.load(reader);
    ASSERT_TRUE(reader.ok()) << "the canonical body must load";
  }
  constexpr TokenAmount kMax = std::numeric_limits<TokenAmount>::max();
  const struct {
    const char* what;
    std::vector<std::uint8_t> body;
  } cases[] = {
      // The second row would replace the first: supply 300, balances 200.
      {"repeated id", ledger_body(3, 300, {{1, 100}, {1, 100}, {2, 100}})},
      {"descending ids", ledger_body(3, 300, {{2, 200}, {1, 100}})},
      {"id at next_id", ledger_body(3, 300, {{1, 100}, {3, 200}})},
      {"id zero", ledger_body(3, 300, {{0, 100}, {1, 200}})},
      {"supply disagrees", ledger_body(3, 300, {{1, 100}, {2, 150}})},
      // Wrapping arithmetic would sum these rows to exactly the supply.
      {"sum wraps", ledger_body(3, 5, {{1, kMax}, {2, 6}})},
      // Account ids run 1 .. next_id - 1 with none removed, so every one
      // has a row.
      {"gap before next_id", ledger_body(3, 100, {{1, 100}})},
      {"gap inside", ledger_body(4, 300, {{1, 100}, {3, 200}})},
      {"row past the ids", ledger_body(2, 300, {{1, 100}, {2, 200}})},
      {"next_id zero", ledger_body(0, 0, {})},
      // A huge next_id must fail on the row count, not size the balances.
      {"next_id far past the rows", ledger_body(kMax, 100, {{1, 100}})},
  };
  for (const auto& c : cases) {
    Ledger ledger;
    util::BinaryReader reader(c.body);
    ledger.load(reader);
    EXPECT_FALSE(reader.ok()) << c.what;
  }
}

}  // namespace
}  // namespace fi::ledger

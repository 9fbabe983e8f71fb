#pragma once

#include <cstdint>
#include <vector>

#include "util/binary_io.h"
#include "util/status.h"
#include "util/types.h"

/// Token accounts and transfers — the balance layer of the blockchain
/// substrate. The FileInsurer protocol uses ordinary accounts for clients
/// and providers plus *system* accounts for the deposit escrow, the
/// compensation pool, the rent pool and the gas sink; total supply is
/// invariant (burning moves tokens to the sink account), which lets tests
/// assert exact money conservation after arbitrary scenarios.
namespace fi::ledger {

class Ledger {
 public:
  Ledger() = default;

  /// Creates a fresh account with the given starting balance.
  AccountId create_account(TokenAmount initial_balance = 0);

  [[nodiscard]] bool exists(AccountId account) const {
    // Ids run 1, 2, ... and are never removed; id 0 wraps past the end.
    return account - 1 < balances_.size();
  }
  [[nodiscard]] TokenAmount balance(AccountId account) const {
    return exists(account) ? balances_[account - 1] : 0;
  }

  /// Moves `amount` from one account to another; fails (without side
  /// effects) on unknown accounts or insufficient balance.
  util::Status transfer(AccountId from, AccountId to, TokenAmount amount);

  /// Sum of all balances. Constant across transfers; grows only via
  /// `create_account`/`mint`.
  [[nodiscard]] TokenAmount total_supply() const { return total_supply_; }

  /// Mints tokens into an existing account (genesis allocations, faucets).
  util::Status mint(AccountId account, TokenAmount amount);

  [[nodiscard]] std::size_t account_count() const { return balances_.size(); }

  /// Canonical snapshot encoding (accounts sorted by id) / full-state
  /// restore — see `src/snapshot`. `load` replaces the ledger's entire
  /// contents with the serialized state.
  void save(util::BinaryWriter& writer) const;
  void load(util::BinaryReader& reader);

 private:
  /// Balance of account `id` at index `id - 1`.
  std::vector<TokenAmount> balances_;
  AccountId next_id_ = 1;
  TokenAmount total_supply_ = 0;
};

}  // namespace fi::ledger

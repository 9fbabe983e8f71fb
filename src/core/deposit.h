#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "core/types.h"
#include "ledger/account.h"
#include "util/binary_io.h"
#include "util/status.h"

/// Deposit escrow and the insurance compensation pool (§IV-B).
///
/// A sector's deposit is locked in the escrow account at registration.
/// Punishments move basis-point slices into the compensation pool;
/// corruption confiscates the remainder; a safe exit refunds it. File-loss
/// compensation is paid from the pool — if momentarily short (Theorem 4
/// bounds the probability), the shortfall is recorded as a FIFO liability
/// and settled from later confiscations.
namespace fi::core {

class DepositBook {
 public:
  DepositBook(ledger::Ledger& ledger, AccountId escrow_account,
              AccountId pool_account)
      : ledger_(ledger), escrow_(escrow_account), pool_(pool_account) {}

  /// Locks `amount` from `owner` into escrow for the sector.
  util::Status pledge(SectorId sector, ProviderId owner, TokenAmount amount);

  /// Remaining (un-slashed) deposit of a sector.
  [[nodiscard]] TokenAmount remaining(SectorId sector) const;

  /// Moves `bp` basis points of the remaining deposit into the pool;
  /// returns the amount slashed. Settles liabilities afterwards.
  TokenAmount punish(SectorId sector, std::uint32_t bp);

  /// Moves the whole remaining deposit into the pool; returns the amount.
  TokenAmount confiscate(SectorId sector);

  /// Refunds the remaining deposit to the sector's owner (safe exit).
  TokenAmount refund(SectorId sector);

  /// Pays `amount` to `client` from the pool; pays what the pool holds and
  /// records the rest as a liability. Returns the amount paid now.
  TokenAmount compensate(ClientId client, TokenAmount amount);

  [[nodiscard]] TokenAmount pool_balance() const {
    return ledger_.balance(pool_);
  }
  [[nodiscard]] TokenAmount escrow_balance() const {
    return ledger_.balance(escrow_);
  }
  [[nodiscard]] TokenAmount outstanding_liabilities() const {
    return total_liabilities_;
  }
  [[nodiscard]] TokenAmount total_confiscated() const {
    return total_confiscated_;
  }
  [[nodiscard]] TokenAmount total_compensated() const {
    return total_compensated_;
  }

  /// Canonical snapshot encoding (deposits sorted by sector, liabilities
  /// in FIFO order) / full-state restore — see `src/snapshot`. Balances
  /// themselves live in the ledger, restored separately.
  void save(util::BinaryWriter& writer) const;
  void load(util::BinaryReader& reader);

 private:
  /// Pays queued liabilities from the pool, FIFO.
  void settle();

  struct Deposit {
    ProviderId owner = kNoAccount;
    TokenAmount remaining = 0;
  };
  struct Liability {
    ClientId client = kNoAccount;
    TokenAmount amount = 0;
  };

  // fi-lint: not-serialized(external ledger wired at construction)
  ledger::Ledger& ledger_;
  // fi-lint: not-serialized(fixed at construction; a freshly built
  // network recreates the identical escrow account)
  AccountId escrow_;
  // fi-lint: not-serialized(fixed at construction, like escrow_)
  AccountId pool_;
  std::unordered_map<SectorId, Deposit> deposits_;
  std::deque<Liability> liabilities_;
  TokenAmount total_liabilities_ = 0;
  TokenAmount total_confiscated_ = 0;
  TokenAmount total_compensated_ = 0;
};

}  // namespace fi::core

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/sector.h"
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
/// and settled from later confiscations. Every sector not yet removed has a
/// deposit, owned by the sector's owner, which the book reads, not stores.
/// The book is the one record of what the insurance paid:
/// `total_compensated` counts both payouts at loss time and later
/// settlements, and `Network::stats()` reports it.
namespace fi::core {

class DepositBook {
 public:
  /// `sectors` must outlive the book.
  DepositBook(ledger::Ledger& ledger, AccountId escrow_account,
              AccountId pool_account, const SectorTable& sectors)
      : ledger_(ledger),
        escrow_(escrow_account),
        pool_(pool_account),
        sectors_(sectors) {}

  /// Locks `amount` from the sector's owner into escrow for the sector.
  /// Sectors pledge in id order, each once.
  util::Status pledge(SectorId sector, TokenAmount amount);

  /// Remaining (un-slashed) deposit of a sector; 0 once it is removed or
  /// when it never pledged.
  [[nodiscard]] TokenAmount remaining(SectorId sector) const {
    return sector < deposits_.size() ? deposits_[sector] : 0;
  }

  /// Moves `bp` basis points of the remaining deposit into the pool;
  /// returns the amount slashed. Settles liabilities afterwards.
  TokenAmount punish(SectorId sector, std::uint32_t bp);

  /// Moves the whole remaining deposit into the pool; returns the amount.
  /// For a removed sector it does nothing and returns 0.
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
  [[nodiscard]] TokenAmount outstanding_liabilities() const;
  [[nodiscard]] TokenAmount total_confiscated() const {
    return total_confiscated_;
  }
  /// Everything paid to clients: at loss time and by later settlements.
  [[nodiscard]] TokenAmount total_compensated() const {
    return total_compensated_;
  }

  /// Canonical snapshot encoding (one row per sector not removed, in id
  /// order, with its owner; liabilities in FIFO order, then their sum) /
  /// full-state restore — see `src/snapshot`. Balances live in the ledger,
  /// restored separately.
  /// `load` follows the sector table's and fails the reader on what `save`
  /// cannot produce: rows out of sector order, not one per sector not
  /// removed, or with another owner; a zero liability; a wrong sum.
  void save(util::BinaryWriter& writer) const;
  void load(util::BinaryReader& reader);

 private:
  /// Pays queued liabilities from the pool, FIFO.
  void settle();
  /// Sectors the table has not removed: the rows `save` writes.
  [[nodiscard]] std::uint64_t live_sectors() const;

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
  // fi-lint: not-serialized(reference to the engine's sector table, which
  // snapshots itself)
  const SectorTable& sectors_;
  /// Remaining (un-slashed) deposit, indexed by sector id; a removed
  /// sector's entry is 0.
  std::vector<TokenAmount> deposits_;
  std::deque<Liability> liabilities_;
  TokenAmount total_confiscated_ = 0;
  TokenAmount total_compensated_ = 0;
};

}  // namespace fi::core

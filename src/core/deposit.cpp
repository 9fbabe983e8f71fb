#include "core/deposit.h"

#include <algorithm>

#include "util/check.h"
#include "util/checked.h"

namespace fi::core {

util::Status DepositBook::pledge(SectorId sector, TokenAmount amount) {
  FI_CHECK_MSG(sector >= deposits_.size(),
               "sectors pledge once, in id order");
  const ProviderId owner = sectors_.owner(sector);
  if (auto status = ledger_.transfer(owner, escrow_, amount); !status.is_ok()) {
    return status;
  }
  deposits_.resize(sector + 1, 0);
  deposits_[sector] = amount;
  return util::Status::ok();
}

TokenAmount DepositBook::punish(SectorId sector, std::uint32_t bp) {
  FI_CHECK_MSG(bp <= 10'000, "punishment above 100%");
  if (remaining(sector) == 0) return 0;
  TokenAmount& deposit = deposits_[sector];
  const TokenAmount slashed = util::checked_mul_div(deposit, bp, 10'000);
  if (slashed == 0) return 0;
  FI_CHECK(ledger_.transfer(escrow_, pool_, slashed).is_ok());
  deposit -= slashed;
  settle();
  return slashed;
}

TokenAmount DepositBook::confiscate(SectorId sector) {
  if (sector >= deposits_.size() ||
      sectors_.state(sector) == SectorState::removed) {
    return 0;
  }
  const TokenAmount amount = deposits_[sector];
  if (amount > 0) {
    FI_CHECK(ledger_.transfer(escrow_, pool_, amount).is_ok());
    deposits_[sector] = 0;
  }
  total_confiscated_ = util::checked_add(total_confiscated_, amount);
  settle();
  return amount;
}

TokenAmount DepositBook::refund(SectorId sector) {
  const TokenAmount amount = remaining(sector);
  if (amount > 0) {
    FI_CHECK(
        ledger_.transfer(escrow_, sectors_.owner(sector), amount).is_ok());
    deposits_[sector] = 0;
  }
  return amount;
}

TokenAmount DepositBook::compensate(ClientId client, TokenAmount amount) {
  const TokenAmount available = ledger_.balance(pool_);
  const TokenAmount now_paid = std::min(amount, available);
  if (now_paid > 0) {
    FI_CHECK(ledger_.transfer(pool_, client, now_paid).is_ok());
  }
  total_compensated_ = util::checked_add(total_compensated_, now_paid);
  if (now_paid < amount) {
    liabilities_.push_back(Liability{client, amount - now_paid});
  }
  return now_paid;
}

TokenAmount DepositBook::outstanding_liabilities() const {
  TokenAmount total = 0;
  for (const Liability& l : liabilities_) {
    total = util::checked_add(total, l.amount);
  }
  return total;
}

void DepositBook::settle() {
  while (!liabilities_.empty()) {
    const TokenAmount available = ledger_.balance(pool_);
    if (available == 0) return;
    Liability& front = liabilities_.front();
    const TokenAmount pay = std::min(front.amount, available);
    FI_CHECK(ledger_.transfer(pool_, front.client, pay).is_ok());
    front.amount -= pay;
    total_compensated_ = util::checked_add(total_compensated_, pay);
    if (front.amount == 0) liabilities_.pop_front();
  }
}

std::uint64_t DepositBook::live_sectors() const {
  std::uint64_t live = 0;
  for (SectorId id = 0; id < sectors_.count(); ++id) {
    live += sectors_.state(id) != SectorState::removed;
  }
  return live;
}

void DepositBook::save(util::BinaryWriter& writer) const {
  // Every registered sector pledged, so each one not removed has a row.
  FI_CHECK_MSG(deposits_.size() == sectors_.count(), "unpledged sector");
  writer.u64(live_sectors());
  for (SectorId id = 0; id < deposits_.size(); ++id) {
    if (sectors_.state(id) == SectorState::removed) continue;
    writer.u64(id);
    writer.u64(sectors_.owner(id));
    writer.u64(deposits_[id]);
  }
  writer.u64(liabilities_.size());
  for (const Liability& l : liabilities_) {
    writer.u64(l.client);
    writer.u64(l.amount);
  }
  writer.u64(outstanding_liabilities());
  writer.u64(total_confiscated_);
  writer.u64(total_compensated_);
}

void DepositBook::load(util::BinaryReader& reader) {
  deposits_.assign(sectors_.count(), 0);
  liabilities_.clear();
  const std::uint64_t n = reader.count(24);
  SectorId last = 0;
  for (std::uint64_t i = 0; i < n && reader.ok(); ++i) {
    const SectorId sector = reader.u64();
    const ProviderId owner = reader.u64();
    const TokenAmount remaining = reader.u64();
    // Rows ascend by sector, and each names a registered, unremoved sector
    // and that sector's owner.
    if ((i > 0 && sector <= last) || !sectors_.exists(sector) ||
        sectors_.state(sector) == SectorState::removed ||
        owner != sectors_.owner(sector)) {
      reader.fail();
      break;
    }
    deposits_[sector] = remaining;
    last = sector;
  }
  // Each row names a distinct live sector, so equal counts leave no live
  // sector without its deposit.
  if (n != live_sectors()) reader.fail();

  const std::uint64_t liabilities = reader.count(16);
  TokenAmount total = 0;
  for (std::uint64_t i = 0; i < liabilities && reader.ok(); ++i) {
    Liability l;
    l.client = reader.u64();
    l.amount = reader.u64();
    // `settle` pops a liability the moment it reaches zero.
    if (l.amount == 0 || l.amount > ~TokenAmount{0} - total) {
      reader.fail();
      break;
    }
    total += l.amount;
    liabilities_.push_back(l);
  }
  if (reader.u64() != total) reader.fail();
  total_confiscated_ = reader.u64();
  total_compensated_ = reader.u64();
}

}  // namespace fi::core

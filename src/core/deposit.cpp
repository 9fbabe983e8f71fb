#include "core/deposit.h"

#include <algorithm>
#include <vector>

#include "util/check.h"
#include "util/checked.h"

namespace fi::core {

util::Status DepositBook::pledge(SectorId sector, ProviderId owner,
                                 TokenAmount amount) {
  FI_CHECK_MSG(!deposits_.contains(sector), "sector already has a deposit");
  if (auto status = ledger_.transfer(owner, escrow_, amount); !status.is_ok()) {
    return status;
  }
  deposits_.emplace(sector, Deposit{owner, amount});
  return util::Status::ok();
}

TokenAmount DepositBook::remaining(SectorId sector) const {
  const auto it = deposits_.find(sector);
  return it == deposits_.end() ? 0 : it->second.remaining;
}

TokenAmount DepositBook::punish(SectorId sector, std::uint32_t bp) {
  FI_CHECK_MSG(bp <= 10'000, "punishment above 100%");
  const auto it = deposits_.find(sector);
  if (it == deposits_.end() || it->second.remaining == 0) return 0;
  const TokenAmount slashed =
      util::checked_mul_div(it->second.remaining, bp, 10'000);
  if (slashed == 0) return 0;
  FI_CHECK(ledger_.transfer(escrow_, pool_, slashed).is_ok());
  it->second.remaining -= slashed;
  settle();
  return slashed;
}

TokenAmount DepositBook::confiscate(SectorId sector) {
  const auto it = deposits_.find(sector);
  if (it == deposits_.end()) return 0;
  const TokenAmount amount = it->second.remaining;
  if (amount > 0) {
    FI_CHECK(ledger_.transfer(escrow_, pool_, amount).is_ok());
    it->second.remaining = 0;
  }
  total_confiscated_ = util::checked_add(total_confiscated_, amount);
  settle();
  return amount;
}

TokenAmount DepositBook::refund(SectorId sector) {
  const auto it = deposits_.find(sector);
  if (it == deposits_.end()) return 0;
  const TokenAmount amount = it->second.remaining;
  if (amount > 0) {
    FI_CHECK(ledger_.transfer(escrow_, it->second.owner, amount).is_ok());
  }
  deposits_.erase(it);
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
    const TokenAmount shortfall = amount - now_paid;
    liabilities_.push_back(Liability{client, shortfall});
    total_liabilities_ = util::checked_add(total_liabilities_, shortfall);
  }
  return now_paid;
}

void DepositBook::settle() {
  while (!liabilities_.empty()) {
    const TokenAmount available = ledger_.balance(pool_);
    if (available == 0) return;
    Liability& front = liabilities_.front();
    const TokenAmount pay = std::min(front.amount, available);
    FI_CHECK(ledger_.transfer(pool_, front.client, pay).is_ok());
    front.amount -= pay;
    total_liabilities_ -= pay;
    total_compensated_ = util::checked_add(total_compensated_, pay);
    if (front.amount == 0) liabilities_.pop_front();
  }
}

void DepositBook::save(util::BinaryWriter& writer) const {
  std::vector<SectorId> sectors;
  sectors.reserve(deposits_.size());
  // fi-lint: allow(unordered-iter, keys collected then sorted before encoding)
  for (const auto& [sector, _] : deposits_) sectors.push_back(sector);
  std::sort(sectors.begin(), sectors.end());
  writer.u64(sectors.size());
  for (const SectorId sector : sectors) {
    const Deposit& d = deposits_.at(sector);
    writer.u64(sector);
    writer.u64(d.owner);
    writer.u64(d.remaining);
  }
  writer.u64(liabilities_.size());
  for (const Liability& l : liabilities_) {
    writer.u64(l.client);
    writer.u64(l.amount);
  }
  writer.u64(total_liabilities_);
  writer.u64(total_confiscated_);
  writer.u64(total_compensated_);
}

void DepositBook::load(util::BinaryReader& reader) {
  deposits_.clear();
  liabilities_.clear();
  const std::uint64_t n = reader.count(24);
  deposits_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const SectorId sector = reader.u64();
    Deposit d;
    d.owner = reader.u64();
    d.remaining = reader.u64();
    deposits_.emplace(sector, d);
  }
  const std::uint64_t liabilities = reader.count(16);
  for (std::uint64_t i = 0; i < liabilities; ++i) {
    Liability l;
    l.client = reader.u64();
    l.amount = reader.u64();
    liabilities_.push_back(l);
  }
  total_liabilities_ = reader.u64();
  total_confiscated_ = reader.u64();
  total_compensated_ = reader.u64();
}

}  // namespace fi::core

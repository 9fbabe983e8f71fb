#include "ledger/account.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/checked.h"

namespace fi::ledger {

AccountId Ledger::create_account(TokenAmount initial_balance) {
  const AccountId id = next_id_++;
  balances_.emplace(id, initial_balance);
  total_supply_ = util::checked_add(total_supply_, initial_balance);
  return id;
}

bool Ledger::exists(AccountId account) const {
  return balances_.contains(account);
}

TokenAmount Ledger::balance(AccountId account) const {
  const auto it = balances_.find(account);
  return it == balances_.end() ? 0 : it->second;
}

util::Status Ledger::transfer(AccountId from, AccountId to,
                              TokenAmount amount) {
  const auto from_it = balances_.find(from);
  if (from_it == balances_.end()) {
    return util::err(util::ErrorCode::not_found, "unknown sender account");
  }
  const auto to_it = balances_.find(to);
  if (to_it == balances_.end()) {
    return util::err(util::ErrorCode::not_found, "unknown recipient account");
  }
  if (from_it->second < amount) {
    return util::err(util::ErrorCode::insufficient_funds,
                     "balance below transfer amount");
  }
  from_it->second -= amount;
  to_it->second = util::checked_add(to_it->second, amount);
  return util::Status::ok();
}

util::Status Ledger::mint(AccountId account, TokenAmount amount) {
  const auto it = balances_.find(account);
  if (it == balances_.end()) {
    return util::err(util::ErrorCode::not_found, "unknown account");
  }
  it->second = util::checked_add(it->second, amount);
  total_supply_ = util::checked_add(total_supply_, amount);
  return util::Status::ok();
}

void Ledger::save(util::BinaryWriter& writer) const {
  writer.u64(next_id_);
  writer.u64(total_supply_);
  // fi-lint: allow(unordered-iter, keys collected then sorted before encoding)
  std::vector<std::pair<AccountId, TokenAmount>> rows(balances_.begin(),
                                                      balances_.end());
  std::sort(rows.begin(), rows.end());
  writer.u64(rows.size());
  for (const auto& [id, balance] : rows) {
    writer.u64(id);
    writer.u64(balance);
  }
}

void Ledger::load(util::BinaryReader& reader) {
  next_id_ = reader.u64();
  total_supply_ = reader.u64();
  balances_.clear();
  const std::uint64_t n = reader.count(16);
  balances_.reserve(n);
  // save() writes strictly ascending ids in [1, next_id_) whose balances
  // sum to total_supply_; reject any other body rather than merge rows or
  // restore a ledger that breaks money conservation.
  AccountId prev = 0;
  TokenAmount sum = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const AccountId id = reader.u64();
    const TokenAmount balance = reader.u64();
    // Stopping once the rows exceed the supply also keeps the sum from
    // wrapping.
    if (id <= prev || id >= next_id_ || balance > total_supply_ - sum) {
      reader.fail();
      return;
    }
    balances_.emplace(id, balance);
    prev = id;
    sum += balance;
  }
  if (sum != total_supply_) reader.fail();
}

}  // namespace fi::ledger

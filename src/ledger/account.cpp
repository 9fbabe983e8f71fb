#include "ledger/account.h"

#include "util/checked.h"

namespace fi::ledger {

AccountId Ledger::create_account(TokenAmount initial_balance) {
  const AccountId id = next_id_++;
  balances_.push_back(initial_balance);
  total_supply_ = util::checked_add(total_supply_, initial_balance);
  return id;
}

util::Status Ledger::transfer(AccountId from, AccountId to,
                              TokenAmount amount) {
  if (!exists(from)) {
    return util::err(util::ErrorCode::not_found, "unknown sender account");
  }
  if (!exists(to)) {
    return util::err(util::ErrorCode::not_found, "unknown recipient account");
  }
  TokenAmount& from_balance = balances_[from - 1];
  if (from_balance < amount) {
    return util::err(util::ErrorCode::insufficient_funds,
                     "balance below transfer amount");
  }
  from_balance -= amount;
  TokenAmount& to_balance = balances_[to - 1];
  to_balance = util::checked_add(to_balance, amount);
  return util::Status::ok();
}

util::Status Ledger::mint(AccountId account, TokenAmount amount) {
  if (!exists(account)) {
    return util::err(util::ErrorCode::not_found, "unknown account");
  }
  TokenAmount& balance = balances_[account - 1];
  balance = util::checked_add(balance, amount);
  total_supply_ = util::checked_add(total_supply_, amount);
  return util::Status::ok();
}

void Ledger::save(util::BinaryWriter& writer) const {
  writer.u64(next_id_);
  writer.u64(total_supply_);
  writer.u64(balances_.size());
  for (std::size_t i = 0; i < balances_.size(); ++i) {
    writer.u64(i + 1);
    writer.u64(balances_[i]);
  }
}

void Ledger::load(util::BinaryReader& reader) {
  next_id_ = reader.u64();
  total_supply_ = reader.u64();
  balances_.clear();
  const std::uint64_t n = reader.count(16);
  // save() writes exactly the ids 1 .. next_id_ - 1, ascending, whose
  // balances sum to total_supply_; reject any other body rather than
  // restore a ledger with gaps or one that breaks money conservation. The
  // row count is bounded by the body, so next_id_ never sizes anything.
  if (next_id_ == 0 || n != next_id_ - 1) {
    reader.fail();
    return;
  }
  balances_.reserve(n);
  TokenAmount sum = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const AccountId id = reader.u64();
    const TokenAmount balance = reader.u64();
    // Stopping once the rows exceed the supply also keeps the sum from
    // wrapping.
    if (id != i + 1 || balance > total_supply_ - sum) {
      reader.fail();
      return;
    }
    balances_.push_back(balance);
    sum += balance;
  }
  if (sum != total_supply_) reader.fail();
}

}  // namespace fi::ledger

#include "core/retrieval_market.h"

#include <algorithm>
#include <utility>

#include "util/checked.h"

namespace fi::core {

TokenAmount RetrievalMarket::quote(ProviderId provider,
                                   ByteCount bytes) const {
  return util::checked_mul(ask_of(provider), (bytes + 1023) / 1024);
}

util::Status RetrievalMarket::settle_to(ClientId client, ProviderId seller,
                                        AccountId payee, ByteCount bytes,
                                        TokenAmount price) {
  if (auto status = ledger_.transfer(client, payee, price); !status.is_ok()) {
    return status;
  }
  served_[seller] = util::checked_add(served_[seller], bytes);
  revenue_[seller] = util::checked_add(revenue_[seller], price);
  ++settled_;
  total_bytes_ = util::checked_add(total_bytes_, bytes);
  total_revenue_ = util::checked_add(total_revenue_, price);
  return util::Status::ok();
}

ByteCount RetrievalMarket::bytes_served(ProviderId provider) const {
  const auto it = served_.find(provider);
  return it == served_.end() ? 0 : it->second;
}

TokenAmount RetrievalMarket::revenue(ProviderId provider) const {
  const auto it = revenue_.find(provider);
  return it == revenue_.end() ? 0 : it->second;
}

namespace {

/// Unordered books are encoded sorted by key: nothing iterates them at
/// runtime, so their in-memory order is not state.
void save_sorted_map(const std::unordered_map<ProviderId, std::uint64_t>& map,
                     util::BinaryWriter& writer) {
  std::vector<std::pair<ProviderId, std::uint64_t>> entries(
      // fi-lint: allow(unordered-iter, entries collected then sorted before
      // encoding)
      map.begin(), map.end());
  std::sort(entries.begin(), entries.end());
  writer.u64(entries.size());
  for (const auto& [key, value] : entries) {
    writer.u64(key);
    writer.u64(value);
  }
}

void load_sorted_map(std::unordered_map<ProviderId, std::uint64_t>& map,
                     util::BinaryReader& reader) {
  map.clear();
  const std::uint64_t n = reader.count(16);
  map.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const ProviderId key = reader.u64();
    map[key] = reader.u64();
  }
}

}  // namespace

void RetrievalMarket::save_state(util::BinaryWriter& writer) const {
  save_sorted_map(asks_, writer);
  save_sorted_map(served_, writer);
  save_sorted_map(revenue_, writer);
  writer.u64(settled_);
  writer.u64(total_bytes_);
  writer.u64(total_revenue_);
}

void RetrievalMarket::load_state(util::BinaryReader& reader) {
  load_sorted_map(asks_, reader);
  load_sorted_map(served_, reader);
  load_sorted_map(revenue_, reader);
  settled_ = reader.u64();
  total_bytes_ = reader.u64();
  total_revenue_ = reader.u64();
}

}  // namespace fi::core

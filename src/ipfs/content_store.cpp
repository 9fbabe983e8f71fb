#include "ipfs/content_store.h"

namespace fi::ipfs {

ContentStore::PutResult ContentStore::put(Codec codec,
                                          std::span<const std::uint8_t> data) {
  const Cid cid = make_cid(codec, data);
  const auto [it, inserted] = blocks_.try_emplace(cid);
  if (inserted) {
    it->second.assign(data.begin(), data.end());
    total_bytes_ += data.size();
  }
  return {cid, inserted};
}

bool ContentStore::has(const Cid& cid) const { return blocks_.contains(cid); }

std::optional<std::vector<std::uint8_t>> ContentStore::get(
    const Cid& cid) const {
  const auto it = blocks_.find(cid);
  if (it == blocks_.end()) return std::nullopt;
  return it->second;
}

bool ContentStore::remove(const Cid& cid) {
  const auto it = blocks_.find(cid);
  if (it == blocks_.end()) return false;
  total_bytes_ -= it->second.size();
  blocks_.erase(it);
  return true;
}

}  // namespace fi::ipfs

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ipfs/cid.h"

/// Per-node content-addressed block store. Blocks are immutable; a put of
/// existing content is a no-op (content addressing de-duplicates).
namespace fi::ipfs {

class ContentStore {
 public:
  struct PutResult {
    Cid cid;
    /// False when the block was already stored (nothing was copied).
    bool inserted = false;
  };

  /// Stores a block under its content id. Hashes `data` once and copies
  /// it only when the block is new, so a put doubles as the membership
  /// test; keep the returned CID to `remove` the block without rehashing.
  PutResult put(Codec codec, std::span<const std::uint8_t> data);

  [[nodiscard]] bool has(const Cid& cid) const;
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(
      const Cid& cid) const;

  /// Drops a block; returns false if absent.
  bool remove(const Cid& cid);

  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  std::unordered_map<Cid, std::vector<std::uint8_t>, CidHasher> blocks_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace fi::ipfs

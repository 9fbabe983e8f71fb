#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>

#include "crypto/sha256.h"

/// `Hash256` — the 32-byte value type used for file Merkle roots, plus
/// domain-separated hashes so distinct uses can never collide structurally.
namespace fi::crypto {

struct Hash256 {
  std::array<std::uint8_t, 32> bytes{};

  auto operator<=>(const Hash256&) const = default;

  [[nodiscard]] std::string hex() const;
};

/// Hash arbitrary bytes with a domain-separation tag.
Hash256 hash_bytes(std::string_view domain, std::span<const std::uint8_t> data);

/// Hash the concatenation of two hashes (Merkle interior nodes).
Hash256 hash_pair(std::string_view domain, const Hash256& left,
                  const Hash256& right);

}  // namespace fi::crypto

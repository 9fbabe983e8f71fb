#include "crypto/hash.h"

#include "util/hex.h"

namespace fi::crypto {

namespace {

Hash256 digest_to_hash(const Digest& d) {
  Hash256 h;
  h.bytes = d;
  return h;
}

Sha256 tagged_hasher(std::string_view domain) {
  Sha256 hasher;
  hasher.update({reinterpret_cast<const std::uint8_t*>(domain.data()),
                 domain.size()});
  const std::uint8_t separator = 0x1f;
  hasher.update({&separator, 1});
  return hasher;
}

}  // namespace

std::string Hash256::hex() const { return util::to_hex(bytes); }

Hash256 hash_bytes(std::string_view domain,
                   std::span<const std::uint8_t> data) {
  Sha256 hasher = tagged_hasher(domain);
  hasher.update(data);
  return digest_to_hash(hasher.finalize());
}

Hash256 hash_pair(std::string_view domain, const Hash256& left,
                  const Hash256& right) {
  Sha256 hasher = tagged_hasher(domain);
  hasher.update(left.bytes);
  hasher.update(right.bytes);
  return digest_to_hash(hasher.finalize());
}

}  // namespace fi::crypto

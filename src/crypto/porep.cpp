#include "crypto/porep.h"

#include <cstring>

#include "util/check.h"

namespace fi::crypto {

namespace {

constexpr std::string_view kKeyDomain = "fi/porep/key";
constexpr std::string_view kIvDomain = "fi/porep/iv";
constexpr std::string_view kPadDomain = "fi/porep/pad";
constexpr std::string_view kChalDomain = "fi/porep/chal";

std::size_t block_count(std::size_t size) {
  return size == 0 ? 1 : (size + kMerkleBlockSize - 1) / kMerkleBlockSize;
}

/// The pad for block `i` given the digest of the previous *sealed* block.
/// `work` extra hash iterations emulate sealing slowness.
Hash256 block_pad(const Hash256& key, std::uint64_t index,
                  const Hash256& prev_digest, std::uint32_t work) {
  Hash256 pad = hash_with_u64s(kPadDomain, key, {index, prev_digest.prefix_u64()});
  // Chain in the full previous digest, then iterate.
  pad = hash_pair(kPadDomain, pad, prev_digest);
  for (std::uint32_t i = 0; i < work; ++i) {
    pad = hash_with_u64s(kPadDomain, pad, {i});
  }
  return pad;
}

void xor_with_pad(std::uint8_t* block, std::size_t len, const Hash256& pad) {
  // Expand the 32-byte pad to the 64-byte block by hashing a counter.
  const Hash256 pad2 = hash_with_u64s(kPadDomain, pad, {0xfeed});
  for (std::size_t i = 0; i < len; ++i) {
    block[i] ^= (i < 32) ? pad.bytes[i] : pad2.bytes[i - 32];
  }
}

Hash256 initial_vector(const Hash256& key) {
  return hash_pair(kIvDomain, key, key);
}

Hash256 digest_of_block(std::span<const std::uint8_t> block) {
  return hash_bytes("fi/porep/blk", block);
}

std::span<const std::uint8_t> block_span(std::span<const std::uint8_t> data,
                                         std::size_t i) {
  const std::size_t off = i * kMerkleBlockSize;
  if (off >= data.size()) return {};
  const std::size_t len = std::min(kMerkleBlockSize, data.size() - off);
  return data.subspan(off, len);
}

std::vector<std::uint64_t> derive_challenges(const Hash256& key,
                                             const Hash256& comm_d,
                                             const Hash256& comm_r,
                                             std::uint32_t count,
                                             std::uint64_t leaves) {
  std::vector<std::uint64_t> out;
  out.reserve(count);
  Hash256 state = hash_pair(kChalDomain, comm_d, comm_r);
  state = hash_pair(kChalDomain, state, key);
  for (std::uint32_t t = 0; t < count; ++t) {
    state = hash_with_u64s(kChalDomain, state, {t});
    out.push_back(state.prefix_u64() % leaves);
  }
  return out;
}

}  // namespace

Hash256 derive_seal_key(const ReplicaId& id) {
  return hash_u64s(kKeyDomain, {id.provider, id.sector, id.nonce});
}

std::vector<std::uint8_t> seal(std::span<const std::uint8_t> raw,
                               const ReplicaId& id, const SealParams& params) {
  const Hash256 key = derive_seal_key(id);
  std::vector<std::uint8_t> sealed(raw.begin(), raw.end());
  const std::size_t n = block_count(raw.size());
  Hash256 prev = initial_vector(key);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t off = i * kMerkleBlockSize;
    const std::size_t len = std::min(kMerkleBlockSize, sealed.size() - off);
    const Hash256 pad = block_pad(key, i, prev, params.work);
    if (len > 0) xor_with_pad(sealed.data() + off, len, pad);
    prev = digest_of_block(block_span(sealed, i));
  }
  return sealed;
}

std::vector<std::uint8_t> unseal(std::span<const std::uint8_t> sealed,
                                 const ReplicaId& id,
                                 const SealParams& params) {
  const Hash256 key = derive_seal_key(id);
  std::vector<std::uint8_t> raw(sealed.begin(), sealed.end());
  const std::size_t n = block_count(sealed.size());
  // All pads derive from *sealed* neighbours, so inversion needs no chain.
  for (std::size_t i = 0; i < n; ++i) {
    const Hash256 prev = (i == 0) ? initial_vector(key)
                                  : digest_of_block(block_span(sealed, i - 1));
    const std::size_t off = i * kMerkleBlockSize;
    const std::size_t len = std::min(kMerkleBlockSize, raw.size() - off);
    const Hash256 pad = block_pad(key, i, prev, params.work);
    if (len > 0) xor_with_pad(raw.data() + off, len, pad);
  }
  return raw;
}

Hash256 replica_commitment(std::span<const std::uint8_t> sealed) {
  return merkle_root_of_data(sealed);
}

SealProof prove_seal(std::span<const std::uint8_t> raw,
                     std::span<const std::uint8_t> sealed, const ReplicaId& id,
                     const SealParams& params) {
  FI_CHECK(raw.size() == sealed.size());
  const MerkleTree raw_tree = MerkleTree::over_data(raw);
  const MerkleTree sealed_tree = MerkleTree::over_data(sealed);
  SealProof proof;
  proof.id = id;
  proof.comm_d = raw_tree.root();
  proof.comm_r = sealed_tree.root();
  const Hash256 key = derive_seal_key(id);
  const auto challenges =
      derive_challenges(key, proof.comm_d, proof.comm_r, params.challenges,
                        sealed_tree.leaf_count());
  for (std::uint64_t idx : challenges) {
    SealChallengeOpening opening;
    opening.index = idx;
    const auto raw_blk = block_span(raw, idx);
    const auto sealed_blk = block_span(sealed, idx);
    opening.raw_block.assign(raw_blk.begin(), raw_blk.end());
    opening.sealed_block.assign(sealed_blk.begin(), sealed_blk.end());
    opening.raw_proof = raw_tree.prove(idx);
    opening.sealed_proof = sealed_tree.prove(idx);
    if (idx > 0) {
      const auto prev_blk = block_span(sealed, idx - 1);
      opening.prev_sealed_block.assign(prev_blk.begin(), prev_blk.end());
      opening.prev_sealed_proof = sealed_tree.prove(idx - 1);
    }
    proof.openings.push_back(std::move(opening));
  }
  return proof;
}

bool verify_seal(const SealProof& proof, const SealParams& params) {
  if (proof.openings.size() != params.challenges) return false;
  const Hash256 key = derive_seal_key(proof.id);
  if (proof.openings.empty()) return true;
  const std::uint64_t leaves = proof.openings.front().sealed_proof.leaf_count;
  const auto expected =
      derive_challenges(key, proof.comm_d, proof.comm_r,
                        params.challenges, leaves);
  for (std::size_t t = 0; t < expected.size(); ++t) {
    const SealChallengeOpening& op = proof.openings[t];
    if (op.index != expected[t]) return false;
    // Merkle membership of all three blocks.
    if (!merkle_verify(proof.comm_d, merkle_leaf_hash(op.raw_block),
                       op.raw_proof) ||
        op.raw_proof.leaf_index != op.index) {
      return false;
    }
    if (!merkle_verify(proof.comm_r, merkle_leaf_hash(op.sealed_block),
                       op.sealed_proof) ||
        op.sealed_proof.leaf_index != op.index) {
      return false;
    }
    Hash256 prev;
    if (op.index == 0) {
      prev = initial_vector(key);
    } else {
      if (!merkle_verify(proof.comm_r, merkle_leaf_hash(op.prev_sealed_block),
                         op.prev_sealed_proof) ||
          op.prev_sealed_proof.leaf_index != op.index - 1) {
        return false;
      }
      prev = digest_of_block(op.prev_sealed_block);
    }
    // Re-check the sealing relation sealed = raw XOR pad.
    if (op.raw_block.size() != op.sealed_block.size()) return false;
    std::vector<std::uint8_t> recomputed = op.raw_block;
    const Hash256 pad = block_pad(key, op.index, prev, params.work);
    xor_with_pad(recomputed.data(), recomputed.size(), pad);
    if (recomputed != op.sealed_block) return false;
  }
  return true;
}

}  // namespace fi::crypto

#include "crypto/merkle.h"

#include <algorithm>

#include "util/check.h"

namespace fi::crypto {

namespace {
constexpr std::string_view kLeafDomain = "fi/merkle/leaf";
constexpr std::string_view kNodeDomain = "fi/merkle/node";
}  // namespace

Hash256 merkle_leaf_hash(std::span<const std::uint8_t> block) {
  return hash_bytes(kLeafDomain, block);
}

MerkleTree::MerkleTree(std::vector<Hash256> leaves)
    : leaf_count_(leaves.size()) {
  FI_CHECK_MSG(!leaves.empty(), "Merkle tree requires at least one leaf");
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const auto& prev = levels_.back();
    std::vector<Hash256> next;
    next.reserve((prev.size() + 1) / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      const Hash256& left = prev[i];
      const Hash256& right = (i + 1 < prev.size()) ? prev[i + 1] : prev[i];
      next.push_back(hash_pair(kNodeDomain, left, right));
    }
    levels_.push_back(std::move(next));
  }
}

MerkleTree MerkleTree::over_data(std::span<const std::uint8_t> data) {
  std::vector<Hash256> leaves;
  if (data.empty()) {
    leaves.push_back(merkle_leaf_hash({}));
  } else {
    leaves.reserve((data.size() + kMerkleBlockSize - 1) / kMerkleBlockSize);
    for (std::size_t off = 0; off < data.size(); off += kMerkleBlockSize) {
      const std::size_t len = std::min(kMerkleBlockSize, data.size() - off);
      leaves.push_back(merkle_leaf_hash(data.subspan(off, len)));
    }
  }
  return MerkleTree(std::move(leaves));
}

const Hash256& MerkleTree::root() const { return levels_.back().front(); }

const Hash256& MerkleTree::leaf(std::uint64_t index) const {
  FI_CHECK(index < leaf_count_);
  return levels_.front()[index];
}

MerkleProof MerkleTree::prove(std::uint64_t index) const {
  FI_CHECK(index < leaf_count_);
  MerkleProof proof;
  proof.leaf_index = index;
  proof.leaf_count = leaf_count_;
  std::uint64_t pos = index;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    const auto& nodes = levels_[level];
    const std::uint64_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
    // Odd level: the last node is paired with itself.
    const Hash256& sib_hash =
        (sibling < nodes.size()) ? nodes[sibling] : nodes[pos];
    proof.path.push_back(sib_hash);
    pos /= 2;
  }
  return proof;
}

bool merkle_verify(const Hash256& root, const Hash256& leaf_hash,
                   const MerkleProof& proof) {
  if (proof.leaf_count == 0 || proof.leaf_index >= proof.leaf_count) {
    return false;
  }
  // The path must have exactly ceil(log2(leaf_count)) entries.
  std::uint64_t width = proof.leaf_count;
  std::size_t expected_depth = 0;
  while (width > 1) {
    width = (width + 1) / 2;
    ++expected_depth;
  }
  if (proof.path.size() != expected_depth) return false;

  Hash256 acc = leaf_hash;
  std::uint64_t pos = proof.leaf_index;
  for (const Hash256& sibling : proof.path) {
    acc = (pos % 2 == 0) ? hash_pair(kNodeDomain, acc, sibling)
                         : hash_pair(kNodeDomain, sibling, acc);
    pos /= 2;
  }
  return acc == root;
}

Hash256 merkle_root_of_data(std::span<const std::uint8_t> data) {
  return MerkleTree::over_data(data).root();
}

}  // namespace fi::crypto

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/hash.h"

/// Binary Merkle trees over fixed-size data blocks.
///
/// File descriptors carry a `merkleRoot` (Fig. 1); PoRep commitments are
/// Merkle roots over sealed blocks; PoSt challenges are answered with Merkle
/// inclusion proofs. Odd levels duplicate the last node (Bitcoin style), so
/// every tree over n >= 1 leaves is well formed.
namespace fi::crypto {

/// The leaf block size, in bytes, used when hashing raw data into leaves.
inline constexpr std::size_t kMerkleBlockSize = 64;

/// A Merkle inclusion proof for one leaf.
struct MerkleProof {
  std::uint64_t leaf_index = 0;
  std::uint64_t leaf_count = 0;
  /// Sibling hashes from leaf level to the root.
  std::vector<Hash256> path;
};

/// An in-memory Merkle tree with proof generation.
class MerkleTree {
 public:
  /// Builds a tree over precomputed leaf hashes (at least one).
  explicit MerkleTree(std::vector<Hash256> leaves);

  /// Builds a tree over raw bytes split into `kMerkleBlockSize` blocks.
  /// Empty data hashes as a single empty leaf.
  static MerkleTree over_data(std::span<const std::uint8_t> data);

  [[nodiscard]] const Hash256& root() const;
  [[nodiscard]] std::uint64_t leaf_count() const { return leaf_count_; }
  [[nodiscard]] const Hash256& leaf(std::uint64_t index) const;

  /// Inclusion proof for the given leaf index.
  [[nodiscard]] MerkleProof prove(std::uint64_t index) const;

 private:
  std::uint64_t leaf_count_;
  /// levels_[0] = leaves; levels_.back() = {root}.
  std::vector<std::vector<Hash256>> levels_;
};

/// Hash a raw data block into a leaf hash.
Hash256 merkle_leaf_hash(std::span<const std::uint8_t> block);

/// Verifies an inclusion proof against a root and leaf hash.
bool merkle_verify(const Hash256& root, const Hash256& leaf_hash,
                   const MerkleProof& proof);

/// Convenience: Merkle root over raw data (the paper's `f.merkleRoot`).
Hash256 merkle_root_of_data(std::span<const std::uint8_t> data);

}  // namespace fi::crypto

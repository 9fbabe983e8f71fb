#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crypto/hash.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "util/hex.h"
#include "util/prng.h"

namespace fi::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 test vectors)
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(util::to_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(util::to_hex(sha256(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      util::to_hex(sha256(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  std::vector<std::uint8_t> input(1'000'000, 'a');
  EXPECT_EQ(util::to_hex(sha256(input)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  util::Xoshiro256 rng(1);
  std::vector<std::uint8_t> data(10'000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  // Feed in awkward chunk sizes crossing block boundaries.
  Sha256 hasher;
  std::size_t off = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 127, 500, 9180};
  for (std::size_t c : chunks) {
    hasher.update({data.data() + off, c});
    off += c;
  }
  ASSERT_EQ(off, data.size());
  EXPECT_EQ(hasher.finalize(), sha256(data));

  // Split a message of five blocks and a tail at every offset: the second
  // update() first tops up the buffered partial block, then hands the whole
  // blocks after it to the compression loop in one run.
  const std::span<const std::uint8_t> message(data.data(), 5 * 64 + 17);
  const Digest expected = sha256(message);
  for (std::size_t split = 0; split <= message.size(); ++split) {
    Sha256 two_part;
    two_part.update(message.first(split));
    two_part.update(message.subspan(split));
    EXPECT_EQ(two_part.finalize(), expected) << "split at " << split;
  }
}

TEST(Sha256, ResetRestoresInitialState) {
  Sha256 hasher;
  hasher.update(bytes_of("garbage"));
  hasher.reset();
  hasher.update(bytes_of("abc"));
  EXPECT_EQ(util::to_hex(hasher.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---------------------------------------------------------------------------
// Compression loops: portable and SHA-NI, compared block for block
// ---------------------------------------------------------------------------

using CompressLoop = void (*)(detail::State&, const std::uint8_t*,
                              std::size_t);

constexpr detail::State kFipsInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Pads `message` as FIPS 180-4 §5.1.1 does, runs `loop` over every block
/// from the initial state, and returns the hex digest.
std::string digest_via(CompressLoop loop,
                       const std::vector<std::uint8_t>& message) {
  std::vector<std::uint8_t> padded = message;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{message.size()} * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  detail::State state = kFipsInitialState;
  loop(state, padded.data(), padded.size() / 64);
  std::vector<std::uint8_t> out;
  for (const std::uint32_t word : state) {
    for (int i = 3; i >= 0; --i) {
      out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
    }
  }
  return util::to_hex(out);
}

struct FipsVector {
  std::vector<std::uint8_t> message;
  const char* digest;
};

std::vector<FipsVector> fips_vectors() {
  return {
      {{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {bytes_of("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {bytes_of("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::vector<std::uint8_t>(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

TEST(Sha256Compress, PortableLoopMatchesFipsVectors) {
  // Runs on every host, including those where sha256() takes the hardware
  // loop, so the portable loop never goes untested.
  for (const FipsVector& v : fips_vectors()) {
    EXPECT_EQ(digest_via(&detail::compress_portable, v.message), v.digest)
        << v.message.size() << "-byte message";
  }
}

TEST(Sha256Compress, HardwareLoopMatchesPortable) {
#if defined(__x86_64__)
  if (!detail::has_sha_ni()) {
    GTEST_SKIP() << "CPUID reports no SHA extensions on this CPU; sha256() "
                    "runs the portable loop only";
  }
  for (const FipsVector& v : fips_vectors()) {
    EXPECT_EQ(digest_via(&detail::compress_sha_ni, v.message), v.digest)
        << v.message.size() << "-byte message";
  }
  // Random runs of 1-64 blocks from random chaining states: the hardware
  // loop reorders the state into its (a, b, e, f) / (c, d, g, h) layout on
  // entry and back on exit, which a fixed initial state would not exercise
  // fully.
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t blocks = 1 + rng.uniform_below(64);
    std::vector<std::uint8_t> data(blocks * 64);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    detail::State portable;
    for (auto& word : portable) word = static_cast<std::uint32_t>(rng());
    detail::State hardware = portable;
    detail::compress_portable(portable, data.data(), blocks);
    detail::compress_sha_ni(hardware, data.data(), blocks);
    ASSERT_EQ(hardware, portable) << "trial " << trial << ", " << blocks
                                  << " blocks";
  }
#else
  GTEST_SKIP() << "no SHA extensions loop on this target; sha256() runs the "
                  "portable loop only";
#endif
}

// ---------------------------------------------------------------------------
// Hash256 and domain separation
// ---------------------------------------------------------------------------

TEST(Hash256Type, DomainSeparationChangesDigest) {
  const auto data = bytes_of("payload");
  EXPECT_NE(hash_bytes("domain/a", data), hash_bytes("domain/b", data));
}

TEST(Hash256Type, PairOrderMatters) {
  const Hash256 a = hash_bytes("t", bytes_of("a"));
  const Hash256 b = hash_bytes("t", bytes_of("b"));
  EXPECT_NE(hash_pair("n", a, b), hash_pair("n", b, a));
}

TEST(Hash256Type, U64HashingIsPositional) {
  EXPECT_NE(hash_u64s("t", {1, 2}), hash_u64s("t", {2, 1}));
  EXPECT_NE(hash_u64s("t", {1}), hash_u64s("t", {1, 0}));
}

TEST(Hash256Type, HexAndPrefix) {
  Hash256 h;
  h.bytes[0] = 0xab;
  h.bytes[7] = 0x01;
  EXPECT_EQ(h.hex().size(), 64u);
  EXPECT_EQ(h.short_hex(), "ab000000");
  EXPECT_EQ(h.prefix_u64(), 0xab00000000000001ull);
  EXPECT_FALSE(h.is_zero());
  EXPECT_TRUE(Hash256{}.is_zero());
}

// ---------------------------------------------------------------------------
// Merkle trees
// ---------------------------------------------------------------------------

TEST(Merkle, SingleLeafRootIsLeafHash) {
  const auto data = bytes_of("tiny");
  const MerkleTree tree = MerkleTree::over_data(data);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.root(), merkle_leaf_hash(data));
}

TEST(Merkle, RootChangesWithContent) {
  EXPECT_NE(merkle_root_of_data(bytes_of("hello world")),
            merkle_root_of_data(bytes_of("hello worle")));
}

TEST(Merkle, ProofVerifiesForEveryLeaf) {
  util::Xoshiro256 rng(2);
  for (std::size_t size : {1u, 64u, 65u, 128u, 1000u, 4096u, 5000u}) {
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    const MerkleTree tree = MerkleTree::over_data(data);
    for (std::uint64_t i = 0; i < tree.leaf_count(); ++i) {
      const MerkleProof proof = tree.prove(i);
      ASSERT_TRUE(merkle_verify(tree.root(), tree.leaf(i), proof))
          << "size=" << size << " leaf=" << i;
    }
  }
}

TEST(Merkle, TamperedLeafFailsVerification) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const MerkleTree tree = MerkleTree::over_data(data);
  const MerkleProof proof = tree.prove(3);
  Hash256 wrong_leaf = tree.leaf(3);
  wrong_leaf.bytes[0] ^= 1;
  EXPECT_FALSE(merkle_verify(tree.root(), wrong_leaf, proof));
}

TEST(Merkle, TamperedPathFailsVerification) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const MerkleTree tree = MerkleTree::over_data(data);
  MerkleProof proof = tree.prove(3);
  proof.path[1].bytes[5] ^= 1;
  EXPECT_FALSE(merkle_verify(tree.root(), tree.leaf(3), proof));
}

TEST(Merkle, WrongIndexFailsVerification) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const MerkleTree tree = MerkleTree::over_data(data);
  MerkleProof proof = tree.prove(3);
  proof.leaf_index = 4;
  EXPECT_FALSE(merkle_verify(tree.root(), tree.leaf(3), proof));
}

TEST(Merkle, WrongDepthProofRejected) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const MerkleTree tree = MerkleTree::over_data(data);
  MerkleProof proof = tree.prove(3);
  proof.path.push_back(Hash256{});
  EXPECT_FALSE(merkle_verify(tree.root(), tree.leaf(3), proof));
  proof.path.resize(proof.path.size() - 2);
  EXPECT_FALSE(merkle_verify(tree.root(), tree.leaf(3), proof));
}

TEST(Merkle, EmptyDataHasWellDefinedRoot) {
  const MerkleTree tree = MerkleTree::over_data({});
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.root(), merkle_leaf_hash({}));
}

TEST(Merkle, OddLeafCountDuplicatesLast) {
  // 3 leaves: root = H(H(l0,l1), H(l2,l2)).
  std::vector<Hash256> leaves;
  for (int i = 0; i < 3; ++i) {
    leaves.push_back(hash_u64s("leaf", {static_cast<std::uint64_t>(i)}));
  }
  const MerkleTree tree(leaves);
  const Hash256 left = hash_pair("fi/merkle/node", leaves[0], leaves[1]);
  const Hash256 right = hash_pair("fi/merkle/node", leaves[2], leaves[2]);
  EXPECT_EQ(tree.root(), hash_pair("fi/merkle/node", left, right));
}

TEST(Merkle, RootMatchesLevelByLevelReference) {
  // Roots over `blocks * 64 - 5` bytes must match a hand-rolled
  // level-by-level reconstruction from `merkle_leaf_hash` and `hash_pair`.
  util::Xoshiro256 rng(6);
  for (std::size_t blocks : {1u, 2u, 3u, 8u, 9u, 64u, 100u}) {
    std::vector<std::uint8_t> data(blocks * kMerkleBlockSize - 5);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    const MerkleTree tree = MerkleTree::over_data(data);
    std::vector<Hash256> level;
    for (std::size_t off = 0; off < data.size(); off += kMerkleBlockSize) {
      level.push_back(merkle_leaf_hash(std::span<const std::uint8_t>(data)
          .subspan(off, std::min(kMerkleBlockSize, data.size() - off))));
    }
    while (level.size() > 1) {
      std::vector<Hash256> next;
      for (std::size_t i = 0; i < level.size(); i += 2) {
        const Hash256& l = level[i];
        const Hash256& r = (i + 1 < level.size()) ? level[i + 1] : level[i];
        next.push_back(hash_pair("fi/merkle/node", l, r));
      }
      level = std::move(next);
    }
    EXPECT_EQ(tree.root(), level.front()) << blocks << " blocks";
  }

  // Known-answer roots (byte i = i*7+1), so the tree's digests stay pinned
  // whatever hashing path builds it.
  const std::pair<std::size_t, const char*> known[] = {
      {1, "eeb482ca1c69f19277ff4192e106ec415c3f30e2263c1776381665d5b5366eaa"},
      {3, "4ef88f810815305a03d6d997b5c1c7a26f30f5e0518ac35bb96d0f4ded00139e"},
      {9, "475e5b9414722fa96db457d950989fac3c362b4e0f3b7fd914d0e9a9c37eb0a6"},
      {100,
       "5b8dcdb72538932e6c093d1a1c132de017b095a866634744c1c476816ba2d899"},
  };
  for (const auto& [blocks, root_hex] : known) {
    std::vector<std::uint8_t> data(blocks * kMerkleBlockSize - 5);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    EXPECT_EQ(merkle_root_of_data(data).hex(), root_hex) << blocks << " blocks";
  }
}

TEST(Merkle, LeafVsInteriorDomainSeparation) {
  // A leaf hash can never be confused with an interior node hash because
  // they use distinct domains.
  const auto data = bytes_of("x");
  EXPECT_NE(merkle_leaf_hash(data), hash_bytes("fi/merkle/node", data));
}

}  // namespace
}  // namespace fi::crypto

#include <gtest/gtest.h>

#include <vector>

#include "ipfs/cid.h"
#include "ipfs/content_store.h"
#include "util/prng.h"

namespace fi::ipfs {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// ---------------------------------------------------------------------------
// CID + content store
// ---------------------------------------------------------------------------

TEST(Cid, ContentAddressing) {
  const auto a = make_cid(Codec::raw, random_bytes(100, 1));
  const auto b = make_cid(Codec::raw, random_bytes(100, 1));
  const auto c = make_cid(Codec::raw, random_bytes(100, 2));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Codec participates in identity.
  EXPECT_NE(make_cid(Codec::raw, random_bytes(8, 3)),
            make_cid(Codec::dag_node, random_bytes(8, 3)));
}

TEST(ContentStore, PutGetRemove) {
  ContentStore store;
  const auto data = random_bytes(64, 4);
  const auto [cid, inserted] = store.put(Codec::raw, data);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(cid, make_cid(Codec::raw, data));
  EXPECT_TRUE(store.has(cid));
  EXPECT_EQ(store.get(cid), data);
  EXPECT_EQ(store.total_bytes(), 64u);
  EXPECT_TRUE(store.remove(cid));
  EXPECT_FALSE(store.has(cid));
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_FALSE(store.remove(cid));
}

TEST(ContentStore, DeduplicatesIdenticalBlocks) {
  ContentStore store;
  const auto first = store.put(Codec::raw, random_bytes(64, 5));
  EXPECT_TRUE(first.inserted);
  // A second put of the same bytes is the membership test: same CID,
  // nothing stored or counted again.
  const auto second = store.put(Codec::raw, random_bytes(64, 5));
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(second.cid, first.cid);
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.total_bytes(), 64u);
  // The returned CID removes the block without the bytes.
  EXPECT_TRUE(store.remove(second.cid));
  EXPECT_EQ(store.block_count(), 0u);
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_TRUE(store.put(Codec::raw, random_bytes(64, 5)).inserted);
}

}  // namespace
}  // namespace fi::ipfs

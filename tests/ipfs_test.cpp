#include <gtest/gtest.h>

#include <vector>

#include "ipfs/cid.h"
#include "ipfs/content_store.h"
#include "ipfs/dht.h"
#include "ipfs/merkle_dag.h"
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
  const Cid cid = store.put(Codec::raw, data);
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
  store.put(Codec::raw, random_bytes(64, 5));
  store.put(Codec::raw, random_bytes(64, 5));
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.total_bytes(), 64u);
}

// ---------------------------------------------------------------------------
// Merkle DAG
// ---------------------------------------------------------------------------

TEST(MerkleDag, FileRoundTripAcrossShapes) {
  for (std::size_t size : {0u, 1u, 1023u, 1024u, 1025u, 8192u, 100'000u}) {
    ContentStore store;
    const auto data = random_bytes(size, 10 + size);
    const Cid root = dag_put_file(store, data, {.chunk_size = 1024, .fanout = 4});
    const auto back = dag_get_file(store, root);
    ASSERT_TRUE(back.is_ok()) << "size=" << size;
    EXPECT_EQ(back.value(), data) << "size=" << size;
  }
}

TEST(MerkleDag, IdenticalContentSharesBlocks) {
  ContentStore store;
  const auto data = random_bytes(10'000, 11);
  const Cid r1 = dag_put_file(store, data);
  const std::size_t blocks_after_first = store.block_count();
  const Cid r2 = dag_put_file(store, data);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(store.block_count(), blocks_after_first);
}

TEST(MerkleDag, MissingBlockFailsRetrieval) {
  ContentStore store;
  const auto data = random_bytes(10'000, 12);
  const Cid root = dag_put_file(store, data, {.chunk_size = 512, .fanout = 4});
  const auto cids = dag_enumerate(store, root);
  ASSERT_TRUE(cids.is_ok());
  ASSERT_GT(cids.value().size(), 2u);
  // Remove one leaf from the middle.
  store.remove(cids.value()[cids.value().size() / 2]);
  EXPECT_FALSE(dag_get_file(store, root).is_ok());
}

TEST(MerkleDag, NodeSerializationRoundTrip) {
  DagNode node;
  node.subtree_bytes = 12345;
  node.children.push_back(make_cid(Codec::raw, random_bytes(8, 13)));
  node.children.push_back(make_cid(Codec::dag_node, random_bytes(8, 14)));
  const auto back = DagNode::deserialize(node.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().subtree_bytes, 12345u);
  EXPECT_EQ(back.value().children, node.children);
}

TEST(MerkleDag, MalformedNodeRejected) {
  EXPECT_FALSE(DagNode::deserialize({1, 2, 3}).is_ok());
  DagNode node;
  node.children.push_back(make_cid(Codec::raw, random_bytes(8, 15)));
  auto bytes = node.serialize();
  bytes.pop_back();
  EXPECT_FALSE(DagNode::deserialize(bytes).is_ok());
}

// ---------------------------------------------------------------------------
// DHT
// ---------------------------------------------------------------------------

TEST(DhtTest, FindsProvidersAcrossTheNetwork) {
  Dht dht(8);
  for (std::uint64_t n = 0; n < 100; ++n) dht.join(n);
  const Cid cid = make_cid(Codec::raw, random_bytes(100, 20));
  dht.provide(42, cid);
  dht.provide(17, cid);
  for (std::uint64_t from : {0ull, 55ull, 99ull}) {
    const auto result = dht.find_providers(from, cid);
    EXPECT_EQ(result.providers, (std::vector<std::uint64_t>{17, 42}))
        << "from=" << from;
  }
}

TEST(DhtTest, LookupHopsAreLogarithmic) {
  Dht dht(8);
  for (std::uint64_t n = 0; n < 500; ++n) dht.join(n);
  const Cid cid = make_cid(Codec::raw, random_bytes(100, 21));
  dht.provide(3, cid);
  const auto result = dht.find_providers(450, cid);
  EXPECT_FALSE(result.providers.empty());
  // Far below a linear scan of 500 peers.
  EXPECT_LT(result.hops, 60u);
}

TEST(DhtTest, UnknownKeyReturnsNoProviders) {
  Dht dht(4);
  for (std::uint64_t n = 0; n < 30; ++n) dht.join(n);
  const Cid cid = make_cid(Codec::raw, random_bytes(100, 22));
  EXPECT_TRUE(dht.find_providers(0, cid).providers.empty());
}

TEST(DhtTest, RecordsReplicatedAcrossKClosest) {
  // Records survive single-holder departure thanks to k-replication.
  Dht dht(8);
  for (std::uint64_t n = 0; n < 60; ++n) dht.join(n);
  const Cid cid = make_cid(Codec::raw, random_bytes(100, 23));
  dht.provide(7, cid);
  // Remove two arbitrary peers (possibly record holders).
  dht.leave(11);
  dht.leave(29);
  const auto result = dht.find_providers(50, cid);
  EXPECT_EQ(result.providers, (std::vector<std::uint64_t>{7}));
}

TEST(DhtTest, XorDistanceIsAMetric) {
  const PeerId a = peer_id_from_node(1);
  const PeerId b = peer_id_from_node(2);
  EXPECT_EQ(xor_distance(a, a), XorDistance{});
  EXPECT_EQ(xor_distance(a, b), xor_distance(b, a));
}

}  // namespace
}  // namespace fi::ipfs

#pragma once

#include <cstdint>
#include <vector>

#include "ipfs/cid.h"
#include "ipfs/content_store.h"
#include "util/status.h"

/// Object Merkle DAG (§II-A): a file is chunked into raw leaf blocks and
/// linked through fixed-fanout interior nodes, letting participants address
/// any file (or any range of it) through its root CID.
namespace fi::ipfs {

/// DAG construction parameters.
struct DagParams {
  std::size_t chunk_size = 1024;  ///< leaf block size in bytes
  std::size_t fanout = 8;         ///< children per interior node
};

/// An interior node: an ordered list of child CIDs plus the total number of
/// payload bytes under this subtree (needed to rebuild files exactly).
struct DagNode {
  std::uint64_t subtree_bytes = 0;
  std::vector<Cid> children;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static util::Result<DagNode> deserialize(
      const std::vector<std::uint8_t>& bytes);
};

/// Chunks `data` into the store and builds the DAG; returns the root CID.
Cid dag_put_file(ContentStore& store, const std::vector<std::uint8_t>& data,
                 const DagParams& params = {});

/// Reassembles a file from its root CID; fails if any block is missing.
util::Result<std::vector<std::uint8_t>> dag_get_file(const ContentStore& store,
                                                     const Cid& root);

/// All block CIDs reachable from `root` (root first, depth-first) — the
/// blocks a retriever must fetch to rebuild the file.
util::Result<std::vector<Cid>> dag_enumerate(const ContentStore& store,
                                             const Cid& root);

}  // namespace fi::ipfs

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/check.h"

/// Fixed-block slab recycling for struct-of-arrays containers.
///
/// The hot engine tables (`core::AllocTable` above all) keep their entries
/// in parallel arrays ("the slab") and hand out contiguous runs of slots —
/// one run per file, sized by its replica count. Runs are created and
/// destroyed at high churn rates, but the set of distinct run sizes is tiny
/// (the replica count `cp` takes a handful of values per deployment), so a
/// classic fixed-block object pool fits exactly: freed runs go onto a
/// per-size free list and are handed back LIFO, keeping the slab dense and
/// allocation-free in steady state instead of growing forever or punching
/// unusable holes.
///
/// The pool tracks *offsets only* — it never touches the arrays themselves.
/// Callers append fresh slots when `acquire` misses and are responsible for
/// re-initializing recycled slots. Recycling order is LIFO per size class
/// and therefore a pure function of the operation history: slot placement
/// stays deterministic, which matters because everything in the engine is
/// replayable byte-for-byte.
namespace fi::util {

class FixedBlockPool {
 public:
  /// Returned by `acquire` when no recycled block of that size exists.
  static constexpr std::size_t kNoBlock = ~std::size_t{0};

  /// Pops the most recently released block of exactly `block_size` slots
  /// and returns its slab offset, or `kNoBlock` when the free list for
  /// that size is empty (caller appends fresh slots instead).
  [[nodiscard]] std::size_t acquire(std::uint32_t block_size) {
    const auto it = free_.find(block_size);
    if (it == free_.end() || it->second.empty()) return kNoBlock;
    const std::size_t offset = it->second.back();
    it->second.pop_back();
    return offset;
  }

  /// Returns a block to its size class. The caller guarantees the run
  /// `[offset, offset + block_size)` is dead (no live container state
  /// references those slots).
  void release(std::uint32_t block_size, std::size_t offset) {
    FI_CHECK_MSG(block_size > 0, "pool blocks must have positive size");
    free_[block_size].push_back(offset);
  }

  /// Drops every free list (used when the owning slab is rebuilt, e.g. on
  /// snapshot restore — restored slabs are packed dense, so stale offsets
  /// must not survive).
  void clear() { free_.clear(); }

 private:
  /// Per-size LIFO free lists. Lookup-only access — iteration order of the
  /// map is never observed, so the hash layout cannot leak into behavior.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> free_;
};

}  // namespace fi::util

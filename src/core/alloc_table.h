#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/file.h"
#include "core/types.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/prng.h"

/// Allocation table (Fig. 1): each live file's row (descriptor, owner,
/// upload time) beside its (file, replica index) storage entries, plus the
/// reverse indexes the protocol needs:
///
///  * by-prev / by-next sector indexes, so corrupting or draining a sector
///    touches exactly the affected entries (no global scans); a sector's
///    references are the entries they list;
///  * a dense sampler over entries in `normal` state, used by §VI-B's
///    Poisson admission rebalancing to pick uniform random backups.
///
/// One row per live file holds every per-file fact: the file's row and the
/// offset of its entries. The replica count is the row's `desc.cp`. File
/// ids are found through a dense window of row numbers, one per id from
/// the oldest file in the table to the newest id, so a lookup is a range
/// check and two array reads. File_Add issues ids in sequence, so the
/// engine only ever extends the window's back by one; the dead prefix that
/// removals leave at the front is dropped once it is half the window.
///
/// Entry storage is a struct-of-arrays slab: every entry field lives in its
/// own dense array, and a file's `cp` replicas occupy one contiguous run of
/// slots. The proof sweep streams the state/prev/last arrays instead of
/// striding records. A row keeps its slot run for life: a removed file's
/// row waits on a free list for its replica count, and the next file of
/// that count takes over the row and its warm slots, so steady-state churn
/// grows neither the rows nor the slab.
///
/// Index positions are *intrusive*: each slot stores its own position in
/// the by-prev / by-next buckets and in the normal-entry sampler, and each
/// bucket or sampler item carries its slot, so swap-erase is two array
/// writes plus one position fix-up, with no lookup.
namespace fi::core {

struct AllocEntry {
  /// Sector currently storing the replica (kNoSector when none yet).
  SectorId prev = kNoSector;
  /// Sector the replica is being (re)allocated to.
  SectorId next = kNoSector;
  /// Time of the last accepted proof of storage (kNoTime = never).
  Time last = kNoTime;
  AllocState state = AllocState::alloc;
};

using EntryKey = std::pair<FileId, ReplicaIndex>;

class AllocTable {
 public:
  /// One lookup's worth of a live file: its row plus a window over its
  /// replicas' contiguous slots, and the only way to write an entry. Reads
  /// are live, so they see the view's own writes and any later write to
  /// the same file. Like a span, the view is shallow: its writes go to the
  /// table, and `set_prev` / `set_next` / `set_state` keep the reverse
  /// indexes and the normal-entry sampler consistent. A default view names
  /// no file (`find` of an unknown id). Invalidated by create_file (the
  /// slab and the rows may reallocate), remove_file of the same file and
  /// load.
  class FileView {
   public:
    explicit operator bool() const { return row_ != nullptr; }
    [[nodiscard]] FileId id() const { return id_; }
    [[nodiscard]] FileRow& row() const { return *row_; }
    [[nodiscard]] std::uint32_t size() const { return row_->desc.cp; }
    /// Materialized copy of one entry (does not track later mutations).
    [[nodiscard]] AllocEntry entry(ReplicaIndex i) const;
    [[nodiscard]] AllocState state(ReplicaIndex i) const { return state_[i]; }
    [[nodiscard]] SectorId prev(ReplicaIndex i) const { return prev_[i]; }
    [[nodiscard]] SectorId next(ReplicaIndex i) const { return next_[i]; }
    [[nodiscard]] Time last(ReplicaIndex i) const { return last_[i]; }
    /// The replica's upload traffic fee is still escrowed (refunded if the
    /// upload fails): exactly while its initial upload awaits confirmation.
    [[nodiscard]] bool escrowed(ReplicaIndex i) const {
      return AllocTable::escrowed(prev_[i], state_[i]);
    }

    void set_prev(ReplicaIndex i, SectorId sector) const;
    void set_next(ReplicaIndex i, SectorId sector) const;
    void set_state(ReplicaIndex i, AllocState state) const;
    void set_last(ReplicaIndex i, Time t) const { last_[i] = t; }

   private:
    friend class AllocTable;
    /// Slab slot of replica `i`, range-checked.
    [[nodiscard]] std::uint32_t slot(ReplicaIndex i) const;

    AllocTable* table_ = nullptr;
    FileId id_ = kNoFile;
    FileRow* row_ = nullptr;
    std::size_t offset_ = 0;
    const AllocState* state_ = nullptr;
    const SectorId* prev_ = nullptr;
    const SectorId* next_ = nullptr;
    Time* last_ = nullptr;
  };

  /// Creates a file's row and its `cp` empty entries (taking over a free
  /// row of `cp` replicas and its slot run when there is one) and returns
  /// its view. The row has `desc.cp == cp` and defaults elsewhere; the
  /// caller fills in the rest.
  FileView create_file(FileId file, std::uint32_t cp);

  /// Drops the file's entries (the file leaves the network) and puts its
  /// row, with its slot run, on the free list for its replica count.
  /// Releasing sector space is the caller's job (Network owns the flows).
  void remove_file(FileId file);

  [[nodiscard]] bool has_file(FileId file) const {
    return row_of(file) != kNoRow;
  }
  /// The row and entries of `file` in one lookup; false when the file is
  /// not in the table.
  [[nodiscard]] FileView find(FileId file);
  /// Row / replica count of a live file; unknown ids are an invariant
  /// violation.
  [[nodiscard]] const FileRow& row(FileId file) const {
    return file_at(file).row;
  }
  [[nodiscard]] std::uint32_t replica_count(FileId file) const {
    return row(file).desc.cp;
  }

  /// Materialized copy of one entry (does not track later mutations).
  [[nodiscard]] AllocEntry entry(FileId file, ReplicaIndex idx) const;

  /// Entries with prev == sector / next == sector (copied snapshots, for
  /// callers that mutate while iterating).
  [[nodiscard]] std::vector<EntryKey> entries_with_prev(SectorId sector) const;
  [[nodiscard]] std::vector<EntryKey> entries_with_next(SectorId sector) const;

  [[nodiscard]] std::size_t count_with_prev(SectorId sector) const {
    return sector < by_prev_.size() ? by_prev_[sector].size() : 0;
  }
  [[nodiscard]] std::size_t count_with_next(SectorId sector) const {
    return sector < by_next_.size() ? by_next_[sector].size() : 0;
  }
  /// Entries that name `sector` as prev or next: the sector's references.
  /// A disabled sector is removed once they drain to zero.
  [[nodiscard]] std::size_t references(SectorId sector) const {
    return count_with_prev(sector) + count_with_next(sector);
  }

  /// Uniform random entry currently in `normal` state (nullopt if none) —
  /// the §VI-B swap-in selector.
  [[nodiscard]] std::optional<EntryKey> random_normal_entry(
      util::Xoshiro256& rng) const;

  [[nodiscard]] std::size_t normal_entry_count() const {
    return normal_entries_.size();
  }
  [[nodiscard]] std::size_t file_count() const { return file_count_; }
  /// The id window: its first id and its length, zero exactly when the
  /// table is empty.
  [[nodiscard]] FileId window_first() const { return base_; }
  [[nodiscard]] std::size_t window_size() const { return index_.size(); }

  /// Calls `fn(view)` for every file in the table, in ascending id order.
  template <typename Fn>
  void for_each_file(Fn&& fn) {
    for (std::size_t at = head_; at < index_.size(); ++at) {
      if (index_[at] != kNoRow) fn(view_of(base_ + at, rows_[index_[at]]));
    }
  }

  /// Canonical snapshot encoding / full-state restore (`src/snapshot`).
  /// The table fills two components of the engine's body: `save`/`load`
  /// are the allocations component, `save_files`/`load_files` the files
  /// component, which the body places after the pending list and deposits.
  ///
  /// Files are encoded in ascending id order (row order is never
  /// observable), but the reverse indexes and the normal-entry sampler are
  /// encoded in their exact dense-array order: their positions feed
  /// iteration (`entries_with_prev`) and uniform sampling
  /// (`random_normal_entry`), so a swap-erase history reshuffle would
  /// change later draws and break save→load→continue byte-identity.
  /// Slot placement inside the slab is NOT observable and not encoded;
  /// `load` repacks files dense in file-id order.
  ///
  /// Allocation groups must come in strictly ascending id order, as `save`
  /// writes them. The loaded window runs from the first group's id to
  /// `next_file_id`, and `load` fails the reader when it holds more ids
  /// than `body_bytes`, the size of the engine body the table is read
  /// from. A crafted id or counter then sizes at most four bytes of index
  /// per body byte, while each file in the table costs the body at least
  /// 163 bytes (a one-replica group and its files row), so a saved body
  /// fails only if fewer than one id in 163 of its window is still live.
  ///
  /// Each entry row still carries 32 reserved bytes where a per-replica
  /// replica commitment (CommR) used to be, so the format and every golden
  /// state hash are unchanged: `save` writes zeros there and `load` fails
  /// the reader on any other value.
  ///
  /// `sector_count` bounds the sector ids accepted in the reverse-index
  /// sections (the caller loads the sector table first): buckets are
  /// dense per-sector vectors now, so an astronomically large id in a
  /// crafted body must be rejected up front instead of driving a huge
  /// resize. File ids must lie in [1, `next_file_id`): File_Add issues no
  /// other, and its next id would collide with one at or past the counter.
  /// `load` also fails the reader when the slab disagrees with the
  /// indexes: a slot is linked to a sector exactly when that sector's
  /// bucket lists it, and is `normal` exactly when the sampler lists it.
  ///
  /// `load` creates each file's row with only `desc.cp` set; `load_files`
  /// must then fill every row exactly once, with the same `cp`, a positive
  /// size (File_Add admits no empty file) and one escrow flag per replica,
  /// each equal to the one its entry implies (`FileView::escrowed`).
  void save(util::BinaryWriter& writer) const;
  void load(util::BinaryReader& reader, std::uint64_t sector_count,
            FileId next_file_id, std::uint64_t body_bytes);
  void save_files(util::BinaryWriter& writer) const;
  void load_files(util::BinaryReader& reader);

 private:
  /// A file's row, live or free, and the offset of its `row.desc.cp`
  /// slots.
  struct File {
    FileRow row;
    std::size_t offset = 0;
  };
  /// A reverse-index or sampler item: the entry's key plus its slab slot,
  /// so a swap-erase fixes the moved item's position without a lookup.
  struct Item {
    FileId file = kNoFile;
    ReplicaIndex index = 0;
    // fi-lint: not-serialized(derived: load() refills it from the key)
    std::uint32_t slot = 0;
  };
  static_assert(sizeof(Item) == 16, "the slot fills a key pair's padding");
  using Buckets = std::vector<std::vector<Item>>;
  static constexpr std::size_t kNoPos = ~std::size_t{0};
  /// An id of the window with no file.
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};
  /// Slab size limit: an item's slot is a u32.
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << 32;

  /// `FileView::escrowed` from an entry's prev and state.
  [[nodiscard]] static bool escrowed(SectorId prev, AllocState state) {
    return prev == kNoSector && state == AllocState::alloc;
  }

  /// Row number of `file`, or kNoRow when the table does not hold it. An
  /// id below the window wraps past its end.
  [[nodiscard]] std::uint32_t row_of(FileId file) const {
    const FileId at = file - base_;
    return at < index_.size() ? index_[at] : kNoRow;
  }
  [[nodiscard]] FileView view_of(FileId id, File& file);
  [[nodiscard]] const File& file_at(FileId file) const;
  [[nodiscard]] AllocEntry entry_at(std::size_t slot) const;
  /// Points slot `item.slot`'s link in `links` at `sector`, moving the
  /// item between the sectors' buckets.
  static void relink(std::vector<SectorId>& links, Buckets& buckets,
                     std::vector<std::size_t>& positions, Item item,
                     SectorId sector);
  /// Appends `item` to a bucket or the sampler / swap-erases slot `slot`'s
  /// item from it, keeping `positions` current.
  static void list_add(std::vector<Item>& items,
                       std::vector<std::size_t>& positions, Item item);
  static void list_remove(std::vector<Item>& items,
                          std::vector<std::size_t>& positions,
                          std::size_t slot);

  /// One row per live file, plus the free rows, in no observable order. A
  /// row keeps its `offset` for life, so a removal moves no other row or
  /// slot.
  std::vector<File> rows_;
  /// Free rows by replica count, each list popped last in first out.
  /// Keyed, never indexed, by the count: a file value can make it 2^32 - 1.
  // fi-lint: not-serialized(allocator state; load() packs the rows dense)
  std::map<std::uint32_t, std::vector<std::uint32_t>> free_rows_;
  /// Row number (kNoRow for none) of each id in [base_, base_ +
  /// index_.size()); empty exactly when the table is.
  std::vector<std::uint32_t> index_;
  FileId base_ = 0;
  /// Position of the first live id in the window (every slot before it is
  /// kNoRow).
  // fi-lint: not-serialized(derived: load() starts the window at a live id)
  std::size_t head_ = 0;
  std::size_t file_count_ = 0;
  /// Struct-of-arrays slab, indexed by slot = file offset + replica.
  std::vector<SectorId> prev_;
  std::vector<SectorId> next_;
  std::vector<Time> last_;
  std::vector<AllocState> state_;
  /// Intrusive positions of each slot's item inside the by-prev/by-next
  /// buckets and the normal sampler (kNoPos when absent).
  // fi-lint: not-serialized(derived: load() rebuilds from the index sections)
  std::vector<std::size_t> pos_in_prev_;
  // fi-lint: not-serialized(derived: load() rebuilds from the index sections)
  std::vector<std::size_t> pos_in_next_;
  // fi-lint: not-serialized(derived: load() rebuilds from the sampler section)
  std::vector<std::size_t> pos_in_normal_;
  /// Reverse indexes as dense per-sector buckets (sector ids are dense
  /// registration indices, so a flat vector replaces the sector hash map).
  Buckets by_prev_;
  Buckets by_next_;
  /// Dense array for O(1) uniform sampling of normal entries.
  std::vector<Item> normal_entries_;
};

}  // namespace fi::core

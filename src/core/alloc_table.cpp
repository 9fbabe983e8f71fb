#include "core/alloc_table.h"

#include <algorithm>
#include <array>

namespace fi::core {

namespace {

/// The former per-replica CommR field of an entry row: always zero.
constexpr std::array<std::uint8_t, 32> kReservedRowBytes{};

/// The keys a sector's bucket lists, in bucket order.
std::vector<EntryKey> keys_of(const auto& buckets, SectorId sector) {
  if (sector >= buckets.size()) return {};
  std::vector<EntryKey> keys;
  keys.reserve(buckets[sector].size());
  for (const auto& item : buckets[sector]) {
    keys.emplace_back(item.file, item.index);
  }
  return keys;
}

}  // namespace

AllocTable::FileView AllocTable::create_file(FileId file, std::uint32_t cp) {
  FI_CHECK_MSG(!has_file(file), "file already allocated");
  FI_CHECK_MSG(cp >= 1, "file needs at least one replica");
  std::uint32_t row = kNoRow;
  const auto freed = free_rows_.find(cp);
  if (freed != free_rows_.end() && !freed->second.empty()) {
    row = freed->second.back();
    freed->second.pop_back();
    const std::size_t offset = rows_[row].offset;
    for (std::size_t s = offset; s < offset + cp; ++s) {
      prev_[s] = kNoSector;
      next_[s] = kNoSector;
      last_[s] = kNoTime;
      state_[s] = AllocState::alloc;
      pos_in_prev_[s] = kNoPos;
      pos_in_next_[s] = kNoPos;
      pos_in_normal_[s] = kNoPos;
    }
    rows_[row].row = FileRow{};
  } else {
    const std::size_t offset = prev_.size();
    // Index items carry their slot as a u32.
    FI_CHECK_MSG(offset + cp <= kMaxSlots, "slab past 2^32 slots");
    FI_CHECK_MSG(rows_.size() < kNoRow, "rows past 2^32 - 1");
    prev_.resize(offset + cp, kNoSector);
    next_.resize(offset + cp, kNoSector);
    last_.resize(offset + cp, kNoTime);
    state_.resize(offset + cp, AllocState::alloc);
    pos_in_prev_.resize(offset + cp, kNoPos);
    pos_in_next_.resize(offset + cp, kNoPos);
    pos_in_normal_.resize(offset + cp, kNoPos);
    row = static_cast<std::uint32_t>(rows_.size());
    rows_.push_back({FileRow{}, offset});
  }
  if (index_.empty()) {
    base_ = file;
  } else if (file < base_) {
    // Only hand-picked ids land below the window; File_Add's extend it.
    index_.insert(index_.begin(), base_ - file, kNoRow);
    head_ += base_ - file;
    base_ = file;
  }
  const std::size_t at = file - base_;
  if (at >= index_.size()) index_.resize(at + 1, kNoRow);
  index_[at] = row;
  head_ = std::min(head_, at);
  ++file_count_;
  File& created = rows_[row];
  created.row.desc.cp = cp;
  return view_of(file, created);
}

void AllocTable::remove_file(FileId file) {
  const std::uint32_t row = row_of(file);
  FI_CHECK_MSG(row != kNoRow, "removing unknown file");
  const std::uint32_t cp = rows_[row].row.desc.cp;
  const std::size_t offset = rows_[row].offset;
  for (ReplicaIndex idx = 0; idx < cp; ++idx) {
    const Item item{file, idx, static_cast<std::uint32_t>(offset + idx)};
    relink(prev_, by_prev_, pos_in_prev_, item, kNoSector);
    relink(next_, by_next_, pos_in_next_, item, kNoSector);
    if (state_[item.slot] == AllocState::normal) {
      list_remove(normal_entries_, pos_in_normal_, item.slot);
    }
  }
  free_rows_[cp].push_back(row);

  const std::size_t at = file - base_;
  index_[at] = kNoRow;
  if (--file_count_ == 0) {
    index_.clear();
    base_ = 0;
    head_ = 0;
    return;
  }
  if (at != head_) return;
  while (index_[head_] == kNoRow) ++head_;  // a live id follows: count > 0
  // Drop the dead prefix once it is half the window. Each dropped slot was
  // passed once by the cursor, and the erase moves fewer slots than it
  // drops, so the trim is amortized O(1).
  if (2 * head_ >= index_.size()) {
    index_.erase(index_.begin(),
                 index_.begin() + static_cast<std::ptrdiff_t>(head_));
    base_ += head_;
    head_ = 0;
  }
}

AllocTable::FileView AllocTable::find(FileId file) {
  const std::uint32_t row = row_of(file);
  return row == kNoRow ? FileView{} : view_of(file, rows_[row]);
}

AllocTable::FileView AllocTable::view_of(FileId id, File& file) {
  FileView view;
  view.table_ = this;
  view.id_ = id;
  view.row_ = &file.row;
  view.offset_ = file.offset;
  view.state_ = state_.data() + file.offset;
  view.prev_ = prev_.data() + file.offset;
  view.next_ = next_.data() + file.offset;
  view.last_ = last_.data() + file.offset;
  return view;
}

const AllocTable::File& AllocTable::file_at(FileId file) const {
  const std::uint32_t row = row_of(file);
  FI_CHECK_MSG(row != kNoRow, "unknown file");
  return rows_[row];
}

AllocEntry AllocTable::FileView::entry(ReplicaIndex i) const {
  return table_->entry_at(slot(i));
}

std::uint32_t AllocTable::FileView::slot(ReplicaIndex i) const {
  FI_CHECK_MSG(i < size(), "replica index out of range");
  return static_cast<std::uint32_t>(offset_ + i);
}

void AllocTable::FileView::set_prev(ReplicaIndex i, SectorId sector) const {
  relink(table_->prev_, table_->by_prev_, table_->pos_in_prev_,
         {id_, i, slot(i)}, sector);
}

void AllocTable::FileView::set_next(ReplicaIndex i, SectorId sector) const {
  relink(table_->next_, table_->by_next_, table_->pos_in_next_,
         {id_, i, slot(i)}, sector);
}

void AllocTable::FileView::set_state(ReplicaIndex i, AllocState state) const {
  AllocState& current = table_->state_[slot(i)];
  const bool was_normal = current == AllocState::normal;
  if (was_normal && state != AllocState::normal) {
    list_remove(table_->normal_entries_, table_->pos_in_normal_, slot(i));
  } else if (!was_normal && state == AllocState::normal) {
    list_add(table_->normal_entries_, table_->pos_in_normal_,
             {id_, i, slot(i)});
  }
  current = state;
}

AllocEntry AllocTable::entry(FileId file, ReplicaIndex idx) const {
  const File& f = file_at(file);
  FI_CHECK_MSG(idx < f.row.desc.cp, "replica index out of range");
  return entry_at(f.offset + idx);
}

AllocEntry AllocTable::entry_at(std::size_t slot) const {
  return {prev_[slot], next_[slot], last_[slot], state_[slot]};
}

void AllocTable::relink(std::vector<SectorId>& links, Buckets& buckets,
                        std::vector<std::size_t>& positions, Item item,
                        SectorId sector) {
  SectorId& link = links[item.slot];
  if (link != kNoSector) {
    FI_CHECK_MSG(link < buckets.size(), "reverse index missing sector");
    list_remove(buckets[link], positions, item.slot);
  }
  link = sector;
  if (sector == kNoSector) return;
  if (sector >= buckets.size()) buckets.resize(sector + 1);
  list_add(buckets[sector], positions, item);
}

void AllocTable::list_add(std::vector<Item>& items,
                          std::vector<std::size_t>& positions, Item item) {
  FI_CHECK_MSG(positions[item.slot] == kNoPos, "entry listed twice");
  positions[item.slot] = items.size();
  items.push_back(item);
}

void AllocTable::list_remove(std::vector<Item>& items,
                             std::vector<std::size_t>& positions,
                             std::size_t slot) {
  const std::size_t pos = positions[slot];
  FI_CHECK_MSG(pos < items.size() && items[pos].slot == slot,
               "entry not listed");
  // Swap-erase: the last item takes the freed position.
  items[pos] = items.back();
  positions[items[pos].slot] = pos;
  items.pop_back();
  positions[slot] = kNoPos;
}

std::vector<EntryKey> AllocTable::entries_with_prev(SectorId sector) const {
  return keys_of(by_prev_, sector);
}

std::vector<EntryKey> AllocTable::entries_with_next(SectorId sector) const {
  return keys_of(by_next_, sector);
}

std::optional<EntryKey> AllocTable::random_normal_entry(
    util::Xoshiro256& rng) const {
  if (normal_entries_.empty()) return std::nullopt;
  const Item& item = normal_entries_[rng.uniform_below(normal_entries_.size())];
  return EntryKey{item.file, item.index};
}

void AllocTable::save(util::BinaryWriter& writer) const {
  writer.u64(file_count_);
  for (std::size_t at = head_; at < index_.size(); ++at) {
    if (index_[at] == kNoRow) continue;
    const File& file = rows_[index_[at]];
    writer.u64(base_ + at);
    writer.u32(file.row.desc.cp);
    for (ReplicaIndex idx = 0; idx < file.row.desc.cp; ++idx) {
      const std::size_t slot = file.offset + idx;
      writer.u64(prev_[slot]);
      writer.u64(next_[slot]);
      writer.u64(last_[slot]);
      writer.u8(static_cast<std::uint8_t>(state_[slot]));
      writer.raw(kReservedRowBytes);
    }
  }
  const auto save_index =
      [&writer](const Buckets& buckets) {
        std::uint64_t non_empty = 0;
        for (const auto& items : buckets) {
          if (!items.empty()) ++non_empty;
        }
        writer.u64(non_empty);
        // Bucket order is ascending sector id by construction — identical
        // bytes to the historical sorted-hash-map encoding.
        for (SectorId sector = 0; sector < buckets.size(); ++sector) {
          const auto& items = buckets[sector];
          if (items.empty()) continue;
          writer.u64(sector);
          writer.u64(items.size());
          for (const Item& item : items) {
            writer.u64(item.file);
            writer.u32(item.index);
          }
        }
      };
  save_index(by_prev_);
  save_index(by_next_);
  writer.u64(normal_entries_.size());
  for (const Item& item : normal_entries_) {
    writer.u64(item.file);
    writer.u32(item.index);
  }
}

void AllocTable::load(util::BinaryReader& reader, std::uint64_t sector_count,
                      FileId next_file_id, std::uint64_t body_bytes) {
  rows_.clear();
  free_rows_.clear();
  index_.clear();
  base_ = 0;
  head_ = 0;
  file_count_ = 0;
  prev_.clear();
  next_.clear();
  last_.clear();
  state_.clear();
  pos_in_prev_.clear();
  pos_in_next_.clear();
  pos_in_normal_.clear();
  by_prev_.clear();
  by_next_.clear();
  normal_entries_.clear();

  // Slots with a link or in `normal` state, counted as the slab is read:
  // the setters keep each of them listed in its index or the sampler, so
  // those sections must list exactly these slots.
  std::uint64_t linked_prev = 0;
  std::uint64_t linked_next = 0;
  std::uint64_t normal_slots = 0;

  // A group is at least its id, its count and one 57-byte entry row.
  const std::uint64_t files = reader.count(69);
  rows_.reserve(files);
  FileId last_file = 0;
  for (std::uint64_t f = 0; f < files; ++f) {
    const FileId file = reader.u64();
    const std::uint32_t cp = reader.u32();
    // File_Add issues ids below the counter and at least one replica, and
    // save() writes the groups in ascending id order, so the first group's
    // id starts the window and no id repeats.
    if (file <= last_file || file >= next_file_id || cp == 0 ||
        cp > reader.remaining() / 57 || prev_.size() + cp > kMaxSlots ||
        f >= kNoRow) {
      reader.fail();
      return;
    }
    last_file = file;
    if (f == 0) {
      // The window runs from this id to the counter, where File_Add extends
      // it next; one longer than the body is a crafted size.
      if (next_file_id - file > body_bytes) {
        reader.fail();
        return;
      }
      base_ = file;
      index_.assign(next_file_id - file, kNoRow);
    }
    const std::size_t offset = prev_.size();
    for (std::uint32_t r = 0; r < cp; ++r) {
      const SectorId prev = reader.u64();
      const SectorId next = reader.u64();
      const Time last = reader.u64();
      const std::uint8_t state = reader.u8();
      if (state > static_cast<std::uint8_t>(AllocState::corrupted)) {
        reader.fail();
        return;
      }
      std::array<std::uint8_t, kReservedRowBytes.size()> reserved{};
      reader.raw(reserved);
      if (reserved != kReservedRowBytes) {
        reader.fail();  // save() writes only zeros there
        return;
      }
      if (prev != kNoSector) ++linked_prev;
      if (next != kNoSector) ++linked_next;
      if (state == static_cast<std::uint8_t>(AllocState::normal)) {
        ++normal_slots;
      }
      prev_.push_back(prev);
      next_.push_back(next);
      last_.push_back(last);
      state_.push_back(static_cast<AllocState>(state));
      pos_in_prev_.push_back(kNoPos);
      pos_in_next_.push_back(kNoPos);
      pos_in_normal_.push_back(kNoPos);
    }
    if (!reader.ok()) return;
    File& loaded = rows_.emplace_back();
    loaded.row.desc.cp = cp;  // size 0 marks a row load_files has not filled
    loaded.offset = offset;
    index_[file - base_] = static_cast<std::uint32_t>(f);
  }
  file_count_ = files;

  // Index and sampler keys must reference loaded entries — an unknown file
  // or out-of-range replica would otherwise surface later as an FI_CHECK
  // abort in whatever protocol path walks the bucket. The returned slot
  // doubles as the intrusive-position anchor and the item's slot.
  const auto key_slot = [this](FileId file,
                               ReplicaIndex idx) -> std::size_t {
    const std::uint32_t row = row_of(file);
    if (row == kNoRow || idx >= rows_[row].row.desc.cp) return kNoPos;
    return rows_[row].offset + idx;
  };

  const auto load_index = [&](Buckets& buckets,
                              std::vector<std::size_t>& positions,
                              const std::vector<SectorId>& links,
                              std::uint64_t linked) {
    std::uint64_t listed = 0;
    const std::uint64_t sectors = reader.count(16);
    SectorId prev_sector = kNoSector;
    for (std::uint64_t s = 0; s < sectors; ++s) {
      const SectorId sector = reader.u64();
      const std::uint64_t keys = reader.count(12);
      if (!reader.ok()) return;
      // Buckets are dense per-sector vectors: an id beyond the sector
      // table would drive an attacker-sized resize, and out-of-order or
      // empty groups could never have been produced by save(), so all
      // three reject the body.
      if (sector >= sector_count || keys == 0 ||
          (prev_sector != kNoSector && sector <= prev_sector)) {
        reader.fail();
        return;
      }
      prev_sector = sector;
      if (sector >= buckets.size()) buckets.resize(sector + 1);
      std::vector<Item>& items = buckets[sector];
      items.reserve(keys);
      for (std::uint64_t k = 0; k < keys; ++k) {
        const FileId file = reader.u64();
        const ReplicaIndex idx = reader.u32();
        const std::size_t slot = key_slot(file, idx);
        // A duplicate key (slot already positioned) would corrupt later
        // swap-erase removals, and a key whose slab link names another
        // sector would later be unlinked from the wrong bucket — reject
        // the body instead.
        if (slot == kNoPos || positions[slot] != kNoPos ||
            links[slot] != sector) {
          reader.fail();
          return;
        }
        positions[slot] = items.size();
        items.push_back({file, idx, static_cast<std::uint32_t>(slot)});
      }
      listed += keys;
    }
    // Each listed slot is linked to its bucket's sector and listed once,
    // so equal counts leave no linked slot unlisted.
    if (listed != linked) reader.fail();
  };
  load_index(by_prev_, pos_in_prev_, prev_, linked_prev);
  load_index(by_next_, pos_in_next_, next_, linked_next);
  if (!reader.ok()) return;

  const std::uint64_t normals = reader.count(12);
  normal_entries_.reserve(normals);
  for (std::uint64_t k = 0; k < normals; ++k) {
    const FileId file = reader.u64();
    const ReplicaIndex idx = reader.u32();
    const std::size_t slot = key_slot(file, idx);
    if (slot == kNoPos || pos_in_normal_[slot] != kNoPos ||
        state_[slot] != AllocState::normal) {
      reader.fail();
      return;
    }
    pos_in_normal_[slot] = normal_entries_.size();
    normal_entries_.push_back({file, idx, static_cast<std::uint32_t>(slot)});
  }
  if (normals != normal_slots) reader.fail();
}

void AllocTable::save_files(util::BinaryWriter& writer) const {
  writer.u64(file_count_);
  for (std::size_t at = head_; at < index_.size(); ++at) {
    if (index_[at] == kNoRow) continue;
    const File& file = rows_[index_[at]];
    const FileRow& row = file.row;
    writer.u64(base_ + at);
    writer.u64(row.desc.size);
    writer.u64(row.desc.value);
    writer.raw(row.desc.merkle_root.bytes);
    writer.u32(row.desc.cp);
    writer.i64(row.desc.cntdown);
    writer.u8(static_cast<std::uint8_t>(row.desc.state));
    writer.u64(row.owner);
    writer.u64(row.added_at);
    writer.u64(row.desc.cp);  // one escrow flag per replica
    for (std::size_t slot = file.offset; slot < file.offset + row.desc.cp;
         ++slot) {
      writer.boolean(escrowed(prev_[slot], state_[slot]));
    }
  }
}

void AllocTable::load_files(util::BinaryReader& reader) {
  const std::uint64_t rows = reader.count(74);
  FileId last_id = 0;
  for (std::uint64_t r = 0; r < rows; ++r) {
    const FileId id = reader.u64();
    // save_files() writes the rows in ascending id order, as save() does
    // the groups.
    if (id <= last_id) {
      reader.fail();
      return;
    }
    last_id = id;
    FileRow row;
    row.desc.size = reader.u64();
    row.desc.value = reader.u64();
    reader.raw(row.desc.merkle_root.bytes);
    row.desc.cp = reader.u32();
    row.desc.cntdown = reader.i64();
    const std::uint8_t state = reader.u8();
    if (state > static_cast<std::uint8_t>(FileState::discard)) reader.fail();
    row.desc.state = static_cast<FileState>(state);
    row.owner = reader.u64();
    row.added_at = reader.u64();
    const std::uint64_t flags = reader.count(1);
    if (!reader.ok()) return;
    // The row fills the allocation group of the same id, once: the engine
    // walks `cp` of its entries, each with the escrow flag its entry
    // implies, and a filled row has a positive size.
    const std::uint32_t group = row_of(id);
    if (group == kNoRow || rows_[group].row.desc.size != 0 ||
        row.desc.cp != rows_[group].row.desc.cp || flags != row.desc.cp ||
        row.desc.size == 0) {
      reader.fail();
      return;
    }
    rows_[group].row = row;
    const std::size_t offset = rows_[group].offset;
    for (std::size_t slot = offset; slot < offset + row.desc.cp; ++slot) {
      if (reader.boolean() != escrowed(prev_[slot], state_[slot])) {
        reader.fail();
      }
    }
  }
  // Each row filled a distinct group, so equal counts leave none unfilled.
  if (reader.ok() && rows != file_count_) reader.fail();
}

}  // namespace fi::core

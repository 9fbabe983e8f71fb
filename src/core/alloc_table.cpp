#include "core/alloc_table.h"

#include <algorithm>
#include <array>

namespace fi::core {

namespace {

/// The former per-replica CommR field of an entry row: always zero.
constexpr std::array<std::uint8_t, 32> kReservedRowBytes{};

/// A map's entries in ascending key order (the encoding order; the hash
/// order is never observable).
template <typename Map>
auto sorted_by_id(const Map& map) {
  std::vector<std::pair<typename Map::key_type, const typename Map::mapped_type*>>
      sorted;
  sorted.reserve(map.size());
  // fi-lint: allow(unordered-iter, pairs collected then sorted by key)
  for (const auto& [key, value] : map) sorted.emplace_back(key, &value);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return sorted;
}

}  // namespace

std::size_t AllocTable::slot_of(FileId file, ReplicaIndex idx) const {
  const auto it = files_.find(file);
  FI_CHECK_MSG(it != files_.end(), "unknown file");
  FI_CHECK_MSG(idx < it->second.row.desc.cp, "replica index out of range");
  return it->second.offset + idx;
}

FileRow& AllocTable::create_file(FileId file, std::uint32_t cp) {
  FI_CHECK_MSG(!files_.contains(file), "file already allocated");
  FI_CHECK_MSG(cp >= 1, "file needs at least one replica");
  std::size_t offset = pool_.acquire(cp);
  if (offset == util::FixedBlockPool::kNoBlock) {
    offset = prev_.size();
    prev_.resize(offset + cp, kNoSector);
    next_.resize(offset + cp, kNoSector);
    last_.resize(offset + cp, kNoTime);
    state_.resize(offset + cp, AllocState::alloc);
    escrowed_.resize(offset + cp, 1);
    pos_in_prev_.resize(offset + cp, kNoPos);
    pos_in_next_.resize(offset + cp, kNoPos);
    pos_in_normal_.resize(offset + cp, kNoPos);
  } else {
    for (std::size_t s = offset; s < offset + cp; ++s) {
      prev_[s] = kNoSector;
      next_[s] = kNoSector;
      last_[s] = kNoTime;
      state_[s] = AllocState::alloc;
      escrowed_[s] = 1;
      pos_in_prev_[s] = kNoPos;
      pos_in_next_[s] = kNoPos;
      pos_in_normal_[s] = kNoPos;
    }
  }
  File& created = files_[file];
  created.row.desc.cp = cp;
  created.offset = offset;
  return created.row;
}

void AllocTable::remove_file(FileId file) {
  const auto it = files_.find(file);
  FI_CHECK_MSG(it != files_.end(), "removing unknown file");
  const std::uint32_t cp = it->second.row.desc.cp;
  const std::size_t offset = it->second.offset;
  for (ReplicaIndex idx = 0; idx < cp; ++idx) {
    const std::size_t slot = offset + idx;
    const EntryKey key{file, idx};
    if (prev_[slot] != kNoSector) {
      index_remove(by_prev_, pos_in_prev_, prev_[slot], key, slot);
    }
    if (next_[slot] != kNoSector) {
      index_remove(by_next_, pos_in_next_, next_[slot], key, slot);
    }
    if (state_[slot] == AllocState::normal) sampler_remove(key, slot);
  }
  files_.erase(it);
  pool_.release(cp, offset);
}

AllocTable::FileView AllocTable::find(FileId file) {
  const auto it = files_.find(file);
  if (it == files_.end()) return {};
  const std::size_t offset = it->second.offset;
  FileView view;
  view.id_ = file;
  view.row_ = &it->second.row;
  view.state_ = state_.data() + offset;
  view.prev_ = prev_.data() + offset;
  view.next_ = next_.data() + offset;
  view.last_ = last_.data() + offset;
  view.escrowed_ = escrowed_.data() + offset;
  return view;
}

const FileRow& AllocTable::row(FileId file) const {
  const auto it = files_.find(file);
  FI_CHECK_MSG(it != files_.end(), "unknown file");
  return it->second.row;
}

AllocEntry AllocTable::FileView::entry(ReplicaIndex i) const {
  FI_CHECK_MSG(i < size(), "replica index out of range");
  AllocEntry e;
  e.prev = prev_[i];
  e.next = next_[i];
  e.last = last_[i];
  e.state = state_[i];
  return e;
}

AllocEntry AllocTable::entry(FileId file, ReplicaIndex idx) const {
  const std::size_t slot = slot_of(file, idx);
  AllocEntry e;
  e.prev = prev_[slot];
  e.next = next_[slot];
  e.last = last_[slot];
  e.state = state_[slot];
  return e;
}

void AllocTable::set_prev(FileId file, ReplicaIndex idx, SectorId sector) {
  const std::size_t slot = slot_of(file, idx);
  const EntryKey key{file, idx};
  if (prev_[slot] != kNoSector) {
    index_remove(by_prev_, pos_in_prev_, prev_[slot], key, slot);
  }
  prev_[slot] = sector;
  if (sector != kNoSector) {
    index_add(by_prev_, pos_in_prev_, sector, key, slot);
  }
}

void AllocTable::set_next(FileId file, ReplicaIndex idx, SectorId sector) {
  const std::size_t slot = slot_of(file, idx);
  const EntryKey key{file, idx};
  if (next_[slot] != kNoSector) {
    index_remove(by_next_, pos_in_next_, next_[slot], key, slot);
  }
  next_[slot] = sector;
  if (sector != kNoSector) {
    index_add(by_next_, pos_in_next_, sector, key, slot);
  }
}

void AllocTable::set_state(FileId file, ReplicaIndex idx, AllocState state) {
  const std::size_t slot = slot_of(file, idx);
  const EntryKey key{file, idx};
  if (state_[slot] == AllocState::normal && state != AllocState::normal) {
    sampler_remove(key, slot);
  } else if (state_[slot] != AllocState::normal &&
             state == AllocState::normal) {
    sampler_add(key, slot);
  }
  state_[slot] = state;
}

void AllocTable::set_last(FileId file, ReplicaIndex idx, Time last) {
  last_[slot_of(file, idx)] = last;
}

std::vector<EntryKey> AllocTable::entries_with_prev(SectorId sector) const {
  const auto view = with_prev(sector);
  return {view.begin(), view.end()};
}

std::vector<EntryKey> AllocTable::entries_with_next(SectorId sector) const {
  const auto view = with_next(sector);
  return {view.begin(), view.end()};
}

std::span<const EntryKey> AllocTable::with_prev(SectorId sector) const {
  if (sector >= by_prev_.size()) return {};
  return by_prev_[sector];
}

std::span<const EntryKey> AllocTable::with_next(SectorId sector) const {
  if (sector >= by_next_.size()) return {};
  return by_next_[sector];
}

std::optional<EntryKey> AllocTable::random_normal_entry(
    util::Xoshiro256& rng) const {
  if (normal_entries_.empty()) return std::nullopt;
  return normal_entries_[rng.uniform_below(normal_entries_.size())];
}

void AllocTable::index_add(std::vector<std::vector<EntryKey>>& buckets,
                           std::vector<std::size_t>& positions,
                           SectorId sector, EntryKey key, std::size_t slot) {
  FI_CHECK_MSG(positions[slot] == kNoPos, "duplicate reverse-index entry");
  if (sector >= buckets.size()) buckets.resize(sector + 1);
  std::vector<EntryKey>& items = buckets[sector];
  positions[slot] = items.size();
  items.push_back(key);
}

void AllocTable::index_remove(std::vector<std::vector<EntryKey>>& buckets,
                              std::vector<std::size_t>& positions,
                              SectorId sector, EntryKey key,
                              std::size_t slot) {
  FI_CHECK_MSG(sector < buckets.size(), "reverse index missing sector");
  std::vector<EntryKey>& items = buckets[sector];
  const std::size_t pos = positions[slot];
  FI_CHECK_MSG(pos < items.size() && items[pos] == key,
               "reverse index missing entry");
  const EntryKey moved = items.back();
  items[pos] = moved;
  items.pop_back();
  positions[slot] = kNoPos;
  if (moved != key) positions[slot_of(moved.first, moved.second)] = pos;
}

void AllocTable::sampler_add(EntryKey key, std::size_t slot) {
  FI_CHECK_MSG(pos_in_normal_[slot] == kNoPos,
               "entry already in normal sampler");
  pos_in_normal_[slot] = normal_entries_.size();
  normal_entries_.push_back(key);
}

void AllocTable::sampler_remove(EntryKey key, std::size_t slot) {
  const std::size_t pos = pos_in_normal_[slot];
  FI_CHECK_MSG(pos < normal_entries_.size() && normal_entries_[pos] == key,
               "entry not in normal sampler");
  const EntryKey moved = normal_entries_.back();
  normal_entries_[pos] = moved;
  normal_entries_.pop_back();
  pos_in_normal_[slot] = kNoPos;
  if (moved != key) pos_in_normal_[slot_of(moved.first, moved.second)] = pos;
}

void AllocTable::save(util::BinaryWriter& writer) const {
  const auto files = sorted_by_id(files_);
  writer.u64(files.size());
  for (const auto& [id, file] : files) {
    writer.u64(id);
    writer.u32(file->row.desc.cp);
    for (ReplicaIndex idx = 0; idx < file->row.desc.cp; ++idx) {
      const std::size_t slot = file->offset + idx;
      writer.u64(prev_[slot]);
      writer.u64(next_[slot]);
      writer.u64(last_[slot]);
      writer.u8(static_cast<std::uint8_t>(state_[slot]));
      writer.raw(kReservedRowBytes);
    }
  }
  const auto save_index =
      [&writer](const std::vector<std::vector<EntryKey>>& buckets) {
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
          for (const EntryKey& key : items) {
            writer.u64(key.first);
            writer.u32(key.second);
          }
        }
      };
  save_index(by_prev_);
  save_index(by_next_);
  writer.u64(normal_entries_.size());
  for (const EntryKey& key : normal_entries_) {
    writer.u64(key.first);
    writer.u32(key.second);
  }
}

void AllocTable::load(util::BinaryReader& reader, std::uint64_t sector_count,
                      FileId next_file_id) {
  files_.clear();
  prev_.clear();
  next_.clear();
  last_.clear();
  state_.clear();
  escrowed_.clear();
  pos_in_prev_.clear();
  pos_in_next_.clear();
  pos_in_normal_.clear();
  by_prev_.clear();
  by_next_.clear();
  normal_entries_.clear();
  pool_.clear();

  // Slots with a link or in `normal` state, counted as the slab is read:
  // the setters keep each of them listed in its index or the sampler, so
  // those sections must list exactly these slots.
  std::uint64_t linked_prev = 0;
  std::uint64_t linked_next = 0;
  std::uint64_t normal_slots = 0;

  const std::uint64_t files = reader.count(12);
  files_.reserve(files);
  for (std::uint64_t f = 0; f < files; ++f) {
    const FileId file = reader.u64();
    const std::uint32_t cp = reader.u32();
    // File_Add issues ids below the counter and at least one replica.
    if (file == 0 || file >= next_file_id || cp == 0 ||
        cp > reader.remaining() / 57) {
      reader.fail();
      return;
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
      escrowed_.push_back(0);  // load_files reads the flags
      pos_in_prev_.push_back(kNoPos);
      pos_in_next_.push_back(kNoPos);
      pos_in_normal_.push_back(kNoPos);
    }
    if (!reader.ok()) return;
    File loaded;
    loaded.row.desc.cp = cp;  // size 0 marks a row load_files has not filled
    loaded.offset = offset;
    if (!files_.emplace(file, loaded).second) {
      reader.fail();  // duplicate file group: rows silently dropped otherwise
      return;
    }
  }

  // Index and sampler keys must reference loaded entries — an unknown file
  // or out-of-range replica would otherwise surface later as an FI_CHECK
  // abort in whatever protocol path walks the bucket. The returned slot
  // doubles as the intrusive-position anchor.
  const auto key_slot = [this](FileId file,
                               ReplicaIndex idx) -> std::size_t {
    const auto it = files_.find(file);
    if (it == files_.end() || idx >= it->second.row.desc.cp) return kNoPos;
    return it->second.offset + idx;
  };

  const auto load_index = [&](std::vector<std::vector<EntryKey>>& buckets,
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
      std::vector<EntryKey>& items = buckets[sector];
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
        items.emplace_back(file, idx);
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
    normal_entries_.emplace_back(file, idx);
  }
  if (normals != normal_slots) reader.fail();
}

void AllocTable::save_files(util::BinaryWriter& writer) const {
  const auto files = sorted_by_id(files_);
  writer.u64(files.size());
  for (const auto& [id, file] : files) {
    const FileRow& row = file->row;
    writer.u64(id);
    writer.u64(row.desc.size);
    writer.u64(row.desc.value);
    writer.raw(row.desc.merkle_root.bytes);
    writer.u32(row.desc.cp);
    writer.i64(row.desc.cntdown);
    writer.u8(static_cast<std::uint8_t>(row.desc.state));
    writer.u64(row.owner);
    writer.u64(row.added_at);
    writer.u64(row.desc.cp);  // one escrow flag per replica
    for (ReplicaIndex idx = 0; idx < row.desc.cp; ++idx) {
      writer.boolean(escrowed_[file->offset + idx] != 0);
    }
  }
}

void AllocTable::load_files(util::BinaryReader& reader) {
  const std::uint64_t rows = reader.count(74);
  for (std::uint64_t r = 0; r < rows; ++r) {
    const FileId id = reader.u64();
    FileRow row;
    row.desc.size = reader.u64();
    row.desc.value = reader.u64();
    reader.raw(row.desc.merkle_root.bytes);
    row.desc.cp = reader.u32();
    row.desc.cntdown = reader.i64();
    const std::uint8_t state = reader.u8();
    if (state > static_cast<std::uint8_t>(FileState::removed)) reader.fail();
    row.desc.state = static_cast<FileState>(state);
    row.owner = reader.u64();
    row.added_at = reader.u64();
    const std::uint64_t flags = reader.count(1);
    if (!reader.ok()) return;
    // The row fills the allocation group of the same id, once: the engine
    // walks `cp` of its entries and `cp` escrow flags, and a filled row has
    // a positive size.
    const auto it = files_.find(id);
    if (it == files_.end() || it->second.row.desc.size != 0 ||
        row.desc.cp != it->second.row.desc.cp || flags != row.desc.cp ||
        row.desc.size == 0) {
      reader.fail();
      return;
    }
    it->second.row = row;
    for (ReplicaIndex idx = 0; idx < row.desc.cp; ++idx) {
      escrowed_[it->second.offset + idx] = reader.boolean() ? 1 : 0;
    }
  }
  // Each row filled a distinct group, so equal counts leave none unfilled.
  if (reader.ok() && rows != files_.size()) reader.fail();
}

}  // namespace fi::core

#include "core/alloc_table.h"

#include <algorithm>

namespace fi::core {

std::size_t AllocTable::slot_of(FileId file, ReplicaIndex idx) const {
  const auto it = ranges_.find(file);
  FI_CHECK_MSG(it != ranges_.end(), "unknown file");
  FI_CHECK_MSG(idx < it->second.count, "replica index out of range");
  return it->second.offset + idx;
}

void AllocTable::create_file(FileId file, std::uint32_t cp) {
  FI_CHECK_MSG(!ranges_.contains(file), "file already allocated");
  FI_CHECK_MSG(cp >= 1, "file needs at least one replica");
  std::size_t offset = pool_.acquire(cp);
  if (offset == util::FixedBlockPool::kNoBlock) {
    offset = prev_.size();
    prev_.resize(offset + cp, kNoSector);
    next_.resize(offset + cp, kNoSector);
    last_.resize(offset + cp, kNoTime);
    state_.resize(offset + cp, AllocState::alloc);
    comm_r_.resize(offset + cp);
    pos_in_prev_.resize(offset + cp, kNoPos);
    pos_in_next_.resize(offset + cp, kNoPos);
    pos_in_normal_.resize(offset + cp, kNoPos);
  } else {
    for (std::size_t s = offset; s < offset + cp; ++s) {
      prev_[s] = kNoSector;
      next_[s] = kNoSector;
      last_[s] = kNoTime;
      state_[s] = AllocState::alloc;
      comm_r_[s] = crypto::Hash256{};
      pos_in_prev_[s] = kNoPos;
      pos_in_next_[s] = kNoPos;
      pos_in_normal_[s] = kNoPos;
    }
  }
  ranges_.emplace(file, Range{offset, cp});
}

void AllocTable::remove_file(FileId file) {
  const auto it = ranges_.find(file);
  FI_CHECK_MSG(it != ranges_.end(), "removing unknown file");
  const Range range = it->second;
  for (ReplicaIndex idx = 0; idx < range.count; ++idx) {
    const std::size_t slot = range.offset + idx;
    const EntryKey key{file, idx};
    if (prev_[slot] != kNoSector) {
      index_remove(by_prev_, pos_in_prev_, prev_[slot], key, slot);
    }
    if (next_[slot] != kNoSector) {
      index_remove(by_next_, pos_in_next_, next_[slot], key, slot);
    }
    if (state_[slot] == AllocState::normal) sampler_remove(key, slot);
  }
  ranges_.erase(it);
  pool_.release(range.count, range.offset);
}

std::uint32_t AllocTable::replica_count(FileId file) const {
  const auto it = ranges_.find(file);
  FI_CHECK_MSG(it != ranges_.end(), "unknown file");
  return it->second.count;
}

AllocEntry AllocTable::entry(FileId file, ReplicaIndex idx) const {
  const std::size_t slot = slot_of(file, idx);
  AllocEntry e;
  e.prev = prev_[slot];
  e.next = next_[slot];
  e.last = last_[slot];
  e.state = state_[slot];
  e.comm_r = comm_r_[slot];
  return e;
}

AllocTable::SweepView AllocTable::sweep_view_of(FileId file) {
  const auto it = ranges_.find(file);
  FI_CHECK_MSG(it != ranges_.end(), "unknown file");
  const Range range = it->second;
  SweepView view;
  view.state_ = state_.data() + range.offset;
  view.prev_ = prev_.data() + range.offset;
  view.next_ = next_.data() + range.offset;
  view.last_ = last_.data() + range.offset;
  view.comm_r_ = comm_r_.data() + range.offset;
  view.count_ = range.count;
  return view;
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

void AllocTable::set_comm_r(FileId file, ReplicaIndex idx,
                            const crypto::Hash256& comm_r) {
  comm_r_[slot_of(file, idx)] = comm_r;
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
  std::vector<FileId> files;
  files.reserve(ranges_.size());
  // fi-lint: allow(unordered-iter, keys collected then sorted before encoding)
  for (const auto& [file, _] : ranges_) files.push_back(file);
  std::sort(files.begin(), files.end());
  writer.u64(files.size());
  for (const FileId file : files) {
    const Range range = ranges_.at(file);
    writer.u64(file);
    writer.u32(range.count);
    for (ReplicaIndex idx = 0; idx < range.count; ++idx) {
      const std::size_t slot = range.offset + idx;
      writer.u64(prev_[slot]);
      writer.u64(next_[slot]);
      writer.u64(last_[slot]);
      writer.u8(static_cast<std::uint8_t>(state_[slot]));
      writer.raw(comm_r_[slot].bytes);
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

void AllocTable::load(util::BinaryReader& reader,
                      std::uint64_t sector_count) {
  ranges_.clear();
  prev_.clear();
  next_.clear();
  last_.clear();
  state_.clear();
  comm_r_.clear();
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
  ranges_.reserve(files);
  for (std::uint64_t f = 0; f < files; ++f) {
    const FileId file = reader.u64();
    const std::uint32_t cp = reader.u32();
    if (cp > reader.remaining() / 57) {
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
      crypto::Hash256 comm_r;
      reader.raw(comm_r.bytes);
      if (prev != kNoSector) ++linked_prev;
      if (next != kNoSector) ++linked_next;
      if (state == static_cast<std::uint8_t>(AllocState::normal)) {
        ++normal_slots;
      }
      prev_.push_back(prev);
      next_.push_back(next);
      last_.push_back(last);
      state_.push_back(static_cast<AllocState>(state));
      comm_r_.push_back(comm_r);
      pos_in_prev_.push_back(kNoPos);
      pos_in_next_.push_back(kNoPos);
      pos_in_normal_.push_back(kNoPos);
    }
    if (!reader.ok()) return;
    if (!ranges_.emplace(file, Range{offset, cp}).second) {
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
    const auto it = ranges_.find(file);
    if (it == ranges_.end() || idx >= it->second.count) return kNoPos;
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

}  // namespace fi::core

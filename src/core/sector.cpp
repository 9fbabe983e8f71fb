#include "core/sector.h"

#include <limits>

#include "util/checked.h"

namespace fi::core {

util::Result<SectorId> SectorTable::register_sector(ProviderId owner,
                                                    ByteCount capacity,
                                                    Time now) {
  if (capacity == 0 || capacity % params_.min_capacity != 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "sector capacity must be a positive multiple of "
                     "min_capacity");
  }
  const SectorId id = owners_.size();
  owners_.push_back(owner);
  capacities_.push_back(capacity);
  free_caps_.push_back(capacity);
  states_.push_back(SectorState::normal);
  registered_ats_.push_back(now);
  rent_acc_snapshots_.push_back(0);
  weights_.push_back(capacity / params_.min_capacity);
  capacity_by_state_[static_cast<std::size_t>(SectorState::normal)] =
      util::checked_add(
          capacity_by_state_[static_cast<std::size_t>(SectorState::normal)],
          capacity);
  rentable_units_ =
      util::checked_add(rentable_units_, capacity / params_.min_capacity);
  return id;
}

Sector SectorTable::at(SectorId id) const {
  FI_CHECK_MSG(id < owners_.size(), "unknown sector id");
  Sector s;
  s.id = id;
  s.owner = owners_[id];
  s.capacity = capacities_[id];
  s.free_cap = free_caps_[id];
  s.state = states_[id];
  s.registered_at = registered_ats_[id];
  s.rent_acc_snapshot = rent_acc_snapshots_[id];
  return s;
}

util::Result<SectorId> SectorTable::random_sector(
    util::Xoshiro256& rng) const {
  if (weights_.total() == 0) {
    return util::err(util::ErrorCode::unavailable,
                     "no normal sector available for sampling");
  }
  return static_cast<SectorId>(weights_.sample(rng));
}

util::Status SectorTable::reserve(SectorId id, ByteCount size) {
  FI_CHECK_MSG(id < owners_.size(), "unknown sector id");
  if (states_[id] != SectorState::normal) {
    return util::err(util::ErrorCode::failed_precondition,
                     "sector does not accept new data");
  }
  if (free_caps_[id] < size) {
    return util::err(util::ErrorCode::insufficient_space,
                     "sector free capacity below file size");
  }
  free_caps_[id] -= size;
  return util::Status::ok();
}

void SectorTable::release(SectorId id, ByteCount size) {
  FI_CHECK_MSG(id < owners_.size(), "unknown sector id");
  if (states_[id] == SectorState::corrupted ||
      states_[id] == SectorState::removed) {
    return;  // dead sectors own no reusable space
  }
  free_caps_[id] = util::checked_add(free_caps_[id], size);
  FI_CHECK_MSG(free_caps_[id] <= capacities_[id],
               "free capacity above capacity");
}

util::Status SectorTable::disable(SectorId id) {
  FI_CHECK_MSG(id < owners_.size(), "unknown sector id");
  if (states_[id] != SectorState::normal) {
    return util::err(util::ErrorCode::failed_precondition,
                     "only a normal sector can be disabled");
  }
  transition_capacity(id, SectorState::disabled);
  set_weight(id);
  return util::Status::ok();
}

bool SectorTable::mark_corrupted(SectorId id) {
  FI_CHECK_MSG(id < owners_.size(), "unknown sector id");
  if (states_[id] == SectorState::corrupted ||
      states_[id] == SectorState::removed) {
    return false;
  }
  transition_capacity(id, SectorState::corrupted);
  set_weight(id);
  return true;
}

void SectorTable::mark_removed(SectorId id) {
  FI_CHECK_MSG(id < owners_.size(), "unknown sector id");
  FI_CHECK_MSG(states_[id] == SectorState::disabled,
               "only a disabled sector can be removed");
  transition_capacity(id, SectorState::removed);
  set_weight(id);
}

void SectorTable::set_rent_acc_snapshot(SectorId id, RentAcc value) {
  FI_CHECK_MSG(id < rent_acc_snapshots_.size(), "unknown sector id");
  rent_acc_snapshots_[id] = value;
}

void SectorTable::transition_capacity(SectorId id, SectorState to) {
  const SectorState from = states_[id];
  const ByteCount capacity = capacities_[id];
  auto& from_total = capacity_by_state_[static_cast<std::size_t>(from)];
  from_total = util::checked_sub(from_total, capacity);
  auto& to_total = capacity_by_state_[static_cast<std::size_t>(to)];
  to_total = util::checked_add(to_total, capacity);

  const auto earns = [](SectorState state) {
    return state == SectorState::normal || state == SectorState::disabled;
  };
  const std::uint64_t units = capacity / params_.min_capacity;
  if (earns(from) && !earns(to)) {
    rentable_units_ = util::checked_sub(rentable_units_, units);
  } else if (!earns(from) && earns(to)) {
    rentable_units_ = util::checked_add(rentable_units_, units);
  }
  states_[id] = to;
}

void SectorTable::save(
    util::BinaryWriter& writer,
    const std::function<std::uint32_t(SectorId)>& references) const {
  writer.u64(owners_.size());
  for (std::size_t i = 0; i < owners_.size(); ++i) {
    writer.u64(i);  // dense id, kept on the wire for format stability
    writer.u64(owners_[i]);
    writer.u64(capacities_[i]);
    writer.u64(free_caps_[i]);
    writer.u8(static_cast<std::uint8_t>(states_[i]));
    writer.u64(registered_ats_[i]);
    writer.u32(references(i));
    writer.u128(rent_acc_snapshots_[i]);
  }
}

void SectorTable::load(util::BinaryReader& reader,
                       std::vector<std::uint32_t>& references) {
  owners_.clear();
  capacities_.clear();
  free_caps_.clear();
  states_.clear();
  registered_ats_.clear();
  references.clear();
  rent_acc_snapshots_.clear();
  weights_ = util::FenwickTree();
  capacity_by_state_.fill(0);
  rentable_units_ = 0;
  const std::uint64_t n = reader.count(53);
  owners_.reserve(n);
  capacities_.reserve(n);
  free_caps_.reserve(n);
  states_.reserve(n);
  registered_ats_.reserve(n);
  references.reserve(n);
  rent_acc_snapshots_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const SectorId id = reader.u64();
    // Ids are dense registration indices; set_weight and the Fenwick tree
    // index by them, so a non-dense id in a crafted body must be rejected
    // here, not discovered as an out-of-bounds write.
    if (id != i) {
      reader.fail();
      return;
    }
    const ProviderId owner = reader.u64();
    const ByteCount capacity = reader.u64();
    const ByteCount free_cap = reader.u64();
    const auto state = static_cast<SectorState>(reader.u8());
    const Time registered_at = reader.u64();
    const std::uint32_t ref_count = reader.u32();
    const RentAcc rent_acc_snapshot = reader.u128();
    if (static_cast<std::size_t>(state) >= kSectorStateCount) reader.fail();
    if (!reader.ok()) return;  // caller checks ok(); table stays consistent
    // save() writes only what register_sector admits (a positive multiple
    // of min_capacity), free space within capacity, and totals that never
    // wrapped. Reject any other row here, before it reaches the sums
    // below or a run-time FI_CHECK.
    ByteCount& state_total =
        capacity_by_state_[static_cast<std::size_t>(state)];
    const bool earns =
        state == SectorState::normal || state == SectorState::disabled;
    const std::uint64_t units = capacity / params_.min_capacity;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    if (capacity == 0 || capacity % params_.min_capacity != 0 ||
        free_cap > capacity || capacity > kMax - state_total ||
        (earns && units > kMax - rentable_units_)) {
      reader.fail();
      return;
    }
    owners_.push_back(owner);
    capacities_.push_back(capacity);
    free_caps_.push_back(free_cap);
    states_.push_back(state);
    registered_ats_.push_back(registered_at);
    references.push_back(ref_count);
    rent_acc_snapshots_.push_back(rent_acc_snapshot);
    weights_.push_back(0);
    set_weight(id);
    state_total += capacity;
    if (earns) rentable_units_ += units;
  }
}

void SectorTable::set_weight(SectorId id) {
  const std::uint64_t weight = (states_[id] == SectorState::normal)
                                   ? capacities_[id] / params_.min_capacity
                                   : 0;
  weights_.set(id, weight);
}

}  // namespace fi::core

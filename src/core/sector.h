#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/params.h"
#include "core/types.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/fenwick.h"
#include "util/prng.h"
#include "util/status.h"

/// Sector registry plus the paper's `RandomSector()` primitive.
///
/// Sampling is weighted by *capacity* (Table I): a Fenwick tree keyed by
/// sector id holds each sector's capacity in `minCapacity` units while the
/// sector is `normal`, and zero otherwise, so one O(log n) prefix search
/// draws a live sector with the correct distribution even as sectors
/// register, disable and corrupt online.
///
/// Storage is struct-of-arrays: each field lives in its own dense vector
/// indexed by sector id. The epoch-loop hot paths touch one or two fields
/// per sector (`state` during proof sweeps, `rent_acc_snapshot` during
/// settlement), so packing a field per cache line instead of a 64-byte
/// record per sector cuts the sweep's memory traffic by ~8x. The AoS
/// `Sector` struct survives as the *view* type: `at` materializes one on
/// demand, which existing `const Sector&` call sites bind via lifetime
/// extension.
namespace fi::core {

/// Fixed-point rent accumulator value: tokens per capacity unit, scaled by
/// 2^kRentAccFracBits (staking-style reward-per-share accounting).
using RentAcc = unsigned __int128;
inline constexpr unsigned kRentAccFracBits = 32;

struct Sector {
  SectorId id = kNoSector;
  ProviderId owner = kNoAccount;
  ByteCount capacity = 0;
  ByteCount free_cap = 0;
  SectorState state = SectorState::normal;
  Time registered_at = 0;
  /// Global rent accumulator value at this sector's last settlement
  /// (maintained by Network; rent owed is (acc - snapshot) * capacity units).
  RentAcc rent_acc_snapshot = 0;
};

class SectorTable {
 public:
  explicit SectorTable(const Params& params) : params_(params) {}

  /// Registers a sector; capacity must be a positive multiple of
  /// `min_capacity`.
  util::Result<SectorId> register_sector(ProviderId owner, ByteCount capacity,
                                         Time now);

  [[nodiscard]] bool exists(SectorId id) const { return id < owners_.size(); }
  /// Materialized full-record view of one sector (a *copy*: it does not
  /// track later table mutations — re-read after mutating).
  [[nodiscard]] Sector at(SectorId id) const;
  [[nodiscard]] std::size_t count() const { return owners_.size(); }

  /// Single-field reads — the sweep hot path uses these so a proof sweep
  /// streams the (dense) state array instead of striding 64-byte records.
  [[nodiscard]] SectorState state(SectorId id) const {
    FI_CHECK_MSG(id < states_.size(), "unknown sector id");
    return states_[id];
  }
  [[nodiscard]] ProviderId owner(SectorId id) const {
    FI_CHECK_MSG(id < owners_.size(), "unknown sector id");
    return owners_[id];
  }
  [[nodiscard]] ByteCount capacity(SectorId id) const {
    FI_CHECK_MSG(id < capacities_.size(), "unknown sector id");
    return capacities_[id];
  }
  [[nodiscard]] RentAcc rent_acc_snapshot(SectorId id) const {
    FI_CHECK_MSG(id < rent_acc_snapshots_.size(), "unknown sector id");
    return rent_acc_snapshots_[id];
  }

  /// `RandomSector()`: capacity-weighted draw over normal sectors.
  /// Fails when no normal sector exists.
  [[nodiscard]] util::Result<SectorId> random_sector(util::Xoshiro256& rng) const;

  /// Reserve `size` bytes of free capacity (File_Add / Auto_Refresh
  /// choosing this sector). Fails if free capacity is insufficient.
  util::Status reserve(SectorId id, ByteCount size);
  /// Return `size` bytes of reserved/used capacity.
  void release(SectorId id, ByteCount size);

  /// Sector_Disable: stop accepting new files (weight -> 0).
  util::Status disable(SectorId id);
  /// Marks a sector corrupted (weight -> 0); returns false if it already
  /// was corrupted or removed.
  bool mark_corrupted(SectorId id);
  /// Removes a disabled sector (Network calls it once no allocation entry
  /// names the sector).
  void mark_removed(SectorId id);

  /// Rent settlement bookkeeping (Network is the only caller).
  void set_rent_acc_snapshot(SectorId id, RentAcc value);

  /// Total capacity over sectors in the given state (O(1), maintained
  /// incrementally across every state transition).
  [[nodiscard]] ByteCount total_capacity(SectorState state) const {
    return capacity_by_state_[static_cast<std::size_t>(state)];
  }
  /// Total capacity of sectors that still hold data (normal + disabled).
  [[nodiscard]] ByteCount live_capacity() const {
    return total_capacity(SectorState::normal) +
           total_capacity(SectorState::disabled);
  }
  /// Capacity units (capacity / min_capacity) over rent-earning sectors
  /// (normal + disabled) — the denominator of the rent accumulator. O(1).
  [[nodiscard]] std::uint64_t rentable_units() const {
    return rentable_units_;
  }

  /// Canonical snapshot encoding / full-state restore (`src/snapshot`).
  /// The wire format is record-ordered (one full sector after another),
  /// unchanged from the AoS layout, so snapshots and golden state hashes
  /// are byte-identical across the SoA refactor. `load` rebuilds the
  /// Fenwick weights and the per-state capacity totals from the serialized
  /// sectors, so the derived structures can never disagree with the
  /// restored state. It fails the reader on a row `save` cannot produce: a
  /// capacity that is zero or not a multiple of `min_capacity`, free space
  /// above capacity, or a total that would wrap.
  ///
  /// Each row also carries the sector's reference count, which the table
  /// does not hold (the allocation entries that name a sector are its
  /// references): `save` writes `references(id)` there, and `load` returns
  /// the stored counts in `references` for the caller to check against
  /// the entries once it has loaded them.
  void save(util::BinaryWriter& writer,
            const std::function<std::uint32_t(SectorId)>& references) const;
  void load(util::BinaryReader& reader, std::vector<std::uint32_t>& references);

 private:
  void set_weight(SectorId id);
  /// Transitions a sector's state, moving its capacity between the
  /// per-state totals and keeping the rentable-unit count consistent
  /// (normal/disabled earn rent). The only writer of a sector's state
  /// after registration.
  void transition_capacity(SectorId id, SectorState to);

  // fi-lint: not-serialized(config reference wired at construction)
  const Params& params_;
  /// Struct-of-arrays storage, all indexed by dense SectorId. (`id` itself
  /// is implicit — it equals the index — but stays on the wire for format
  /// stability.)
  std::vector<ProviderId> owners_;
  std::vector<ByteCount> capacities_;
  std::vector<ByteCount> free_caps_;
  std::vector<SectorState> states_;
  std::vector<Time> registered_ats_;
  std::vector<RentAcc> rent_acc_snapshots_;
  // fi-lint: not-serialized(derived: load() rebuilds the Fenwick tree)
  util::FenwickTree weights_;
  // fi-lint: not-serialized(derived: load() re-accumulates per-state totals)
  std::array<ByteCount, kSectorStateCount> capacity_by_state_{};
  // fi-lint: not-serialized(derived: load() re-accumulates rentable units)
  std::uint64_t rentable_units_ = 0;
};

}  // namespace fi::core

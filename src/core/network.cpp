#include "core/network.h"

#include <algorithm>
#include <cmath>

#include "util/checked.h"
#include "util/distributions.h"

namespace fi::core {

namespace {

/// Integer countdown (in proof cycles) from Exp(AvgRefresh), floored at 1.
std::int64_t sample_refresh_countdown(util::Xoshiro256& rng,
                                      double avg_refresh) {
  const double x = util::sample_exponential(rng, avg_refresh);
  const double cycles = std::ceil(x);
  return cycles < 1.0 ? 1 : static_cast<std::int64_t>(cycles);
}

/// Whether an entry's links are ones the engine leaves beside `state`:
/// `activate` leaves a normal entry stored with no target, a confirmed
/// replica still names the target it landed in, and `start_refresh_to`
/// gives a stored replica its target as it turns it back to alloc.
/// `cancel_refresh` and `corrupt_sector_internal` keep all three.
bool links_fit_state(AllocState state, SectorId prev, SectorId next) {
  switch (state) {
    case AllocState::normal:
      return prev != kNoSector && next == kNoSector;
    case AllocState::confirm:
      return next != kNoSector;
    case AllocState::alloc:
      return prev == kNoSector || next != kNoSector;
    case AllocState::corrupted:
      return true;
  }
  return false;
}

}  // namespace

Network::Network(Params params, ledger::Ledger& ledger, std::uint64_t seed)
    : params_(params),
      ledger_(ledger),
      rng_(seed),
      escrow_(ledger.create_account()),
      pool_(ledger.create_account()),
      rent_pool_(ledger.create_account()),
      gas_sink_(ledger.create_account()),
      traffic_escrow_(ledger.create_account()),
      sector_table_(params_),
      deposit_book_(ledger, escrow_, pool_, sector_table_) {
  params_.validate();
  // Recurring rent distribution (§IV-A2).
  pending_.schedule(params_.rent_period(),
                    Task{TaskKind::rent_distribution, kNoFile, 0});
}

bool Network::charge_gas(AccountId payer, TokenAmount amount) {
  return ledger_.transfer(payer, gas_sink_, amount).is_ok();
}

// ---------------------------------------------------------------------------
// Provider requests
// ---------------------------------------------------------------------------

util::Result<SectorId> Network::sector_register(ProviderId provider,
                                                ByteCount capacity) {
  if (!ledger_.exists(provider)) {
    return util::err(util::ErrorCode::not_found, "unknown provider account");
  }
  if (!charge_gas(provider, params_.gas_per_task)) {
    return util::err(util::ErrorCode::insufficient_funds,
                     "cannot pay request gas");
  }
  const TokenAmount deposit = params_.sector_deposit(capacity);
  if (ledger_.balance(provider) < deposit) {
    return util::err(util::ErrorCode::insufficient_funds,
                     "balance below required sector deposit");
  }
  auto id = sector_table_.register_sector(provider, capacity, now_);
  if (!id.is_ok()) return id.status();
  // Rent accrues only from this point on.
  sector_table_.set_rent_acc_snapshot(id.value(), rent_acc_);
  FI_CHECK(deposit_book_.pledge(id.value(), deposit).is_ok());
  if (params_.admission_rebalance) {
    admission_rebalance(id.value());
  }
  return id;
}

util::Status Network::sector_disable(ProviderId provider, SectorId sector) {
  if (!sector_table_.exists(sector)) {
    return util::err(util::ErrorCode::not_found, "unknown sector");
  }
  if (sector_table_.at(sector).owner != provider) {
    return util::err(util::ErrorCode::permission_denied,
                     "caller does not own the sector");
  }
  // Settle before the gas check: an exiting provider must not fail on
  // liquidity its own sector has already earned.
  settle_rent_internal(sector);
  if (!charge_gas(provider, params_.gas_per_task)) {
    return util::err(util::ErrorCode::insufficient_funds,
                     "cannot pay request gas");
  }
  if (auto status = sector_table_.disable(sector); !status.is_ok()) {
    return status;
  }
  remove_if_drained(sector);  // already drained: exits immediately
  return util::Status::ok();
}

util::Status Network::file_confirm(ProviderId provider, FileId file,
                                   ReplicaIndex index, SectorId sector) {
  const FileView f = alloc_table_.find(file);
  if (!f) {
    return util::err(util::ErrorCode::not_found, "unknown file");
  }
  if (index >= f.size()) {
    return util::err(util::ErrorCode::invalid_argument,
                     "replica index out of range");
  }
  if (!sector_table_.exists(sector) ||
      sector_table_.owner(sector) != provider) {
    return util::err(util::ErrorCode::permission_denied,
                     "caller does not own the sector");
  }
  if (f.next(index) != sector || f.state(index) != AllocState::alloc) {
    return util::err(util::ErrorCode::failed_precondition,
                     "entry is not awaiting confirmation by this sector");
  }
  // Initial upload: release the escrowed traffic fee to the provider. The
  // confirmation ends the escrow, so read the flag first.
  const bool escrowed = f.escrowed(index);
  f.set_state(index, AllocState::confirm);
  if (escrowed) {
    const TokenAmount fee = params_.traffic_fee(f.row().desc.size);
    FI_CHECK(ledger_.transfer(traffic_escrow_, provider, fee).is_ok());
  }
  return util::Status::ok();
}

// ---------------------------------------------------------------------------
// Client requests
// ---------------------------------------------------------------------------

util::Result<FileId> Network::file_add(ClientId client, const FileInfo& info) {
  if (!ledger_.exists(client)) {
    return util::err(util::ErrorCode::not_found, "unknown client account");
  }
  if (info.size == 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "file size must be positive");
  }
  if (info.value < params_.min_value || info.value % params_.min_value != 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "file value must be a positive multiple of min_value");
  }
  if (!charge_gas(client, params_.gas_per_task)) {
    return util::err(util::ErrorCode::insufficient_funds,
                     "cannot pay request gas");
  }
  const std::uint32_t cp = params_.replica_count(info.value);
  const TokenAmount traffic_total =
      util::checked_mul(params_.traffic_fee(info.size), cp);
  const TokenAmount upfront =
      util::checked_add(traffic_total, params_.gas_per_task);  // CheckAlloc gas
  if (ledger_.balance(client) < upfront) {
    return util::err(util::ErrorCode::insufficient_funds,
                     "cannot prepay traffic fees and gas");
  }
  const Time deadline =
      util::checked_add(now_, params_.transfer_window(info.size));

  // Sample cp sectors (Fig. 4: resample while the draw lacks space).
  std::vector<SectorId> chosen;
  chosen.reserve(cp);
  for (std::uint32_t i = 0; i < cp; ++i) {
    auto sector = sample_sector_with_space(info.size, chosen);
    if (!sector.is_ok()) {
      for (SectorId s : chosen) release_sector(s, info.size);
      return sector.status();
    }
    chosen.push_back(sector.value());
  }

  // Commit: charge, record, link, schedule.
  const FileId id = next_file_id_++;
  FI_CHECK(ledger_.transfer(client, traffic_escrow_, traffic_total).is_ok());
  FI_CHECK(charge_gas(client, params_.gas_per_task));

  const FileView f = alloc_table_.create_file(id, cp);  // fees escrowed
  FileRow& row = f.row();
  row.desc.size = info.size;
  row.desc.value = info.value;
  row.desc.merkle_root = info.merkle_root;
  row.owner = client;
  row.added_at = now_;

  for (std::uint32_t i = 0; i < cp; ++i) {
    link_next(f, i, chosen[i]);
    bus_.emit(ReplicaTransferRequested{id, i, kNoSector, chosen[i], client,
                                       deadline});
  }
  pending_.schedule(deadline, Task{TaskKind::check_alloc, id, 0});
  ++stats_.files_added;
  return id;
}

util::Status Network::file_discard(ClientId client, FileId file) {
  const FileView f = alloc_table_.find(file);
  if (!f) {
    return util::err(util::ErrorCode::not_found, "unknown file");
  }
  if (f.row().owner != client) {
    return util::err(util::ErrorCode::permission_denied,
                     "caller does not own the file");
  }
  if (!charge_gas(client, params_.gas_per_task)) {
    return util::err(util::ErrorCode::insufficient_funds,
                     "cannot pay request gas");
  }
  f.row().desc.state = FileState::discard;
  return util::Status::ok();
}

util::Result<ByteCount> Network::file_get(ClientId client, FileId file,
                                          std::vector<SectorId>& holders) {
  holders.clear();
  const FileView f = alloc_table_.find(file);
  if (!f) {
    return util::err(util::ErrorCode::not_found, "unknown file");
  }
  if (!charge_gas(client, params_.gas_per_task)) {
    return util::err(util::ErrorCode::insufficient_funds,
                     "cannot pay request gas");
  }
  for (ReplicaIndex i = 0; i < f.size(); ++i) {
    const SectorId prev = f.prev(i);
    if (f.state(i) == AllocState::corrupted || prev == kNoSector) continue;
    if (sector_table_.state(prev) == SectorState::corrupted) continue;
    holders.push_back(prev);
  }
  return f.row().desc.size;
}

// ---------------------------------------------------------------------------
// Time and task dispatch
// ---------------------------------------------------------------------------

void Network::advance_to(Time t) {
  FI_CHECK_MSG(t >= now_, "cannot advance backwards");
  while (pending_.next_time() != kNoTime && pending_.next_time() <= t) {
    const Time batch_time = pending_.next_time();
    now_ = batch_time;
    due_buffer_.clear();
    pending_.pop_due_into(batch_time, due_buffer_);
    for (const auto& [time, task] : due_buffer_) run_task(task);
  }
  now_ = t;
}

void Network::run_task(const Task& task) {
  switch (task.kind) {
    case TaskKind::check_alloc:
      auto_check_alloc(task.file);
      break;
    case TaskKind::check_proof:
      auto_check_proof(task.file);
      break;
    case TaskKind::check_refresh:
      auto_check_refresh(task.file, task.index);
      break;
    case TaskKind::rent_distribution:
      distribute_rent();
      break;
  }
}

// ---------------------------------------------------------------------------
// Auto tasks
// ---------------------------------------------------------------------------

void Network::auto_check_alloc(FileId file) {
  const FileView f = alloc_table_.find(file);
  if (!f) return;

  // Fig. 7, first loop: any entry neither confirmed nor corrupted fails
  // the upload.
  for (ReplicaIndex i = 0; i < f.size(); ++i) {
    if (f.state(i) != AllocState::confirm &&
        f.state(i) != AllocState::corrupted) {
      ++stats_.upload_failures;
      refund_unconfirmed_traffic(f);
      bus_.emit(UploadFailed{file, "replica " + std::to_string(i) +
                                       " was not confirmed in time"});
      remove_file_internal(file);
      return;
    }
  }

  // Second loop: activate confirmed entries.
  for (ReplicaIndex i = 0; i < f.size(); ++i) {
    if (f.state(i) == AllocState::confirm) activate(f, i);
    // Corrupted entries stay as dead slots (Fig. 7 else-branch).
  }

  FileDescriptor& desc = f.row().desc;
  desc.cntdown = sample_refresh_countdown(rng_, params_.avg_refresh);
  pending_.schedule(now_ + params_.proof_cycle,
                    Task{TaskKind::check_proof, file, 0});
  total_stored_value_ = util::checked_add(total_stored_value_, desc.value);
  ++stats_.files_stored;
  bus_.emit(FileStored{file});
}

void Network::auto_check_proof(FileId file) {
  // One lookup serves the whole visit. The view reads entries live:
  // confiscating one replica's sector can re-link or corrupt this file's
  // other entries. It stays valid throughout, because
  // corrupt_sector_internal never creates or removes a file, so the slab
  // never reallocates during the pass.
  const FileView f = alloc_table_.find(file);
  if (!f) return;
  const bool discarded_for_rent = charge_rent_or_discard(f.row());

  // Proof timeliness per replica, in replica order.
  for (ReplicaIndex i = 0; i < f.size(); ++i) {
    if (f.state(i) == AllocState::corrupted) continue;  // dead slot
    const SectorId prev = f.prev(i);
    if (prev == kNoSector) continue;
    if (sector_table_.state(prev) == SectorState::corrupted) continue;
    if (!is_physically_corrupted(prev)) {
      f.set_last(i, now_);  // auto-proven: neither late nor breached
      continue;
    }
    const Time last = f.last(i);
    if (last == kNoTime || last + params_.proof_deadline < now_) {
      // ProofDeadline breached: confiscate and corrupt the sector.
      corrupt_sector_internal(prev);
    } else if (last + params_.proof_due < now_) {
      const TokenAmount slashed = deposit_book_.punish(prev, params_.punish_bp);
      ++stats_.punishments;
      bus_.emit(ProviderPunished{prev, slashed, "late proof"});
    }
  }

  bool all_corrupted = true;
  for (ReplicaIndex i = 0; i < f.size(); ++i) {
    if (f.state(i) != AllocState::corrupted) {
      all_corrupted = false;
      break;
    }
  }
  finish_check_proof(f, discarded_for_rent, all_corrupted);
}

bool Network::charge_rent_or_discard(FileRow& row) {
  // Fig. 8: charge the next cycle's rent + prepaid gas, or discard.
  if (row.desc.state != FileState::normal) return false;
  const TokenAmount rent = params_.rent_per_cycle(row.desc.size, row.desc.cp);
  const TokenAmount gas = util::checked_mul(params_.gas_per_task, 2);
  if (ledger_.balance(row.owner) < util::checked_add(rent, gas)) {
    row.desc.state = FileState::discard;
    return true;
  }
  FI_CHECK(ledger_.transfer(row.owner, rent_pool_, rent).is_ok());
  rent_undistributed_scaled_ += static_cast<RentAcc>(rent) << kRentAccFracBits;
  total_rent_charged_ = util::checked_add(total_rent_charged_, rent);
  FI_CHECK(charge_gas(row.owner, gas));
  return false;
}

void Network::finish_check_proof(const FileView& f, bool discarded_for_rent,
                                 bool all_corrupted) {
  // Fig. 8 tail: removal / loss / continuation.
  const FileId file = f.id();
  FileDescriptor& desc = f.row().desc;
  if (desc.state == FileState::discard) {
    total_stored_value_ = util::checked_sub(total_stored_value_, desc.value);
    ++stats_.files_discarded;
    bus_.emit(FileDiscarded{file, discarded_for_rent});
    remove_file_internal(file);
    return;
  }

  if (all_corrupted) {
    const TokenAmount value = desc.value;
    ++stats_.files_lost;
    stats_.value_lost = util::checked_add(stats_.value_lost, value);
    const TokenAmount paid = deposit_book_.compensate(f.row().owner, value);
    total_stored_value_ = util::checked_sub(total_stored_value_, value);
    bus_.emit(FileLost{file, value, paid});
    remove_file_internal(file);
    return;
  }

  pending_.schedule(now_ + params_.proof_cycle,
                    Task{TaskKind::check_proof, file, 0});
  if (desc.cntdown > 0) {
    --desc.cntdown;
    if (desc.cntdown == 0) {
      const auto index = static_cast<ReplicaIndex>(rng_.uniform_below(desc.cp));
      auto_refresh(f, index);
    }
  }
}

void Network::auto_refresh(const FileView& f, ReplicaIndex index) {
  FileDescriptor& desc = f.row().desc;
  const AllocEntry e = f.entry(index);
  if (e.state != AllocState::normal) {
    // Replica busy (mid-refresh or dead): try again after a fresh countdown.
    resample_cntdown(desc);
    return;
  }
  auto sector = sector_table_.random_sector(rng_);
  if (!sector.is_ok()) {
    resample_cntdown(desc);
    return;
  }
  const SectorId target = sector.value();
  if (target == e.prev) {
    // The fresh i.i.d. draw picked the current location: the refresh is a
    // no-op move; the replica stays and the countdown restarts.
    ++stats_.refreshes_self;
    resample_cntdown(desc);
    return;
  }
  if (params_.distinct_sectors) {
    for (ReplicaIndex j = 0; j < f.size(); ++j) {
      if (j != index && (f.prev(j) == target || f.next(j) == target)) {
        ++stats_.refresh_collisions;
        bus_.emit(RefreshSkipped{f.id(), index, target});
        resample_cntdown(desc);
        return;
      }
    }
  }
  if (!start_refresh_to(f, index, target)) {
    // Fig. 9 else-branch ("almost never happens"): skip, re-sample countdown.
    ++stats_.refresh_collisions;
    bus_.emit(RefreshSkipped{f.id(), index, target});
    resample_cntdown(desc);
  }
}

bool Network::start_refresh_to(const FileView& f, ReplicaIndex index,
                               SectorId target) {
  FI_CHECK(f.state(index) == AllocState::normal);
  const FileId file = f.id();
  const SectorId source = f.prev(index);
  const ByteCount size = f.row().desc.size;
  const Time deadline =
      util::checked_add(now_, params_.transfer_window(size));
  if (!reserve_sector(target, size).is_ok()) {
    return false;
  }
  link_next(f, index, target);
  f.set_state(index, AllocState::alloc);
  pending_.schedule(deadline, Task{TaskKind::check_refresh, file, index});
  bus_.emit(ReplicaTransferRequested{file, index, source, target,
                                     f.row().owner, deadline});
  ++stats_.refreshes_started;
  return true;
}

void Network::auto_check_refresh(FileId file, ReplicaIndex index) {
  const FileView f = alloc_table_.find(file);
  if (!f) return;
  const AllocEntry e = f.entry(index);
  if (e.next == kNoSector) return;  // stale: cancelled or already completed

  if (e.state == AllocState::confirm) {
    // Handoff succeeded: swap prev <- next (Fig. 9).
    release_sector(e.prev, f.row().desc.size);
    bus_.emit(ReplicaReleased{file, index, e.prev});
    activate(f, index);
    resample_cntdown(f.row().desc);
    ++stats_.refreshes_completed;
    return;
  }
  if (e.state == AllocState::corrupted) {
    // The storing sector died mid-refresh: the refresh is over, so restart
    // the countdown it left at 0.
    resample_cntdown(f.row().desc);
    return;
  }
  if (e.state != AllocState::alloc) return;

  // Handoff failed: punish the successor and every current holder
  // (liveness — any of them could have served the data), then retry.
  ++stats_.refreshes_failed;
  const TokenAmount slashed_next =
      deposit_book_.punish(e.next, params_.punish_bp);
  ++stats_.punishments;
  bus_.emit(
      ProviderPunished{e.next, slashed_next, "failed refresh handoff"});
  for (ReplicaIndex j = 0; j < f.size(); ++j) {
    const SectorId holder = f.prev(j);
    if (holder == kNoSector || f.state(j) == AllocState::corrupted) {
      continue;
    }
    if (sector_table_.state(holder) == SectorState::corrupted) {
      continue;
    }
    const TokenAmount slashed =
        deposit_book_.punish(holder, params_.punish_bp);
    ++stats_.punishments;
    bus_.emit(ProviderPunished{holder, slashed,
                               "failed refresh handoff (holder)"});
  }
  cancel_refresh(f, index);
  f.set_state(index, AllocState::normal);
  auto_refresh(f, index);  // Fig. 9: call Refresh(f, i) again
}

void Network::distribute_rent() {
  // O(1) per cycle: credit the period's rent to the global
  // reward-per-capacity-unit accumulator; sectors settle lazily. The
  // committed amount is subtracted from the undistributed balance at full
  // fixed-point precision, so the sub-unit remainder carries to the next
  // cycle without ever being credited twice.
  const std::uint64_t units = sector_table_.rentable_units();
  if (rent_undistributed_scaled_ > 0 && units > 0) {
    const RentAcc delta = rent_undistributed_scaled_ / units;
    if (delta > 0) {
      rent_acc_ += delta;
      const RentAcc committed = delta * units;
      rent_undistributed_scaled_ -= committed;
      const auto credited =
          static_cast<TokenAmount>(committed >> kRentAccFracBits);
      if (credited > 0) bus_.emit(RentDistributed{credited});
    }
  }
  pending_.schedule(now_ + params_.rent_period(),
                    Task{TaskKind::rent_distribution, kNoFile, 0});
}

TokenAmount Network::owed_rent(const Sector& s) const {
  if (s.state == SectorState::corrupted || s.state == SectorState::removed) {
    return 0;
  }
  const std::uint64_t units = s.capacity / params_.min_capacity;
  const RentAcc delta = rent_acc_ - s.rent_acc_snapshot;
  if (delta == 0 || units == 0) return 0;
  FI_CHECK_MSG(delta <= ~RentAcc{0} / units, "rent accumulator overflow");
  return static_cast<TokenAmount>((delta * units) >> kRentAccFracBits);
}

TokenAmount Network::accrued_rent(SectorId sector) const {
  return owed_rent(sector_table_.at(sector));
}

TokenAmount Network::settle_rent_internal(SectorId sector) {
  const Sector s = sector_table_.at(sector);
  const TokenAmount owed = owed_rent(s);
  if (owed == 0) return 0;
  // Advance the snapshot by exactly the paid entitlement (rounded up, so
  // the pool can never be overdrawn); the sub-token fraction keeps
  // accruing instead of being shaved off at every settlement.
  const std::uint64_t units = s.capacity / params_.min_capacity;
  const RentAcc consumed =
      ((static_cast<RentAcc>(owed) << kRentAccFracBits) + units - 1) / units;
  sector_table_.set_rent_acc_snapshot(sector, s.rent_acc_snapshot + consumed);
  FI_CHECK(ledger_.transfer(rent_pool_, s.owner, owed).is_ok());
  total_rent_paid_ = util::checked_add(total_rent_paid_, owed);
  return owed;
}

TokenAmount Network::settle_rent(SectorId sector) {
  FI_CHECK_MSG(sector_table_.exists(sector), "unknown sector");
  return settle_rent_internal(sector);
}

TokenAmount Network::settle_all_rent() {
  TokenAmount paid = 0;
  for (SectorId id = 0; id < sector_table_.count(); ++id) {
    paid = util::checked_add(paid, settle_rent_internal(id));
  }
  return paid;
}

util::Status Network::reserve_sector(SectorId sector, ByteCount size) {
  auto status = sector_table_.reserve(sector, size);
  if (status.is_ok()) settle_rent_internal(sector);
  return status;
}

void Network::release_sector(SectorId sector, ByteCount size) {
  sector_table_.release(sector, size);
  settle_rent_internal(sector);
}

// ---------------------------------------------------------------------------
// Corruption
// ---------------------------------------------------------------------------

void Network::mark_phys_corrupted(SectorId sector) {
  if (sector >= physically_corrupted_.size()) {
    physically_corrupted_.resize(sector + 1, 0);
  }
  physically_corrupted_[sector] = 1;
}

void Network::corrupt_sector_physical(SectorId sector) {
  FI_CHECK(sector_table_.exists(sector));
  mark_phys_corrupted(sector);
}

void Network::corrupt_sector_now(SectorId sector) {
  FI_CHECK(sector_table_.exists(sector));
  mark_phys_corrupted(sector);
  corrupt_sector_internal(sector);
}

void Network::restore_sector_physical(SectorId sector) {
  FI_CHECK(sector_table_.exists(sector));
  if (sector_table_.state(sector) == SectorState::corrupted) return;
  if (sector < physically_corrupted_.size()) physically_corrupted_[sector] = 0;
}

void Network::corrupt_sector_internal(SectorId sector) {
  const SectorState state = sector_table_.state(sector);
  if (state == SectorState::corrupted || state == SectorState::removed) {
    return;  // already dead
  }
  // Rent credited before the corruption was honestly earned; pay it out
  // before the accrual freezes.
  settle_rent_internal(sector);
  FI_CHECK(sector_table_.mark_corrupted(sector));
  mark_phys_corrupted(sector);
  const TokenAmount confiscated = deposit_book_.confiscate(sector);
  ++stats_.sectors_corrupted;
  bus_.emit(SectorCorrupted{sector, confiscated});

  // Entries stored here (prev == sector).
  for (const EntryKey& key : alloc_table_.entries_with_prev(sector)) {
    const auto [file, index] = key;
    const FileView f = alloc_table_.find(file);
    const AllocEntry e = f.entry(index);
    if (e.state == AllocState::corrupted) continue;
    if (e.state == AllocState::confirm && e.next != kNoSector) {
      // The replica already landed in the refresh target: complete the
      // swap instead of losing a healthy copy. The target is live, normal
      // or draining: a dead target cancels the refresh when it dies.
      const SectorState target = sector_table_.state(e.next);
      FI_CHECK(target == SectorState::normal ||
               target == SectorState::disabled);
      activate(f, index);
      resample_cntdown(f.row().desc);
      continue;
    }
    if (e.state == AllocState::alloc && e.next != kNoSector) {
      // Outbound refresh whose source just died: cancel the transfer and
      // restart the countdown the refresh left at 0, or the file's other
      // replicas would never refresh again.
      cancel_refresh(f, index);
      resample_cntdown(f.row().desc);
    }
    f.set_state(index, AllocState::corrupted);
  }

  // Entries flowing into this sector (next == sector).
  for (const EntryKey& key : alloc_table_.entries_with_next(sector)) {
    const auto [file, index] = key;
    const FileView f = alloc_table_.find(file);
    if (f.prev(index) == kNoSector) {
      // Initial upload target died: dead replica slot, tolerated by
      // Auto_CheckAlloc (Fig. 7 treats corrupted entries as acceptable).
      // The traffic fee for this replica is refunded (never delivered);
      // the corruption ends the escrow, so read the flag first.
      const bool escrowed = f.escrowed(index);
      link_next(f, index, kNoSector);
      f.set_state(index, AllocState::corrupted);
      if (escrowed) {
        const TokenAmount fee = params_.traffic_fee(f.row().desc.size);
        FI_CHECK(
            ledger_.transfer(traffic_escrow_, f.row().owner, fee).is_ok());
      }
    } else {
      // Refresh target died: cancel; the old holder keeps the replica.
      cancel_refresh(f, index);
      if (f.state(index) != AllocState::corrupted) {
        f.set_state(index, AllocState::normal);
        resample_cntdown(f.row().desc);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Internal helpers
// ---------------------------------------------------------------------------

void Network::link_prev(const FileView& f, ReplicaIndex i, SectorId sector) {
  const SectorId old = f.prev(i);
  if (old == sector) return;
  f.set_prev(i, sector);
  if (old != kNoSector) remove_if_drained(old);
}

void Network::link_next(const FileView& f, ReplicaIndex i, SectorId sector) {
  const SectorId old = f.next(i);
  if (old == sector) return;
  f.set_next(i, sector);
  if (old != kNoSector) remove_if_drained(old);
}

void Network::activate(const FileView& f, ReplicaIndex i) {
  const SectorId sector = f.next(i);
  link_prev(f, i, sector);
  link_next(f, i, kNoSector);
  f.set_last(i, now_);
  f.set_state(i, AllocState::normal);
  bus_.emit(ReplicaActivated{f.id(), i, sector});
}

void Network::cancel_refresh(const FileView& f, ReplicaIndex i) {
  release_sector(f.next(i), f.row().desc.size);
  link_next(f, i, kNoSector);
}

void Network::remove_if_drained(SectorId sector) {
  if (sector_table_.state(sector) != SectorState::disabled ||
      alloc_table_.references(sector) != 0) {
    return;
  }
  settle_rent_internal(sector);
  const TokenAmount refunded = deposit_book_.refund(sector);
  sector_table_.mark_removed(sector);
  bus_.emit(SectorRemoved{sector, refunded});
}

util::Result<SectorId> Network::sample_sector_with_space(
    ByteCount size, const std::vector<SectorId>& already_chosen) {
  for (std::uint32_t attempt = 0; attempt < params_.max_alloc_resample;
       ++attempt) {
    auto sector = sector_table_.random_sector(rng_);
    if (!sector.is_ok()) return sector.status();
    const SectorId s = sector.value();
    if (params_.distinct_sectors &&
        std::find(already_chosen.begin(), already_chosen.end(), s) !=
            already_chosen.end()) {
      ++stats_.add_resamples;
      continue;
    }
    if (reserve_sector(s, size).is_ok()) return s;
    ++stats_.add_resamples;  // collision: resample (Fig. 4 while-loop)
  }
  return util::err(util::ErrorCode::insufficient_space,
                   "no sector with sufficient free capacity found");
}

void Network::remove_file_internal(FileId file) {
  const FileView f = alloc_table_.find(file);
  FI_CHECK_MSG(f, "removing unknown file");
  const ByteCount size = f.row().desc.size;
  for (ReplicaIndex i = 0; i < f.size(); ++i) {
    const AllocEntry e = f.entry(i);
    if (e.next != kNoSector) {
      release_sector(e.next, size);
      if (e.state == AllocState::confirm) {
        bus_.emit(ReplicaReleased{file, i, e.next});
      }
      link_next(f, i, kNoSector);
    }
    if (e.prev != kNoSector) {
      if (e.state != AllocState::corrupted) {
        release_sector(e.prev, size);
        bus_.emit(ReplicaReleased{file, i, e.prev});
      }
      link_prev(f, i, kNoSector);
    }
  }
  alloc_table_.remove_file(file);
}

void Network::refund_unconfirmed_traffic(const FileView& f) {
  const FileRow& row = f.row();
  const TokenAmount fee = params_.traffic_fee(row.desc.size);
  for (ReplicaIndex i = 0; i < f.size(); ++i) {
    if (!f.escrowed(i)) continue;
    FI_CHECK(ledger_.transfer(traffic_escrow_, row.owner, fee).is_ok());
  }
}

void Network::resample_cntdown(FileDescriptor& desc) {
  desc.cntdown = sample_refresh_countdown(rng_, params_.avg_refresh);
}

void Network::admission_rebalance(SectorId sector) {
  // §VI-B: approximate the "swap each allocation here with probability
  // capacity/total" rule by sampling the swap-in count from a Poisson
  // distribution with the matching mean, then choosing backups uniformly.
  const Sector& s = sector_table_.at(sector);
  const ByteCount total_cap = sector_table_.total_capacity(SectorState::normal);
  if (total_cap == 0) return;
  const double mean =
      static_cast<double>(alloc_table_.normal_entry_count()) *
      (static_cast<double>(s.capacity) / static_cast<double>(total_cap));
  const std::uint64_t count = util::sample_poisson(rng_, mean);
  for (std::uint64_t n = 0; n < count; ++n) {
    const auto key = alloc_table_.random_normal_entry(rng_);
    if (!key.has_value()) return;
    const auto [file, index] = *key;
    const FileView f = alloc_table_.find(file);
    if (f.prev(index) == sector) continue;  // already here
    if (!start_refresh_to(f, index, sector)) return;  // sector full
  }
}

// ---------------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------------

void save_network_stats(const NetworkStats& stats, util::BinaryWriter& writer) {
  writer.u64(stats.files_added);
  writer.u64(stats.files_stored);
  writer.u64(stats.upload_failures);
  writer.u64(stats.files_discarded);
  writer.u64(stats.files_lost);
  writer.u64(stats.value_lost);
  writer.u64(stats.value_compensated);
  writer.u64(stats.sectors_corrupted);
  writer.u64(stats.refreshes_started);
  writer.u64(stats.refreshes_completed);
  writer.u64(stats.refreshes_failed);
  writer.u64(stats.refreshes_self);
  writer.u64(stats.refresh_collisions);
  writer.u64(stats.add_resamples);
  writer.u64(stats.punishments);
}

NetworkStats load_network_stats(util::BinaryReader& reader) {
  NetworkStats stats;
  stats.files_added = reader.u64();
  stats.files_stored = reader.u64();
  stats.upload_failures = reader.u64();
  stats.files_discarded = reader.u64();
  stats.files_lost = reader.u64();
  stats.value_lost = reader.u64();
  stats.value_compensated = reader.u64();
  stats.sectors_corrupted = reader.u64();
  stats.refreshes_started = reader.u64();
  stats.refreshes_completed = reader.u64();
  stats.refreshes_failed = reader.u64();
  stats.refreshes_self = reader.u64();
  stats.refresh_collisions = reader.u64();
  stats.add_resamples = reader.u64();
  stats.punishments = reader.u64();
  return stats;
}

void Network::save_misc(util::BinaryWriter& writer) const {
  // Construction-time account layout, written for cross-validation: a
  // snapshot restored into an engine whose ledger grew differently would
  // silently misroute every system flow.
  writer.u64(escrow_);
  writer.u64(pool_);
  writer.u64(rent_pool_);
  writer.u64(gas_sink_);
  writer.u64(traffic_escrow_);

  for (const std::uint64_t word : rng_.state()) writer.u64(word);
  writer.u64(now_);
  writer.u64(next_file_id_);
  writer.u64(total_stored_value_);
  writer.u128(rent_acc_);
  writer.u128(rent_undistributed_scaled_);
  writer.u64(total_rent_charged_);
  writer.u64(total_rent_paid_);
  // The former manual-proving mode flag: the engine always auto-proves.
  writer.boolean(true);

  // The dense flag vector encodes as (count, ascending set-ids) — the exact
  // encoding the former sorted id set produced.
  std::uint64_t corrupted = 0;
  for (const std::uint8_t flag : physically_corrupted_) corrupted += flag;
  writer.u64(corrupted);
  for (std::size_t s = 0; s < physically_corrupted_.size(); ++s) {
    if (physically_corrupted_[s] != 0) writer.u64(s);
  }

  // The compensation slot holds the deposit book's total, as `stats()`
  // reports it.
  NetworkStats stats = stats_;
  stats.value_compensated = deposit_book_.total_compensated();
  save_network_stats(stats, writer);
}

void Network::save_state_component(StateComponent component,
                                   util::BinaryWriter& writer) const {
  switch (component) {
    case StateComponent::misc:
      save_misc(writer);
      return;
    case StateComponent::sectors:
      sector_table_.save(writer, [this](SectorId sector) {
        return static_cast<std::uint32_t>(alloc_table_.references(sector));
      });
      return;
    case StateComponent::allocations:
      alloc_table_.save(writer);
      return;
    case StateComponent::pending:
      pending_.save(writer);
      return;
    case StateComponent::deposits:
      deposit_book_.save(writer);
      return;
    case StateComponent::files:
      alloc_table_.save_files(writer);
      return;
  }
  FI_CHECK_MSG(false, "unknown state component");
}

const char* Network::state_component_name(StateComponent component) {
  switch (component) {
    case StateComponent::misc:
      return "misc";
    case StateComponent::sectors:
      return "sectors";
    case StateComponent::allocations:
      return "allocations";
    case StateComponent::pending:
      return "pending";
    case StateComponent::deposits:
      return "deposits";
    case StateComponent::files:
      return "files";
  }
  FI_CHECK_MSG(false, "unknown state component");
  return "";
}

void Network::save(util::BinaryWriter& writer) const {
  // The flat snapshot encoding is the exact concatenation of the six state
  // components in enum order, so a component encoded on its own is a slice
  // of the golden-pinned body.
  for (std::size_t c = 0; c < kStateComponentCount; ++c) {
    save_state_component(static_cast<StateComponent>(c), writer);
  }
}

util::Status Network::load(util::BinaryReader& reader) {
  const std::uint64_t body_bytes = reader.remaining();
  const std::uint64_t ids[5] = {reader.u64(), reader.u64(), reader.u64(),
                                reader.u64(), reader.u64()};
  if (ids[0] != escrow_ || ids[1] != pool_ || ids[2] != rent_pool_ ||
      ids[3] != gas_sink_ || ids[4] != traffic_escrow_) {
    return util::err(util::ErrorCode::failed_precondition,
                     "snapshot system-account layout does not match this "
                     "engine (different construction sequence)");
  }

  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = reader.u64();
  rng_.set_state(rng_state);
  now_ = reader.u64();
  next_file_id_ = reader.u64();
  total_stored_value_ = reader.u64();
  rent_acc_ = reader.u128();
  rent_undistributed_scaled_ = reader.u128();
  total_rent_charged_ = reader.u64();
  total_rent_paid_ = reader.u64();
  if (!reader.boolean()) reader.fail();  // save() writes only `true`

  // The corrupted-flag ids precede the sector table on the wire; buffer
  // them and size the dense flag vector from the *restored* sector count —
  // a crafted body must never choose the resize amount.
  const std::uint64_t corrupted = reader.count(8);
  std::vector<SectorId> corrupted_ids;
  corrupted_ids.reserve(corrupted);
  for (std::uint64_t i = 0; i < corrupted; ++i) {
    const SectorId id = reader.u64();
    if (!corrupted_ids.empty() && id <= corrupted_ids.back()) {
      reader.fail();  // canonical encoding is strictly ascending
      break;
    }
    corrupted_ids.push_back(id);
  }

  stats_ = load_network_stats(reader);
  std::vector<std::uint32_t> stored_references;
  sector_table_.load(reader, stored_references);

  physically_corrupted_.clear();
  if (reader.ok()) {
    physically_corrupted_.assign(sector_table_.count(), 0);
    for (const SectorId id : corrupted_ids) {
      if (id >= physically_corrupted_.size()) {
        reader.fail();  // flagged sector does not exist
        break;
      }
      physically_corrupted_[id] = 1;
    }
  }

  alloc_table_.load(reader, sector_table_.count(), next_file_id_, body_bytes);
  // An entry whose links disagree with its state loads and then aborts the
  // run when its replica next moves (a normal entry with no prev reads as
  // an upload in `file_confirm`).
  if (reader.ok()) {
    alloc_table_.for_each_file([&reader](const FileView& f) {
      for (ReplicaIndex i = 0; i < f.size(); ++i) {
        if (!links_fit_state(f.state(i), f.prev(i), f.next(i))) reader.fail();
      }
    });
  }
  pending_.load(reader);
  // advance_to never leaves a task due before the clock; one that is would
  // run with now() moving backwards.
  if (pending_.next_time() != kNoTime && pending_.next_time() < now_) {
    reader.fail();
  }
  deposit_book_.load(reader);
  // The stats block's compensation slot restates the book's total, which
  // the engine does not keep a copy of.
  if (stats_.value_compensated != deposit_book_.total_compensated()) {
    reader.fail();
  }
  stats_.value_compensated = 0;

  alloc_table_.load_files(reader);

  // Cross-component checks: a stored reference count must be the entries
  // that name the sector, and the other two disagreements would load and
  // abort the run later (rent accumulator overflow, replica index out of
  // range).
  for (SectorId id = 0; reader.ok() && id < sector_table_.count(); ++id) {
    const SectorState state = sector_table_.state(id);
    const bool earns =
        state == SectorState::normal || state == SectorState::disabled;
    const std::uint64_t units =
        sector_table_.capacity(id) / params_.min_capacity;
    const RentAcc snapshot = sector_table_.rent_acc_snapshot(id);
    if (stored_references[id] != alloc_table_.references(id) ||
        snapshot > rent_acc_ ||
        (earns && rent_acc_ - snapshot > ~RentAcc{0} / units)) {
      reader.fail();
    }
  }
  if (reader.ok()) {
    pending_.for_each([&](Time, const Task& task) {
      if (task.kind != TaskKind::check_refresh) return;
      if (alloc_table_.has_file(task.file) &&
          task.index >= alloc_table_.replica_count(task.file)) {
        reader.fail();
      }
    });
  }

  if (!reader.ok()) {
    return util::err(util::ErrorCode::invalid_argument,
                     "malformed engine snapshot body");
  }
  return util::Status::ok();
}

}  // namespace fi::core

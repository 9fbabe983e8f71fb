#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/alloc_table.h"
#include "core/deposit.h"
#include "core/events.h"
#include "core/file.h"
#include "core/params.h"
#include "core/pending_list.h"
#include "core/sector.h"
#include "core/types.h"
#include "crypto/porep.h"
#include "crypto/post.h"
#include "ledger/account.h"
#include "util/binary_io.h"
#include "util/prng.h"
#include "util/status.h"

/// The FileInsurer network state machine (§IV) — the on-chain protocol.
///
/// This class implements, exactly as in Figs. 4–9:
///   * client requests:   File_Add, File_Discard, File_Get
///   * provider requests: Sector_Register, Sector_Disable, File_Confirm,
///                        File_Prove
///   * automatic tasks:   Auto_CheckAlloc, Auto_CheckProof, Auto_Refresh,
///                        Auto_CheckRefresh (executed via the pending list
///                        as simulated time advances)
/// plus the deposit/compensation insurance scheme (§IV-B), the fee
/// mechanism (§IV-A), §VI-B Poisson admission rebalancing, and simulation
/// hooks for corruption injection.
///
/// The engine tracks metadata only (sizes, commitments, balances); file
/// bytes stay off-chain with the caller, which proves storage through
/// `file_confirm`/`file_prove` or lets auto-prove stand in for it.
namespace fi::core {

/// Client-declared description of a file to store (File_Add inputs).
struct FileInfo {
  ByteCount size = 0;
  TokenAmount value = 0;
  crypto::Hash256 merkle_root;
};

/// Aggregate counters for experiments and tests.
struct NetworkStats {
  std::uint64_t files_added = 0;
  std::uint64_t files_stored = 0;
  std::uint64_t upload_failures = 0;
  std::uint64_t files_discarded = 0;
  std::uint64_t files_lost = 0;
  TokenAmount value_lost = 0;
  TokenAmount value_compensated = 0;
  std::uint64_t sectors_corrupted = 0;
  std::uint64_t refreshes_started = 0;
  std::uint64_t refreshes_completed = 0;
  std::uint64_t refreshes_failed = 0;
  /// Refresh draws that landed on the replica's current sector — the move
  /// is a no-op (the i.i.d. redraw chose the same location).
  std::uint64_t refreshes_self = 0;
  std::uint64_t refresh_collisions = 0;
  std::uint64_t add_resamples = 0;  ///< RandomSector collisions at File_Add
  std::uint64_t punishments = 0;
};

/// Canonical snapshot encoding of the counter block (field order fixed —
/// see `src/snapshot`).
void save_network_stats(const NetworkStats& stats, util::BinaryWriter& writer);
NetworkStats load_network_stats(util::BinaryReader& reader);

class Network {
 public:
  /// Epoch beacon supplier for PoSt challenges (§III-F public randomness).
  ///
  /// Contract: must be a pure function of the epoch time `t` — the engine
  /// may call it any number of times, in any order, and providers call the
  /// same function through `beacon()` when building their WindowPoSt, so a
  /// stateful or clock-dependent supplier would let prover and verifier
  /// disagree. For reproducible experiments it must also be a fixed
  /// function of the seed. The default is a domain-separated hash of
  /// (seed, t).
  using BeaconSource = std::function<crypto::Hash256(Time)>;

  /// Builds an empty network on `ledger` (which must outlive the engine;
  /// the five system accounts are created here). All protocol randomness
  /// streams from `seed` — same params, seed, beacon and request sequence
  /// means a bit-identical run.
  Network(Params params, ledger::Ledger& ledger, std::uint64_t seed,
          BeaconSource beacon = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Inert: only perfbench/src/mirror.cpp calls it; deleted with that file.
  void set_workers(std::uint64_t /*unused*/) {}

  // ---- Provider requests (Fig. 5, Fig. 6) -------------------------------

  /// Sector_Register: pledges the deposit and adds the sector. Rent is
  /// settled lazily, so a provider whose liquidity depends on accrued rent
  /// should `settle_rent` its existing sectors before pledging.
  util::Result<SectorId> sector_register(ProviderId provider,
                                         ByteCount capacity);

  /// Sector_Disable: the sector stops accepting files and is removed (with
  /// deposit refund) once the last replica drains out.
  util::Status sector_disable(ProviderId provider, SectorId sector);

  /// File_Confirm: the provider declares it received replica (file, index)
  /// into `sector`, registering the replica commitment. When
  /// `params.verify_proofs` is set, a valid seal proof binding the file's
  /// Merkle root to `comm_r` is required.
  util::Status file_confirm(ProviderId provider, FileId file,
                            ReplicaIndex index, SectorId sector,
                            const crypto::Hash256& comm_r,
                            const std::optional<crypto::SealProof>& seal_proof);

  /// File_Prove: WindowPoSt for replica (file, index) stored in `sector`.
  util::Status file_prove(ProviderId provider, FileId file, ReplicaIndex index,
                          SectorId sector, const crypto::WindowProof& proof);

  /// Metadata-only variant used when `params.verify_proofs == false`:
  /// accepts a bare proof timestamp.
  util::Status file_prove_trusted(ProviderId provider, FileId file,
                                  ReplicaIndex index, SectorId sector,
                                  Time proof_time);

  // ---- Client requests (Fig. 4) ------------------------------------------

  /// File_Add: allocates `cp` random sectors, charges traffic fees and
  /// prepaid gas, and schedules Auto_CheckAlloc.
  util::Result<FileId> file_add(ClientId client, const FileInfo& info);

  /// File_Discard: marks the file; it is removed at the next
  /// Auto_CheckProof (Fig. 4/8).
  util::Status file_discard(ClientId client, FileId file);

  /// File_Get: clears `holders` and fills it with the sectors currently
  /// able to serve the file, then emits a RetrievalRequested event
  /// carrying that list to the bus's listeners. A caller that reuses one
  /// buffer across requests makes a lookup allocation-free. On error
  /// `holders` is left empty.
  util::Status file_get(ClientId client, FileId file,
                        std::vector<SectorId>& holders);

  // ---- Time ----------------------------------------------------------------

  [[nodiscard]] Time now() const { return now_; }
  /// Executes all pending-list tasks with timestamp <= `t`, then sets the
  /// clock to `t`. Semantics:
  ///  * Tasks run batch-by-batch in (timestamp, scheduling-order) order,
  ///    with the clock set to each batch's timestamp while it runs, so a
  ///    task observes the time it was scheduled for — not `t`.
  ///  * Tasks a task schedules at or before `t` (e.g. Auto_CheckProof
  ///    re-arming itself) execute within the same call.
  ///  * Off-chain actors react to events *between* calls; callers driving
  ///    long horizons should step batch-by-batch via `next_task_time()`
  ///    and confirm requested transfers in between (as
  ///    `scenario::ScenarioRunner` does), or refreshes miss their
  ///    deadlines wholesale.
  ///  * Time is monotonic: `t < now()` is an invariant violation.
  void advance_to(Time t);
  void advance(Time dt) { advance_to(now_ + dt); }
  /// Timestamp of the earliest pending task (kNoTime when idle) — the
  /// granularity at which `advance_to` will do work.
  [[nodiscard]] Time next_task_time() const { return pending_.next_time(); }

  /// The epoch beacon (for providers building PoSt proofs).
  [[nodiscard]] crypto::Hash256 beacon(Time t) const { return beacon_(t); }

  // ---- Simulation hooks ---------------------------------------------------

  /// Physically corrupts a sector: with auto-prove off, its provider is
  /// expected to stop proving; with auto-prove on, the engine stops
  /// auto-proving for it and Auto_CheckProof confiscates it at the
  /// ProofDeadline — the full detection pipeline. Also doubles as "proof
  /// withholding" for adversary studies (`adversary::WithholdProofs`): the
  /// data may be intact, the chain only sees missing proofs.
  void corrupt_sector_physical(SectorId sector);

  /// Immediately runs the chain-side corruption path (confiscation +
  /// marking) without waiting for the proof deadline. Used by the scenario
  /// layer's `corrupt_burst` phase and the `src/adversary` corruption
  /// strategies, where detection latency is not under study.
  void corrupt_sector_now(SectorId sector);

  /// Reverses `corrupt_sector_physical` *before* the chain confiscates:
  /// models a transient outage (disk back online, data intact) or a
  /// withholder resuming proofs (`adversary::ResumeProofs`). A no-op if
  /// the sector was already chain-corrupted.
  void restore_sector_physical(SectorId sector);

  /// When enabled, Auto_CheckProof treats every replica in a
  /// non-physically-corrupted sector as freshly proven — large-scale
  /// statistical runs without per-replica proof traffic.
  void set_auto_prove(bool enabled) { auto_prove_ = enabled; }

  [[nodiscard]] bool is_physically_corrupted(SectorId sector) const {
    return sector < physically_corrupted_.size() &&
           physically_corrupted_[sector] != 0;
  }

  // ---- Introspection --------------------------------------------------------

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const SectorTable& sectors() const { return sector_table_; }
  [[nodiscard]] const AllocTable& allocations() const { return alloc_table_; }
  [[nodiscard]] const DepositBook& deposits() const { return deposit_book_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] bool file_exists(FileId file) const {
    return files_.contains(file);
  }
  /// Descriptor / owning client of a live file. Unknown ids are an
  /// invariant violation — guard with `file_exists` (files vanish
  /// asynchronously at Auto_CheckProof after discard or loss).
  [[nodiscard]] const FileDescriptor& file(FileId file) const;
  [[nodiscard]] ClientId file_owner(FileId file) const;
  /// Files currently tracked (stored or mid-upload).
  [[nodiscard]] std::size_t file_count() const { return files_.size(); }
  /// Scheduled-but-unexecuted automatic tasks.
  [[nodiscard]] std::size_t pending_tasks() const { return pending_.size(); }

  /// Sum of `value` over stored files (for γ_v^m bookkeeping).
  [[nodiscard]] TokenAmount total_stored_value() const {
    return total_stored_value_;
  }

  // ---- Rent accounting (§IV-A2, O(1) accumulator) --------------------------
  //
  // Rent distribution is staking-style: each distribution cycle bumps a
  // global reward-per-capacity-unit accumulator in O(1); a sector's payout
  // is settled lazily — whenever the engine touches it (reserve/release/
  // disable/corrupt/remove) or on explicit query — as
  // (acc - sector.rent_acc_snapshot) * capacity_units.

  /// Rent earned by `sector` since its last settlement (0 for corrupted or
  /// removed sectors, whose accrual was settled at the transition).
  [[nodiscard]] TokenAmount accrued_rent(SectorId sector) const;
  /// Pays `sector`'s accrued rent to its owner now; returns the amount.
  TokenAmount settle_rent(SectorId sector);
  /// Settles every sector (O(#sectors); tests/benches use it to flush all
  /// outstanding accruals). Returns the total paid.
  TokenAmount settle_all_rent();
  /// Total rent ever charged to clients (inflow into the rent pool).
  [[nodiscard]] TokenAmount total_rent_charged() const {
    return total_rent_charged_;
  }
  /// Total rent ever settled to providers (outflow from the rent pool).
  [[nodiscard]] TokenAmount total_rent_paid() const {
    return total_rent_paid_;
  }
  /// Rent pool inflow not yet credited to the accumulator (distribution
  /// dust carried to the next cycle plus the current period's charges),
  /// in whole tokens.
  [[nodiscard]] TokenAmount rent_undistributed() const {
    return static_cast<TokenAmount>(rent_undistributed_scaled_ >>
                                    kRentAccFracBits);
  }

  /// System account ids (for money-conservation assertions in tests).
  [[nodiscard]] AccountId escrow_account() const { return escrow_; }
  [[nodiscard]] AccountId pool_account() const { return pool_; }
  [[nodiscard]] AccountId rent_pool_account() const { return rent_pool_; }
  [[nodiscard]] AccountId gas_sink_account() const { return gas_sink_; }
  [[nodiscard]] AccountId traffic_escrow_account() const {
    return traffic_escrow_;
  }

  // ---- Snapshot / restore (`src/snapshot`) -------------------------------

  /// Canonical little-endian encoding of the engine's entire mutable state:
  /// tables, pending list, deposits, rent accumulators, stats, the PRNG
  /// stream and the physically-corrupted set. Deterministic: two engines
  /// that would behave identically encode identically (unordered containers
  /// are emitted in sorted order; order-bearing dense arrays verbatim), so
  /// hashing this encoding is a state fingerprint.
  ///
  /// Not included: params, seed/beacon and subscribers — those are
  /// construction-time configuration the restoring caller must supply
  /// identically (the scenario layer rebuilds them from the spec embedded
  /// in the snapshot file).
  void save(util::BinaryWriter& writer) const;

  /// Restores a freshly-constructed engine (same params, ledger layout,
  /// seed and beacon as the saved one) to the serialized state; the ledger
  /// itself must have been restored first. Continuation is then
  /// byte-identical to the uninterrupted run. Fails without engine
  /// side-effect guarantees on malformed input — callers verify the
  /// snapshot digest first and treat failure as fatal for this instance.
  util::Status load(util::BinaryReader& reader);

  // ---- Component-structured state -----------------------------------------
  //
  // `save` is defined as the in-order concatenation of these components, so
  // one component's encoding is exactly its slice of the flat encoding that
  // every golden state hash covers. perfbench's traced run times the
  // encoding of each component through these.

  enum class StateComponent : std::uint8_t {
    misc = 0,     ///< accounts, rng, clock, rent accumulators, flags, stats
    sectors,      ///< SectorTable
    allocations,  ///< AllocTable
    pending,      ///< PendingList
    deposits,     ///< DepositBook
    files,        ///< file records
  };
  static constexpr std::size_t kStateComponentCount = 6;

  /// Encodes exactly one component's slice of the canonical encoding.
  void save_state_component(StateComponent component,
                            util::BinaryWriter& writer) const;
  /// Stable lower-case component name (per-component metric names, logs).
  [[nodiscard]] static const char* state_component_name(
      StateComponent component);

  /// Registers an event observer (`core/events.h`). Listeners run
  /// synchronously inside the emitting request or task, in subscription
  /// order; they see a consistent mid-transaction snapshot and must not
  /// call back into the engine re-entrantly — queue work and apply it
  /// after the `advance_to` / request returns (see
  /// `scenario::ScenarioRunner::drain_transfers`).
  void subscribe(EventBus::Listener listener) {
    bus_.subscribe(std::move(listener));
  }

 private:
  struct FileRecord {
    FileDescriptor desc;
    ClientId owner = kNoAccount;
    Time added_at = 0;
    /// Per-replica traffic fee still escrowed (refund on upload failure).
    std::vector<bool> traffic_escrowed;
  };

  // ---- Auto tasks (Fig. 7, 8, 9) -----------------------------------------
  void run_task(const Task& task);
  void auto_check_alloc(FileId file);
  void auto_check_proof(FileId file);
  void auto_refresh(FileId file, ReplicaIndex index);
  void auto_check_refresh(FileId file, ReplicaIndex index);
  void distribute_rent();

  /// Fig. 8 helpers: the rent-charge-or-discard head (returns
  /// discarded_for_rent) and the removal/loss/re-arm/countdown tail.
  bool charge_rent_or_discard(FileRecord& rec);
  void finish_check_proof(FileId file, FileRecord& rec,
                          bool discarded_for_rent, bool all_corrupted);

  // ---- Internal helpers ----------------------------------------------------
  FileRecord& record(FileId file);
  /// Sets entry.prev / entry.next maintaining sector ref-counts.
  void link_prev(FileId file, ReplicaIndex idx, SectorId sector);
  void link_next(FileId file, ReplicaIndex idx, SectorId sector);
  /// Samples a sector with room for `size` bytes (File_Add semantics:
  /// resample on collision, bounded). Under `distinct_sectors`, sectors in
  /// `already_chosen` (the file's other replicas) are rejected too.
  util::Result<SectorId> sample_sector_with_space(
      ByteCount size, const std::vector<SectorId>& already_chosen);
  /// Chain-side sector corruption (deposit confiscation + entry marking).
  void corrupt_sector_internal(SectorId sector);
  /// Rent owed to a sector since its last settlement (0 for dead sectors);
  /// the single source of truth for accrued_rent and settlement.
  [[nodiscard]] TokenAmount owed_rent(const Sector& s) const;
  /// Settles a sector's accrued rent (no-op for dead sectors); the lazy
  /// half of the O(1) rent-distribution scheme.
  TokenAmount settle_rent_internal(SectorId sector);
  /// SectorTable::reserve / release plus lazy rent settlement — every
  /// capacity touch doubles as a settlement point.
  util::Status reserve_sector(SectorId sector, ByteCount size);
  void release_sector(SectorId sector, ByteCount size);
  /// Removes a file's entries, releasing space and refs.
  void remove_file_internal(FileId file);
  /// Refunds escrowed traffic fees for unconfirmed replicas.
  void refund_unconfirmed_traffic(FileId file);
  /// Drops a reference and removes the sector if drained while disabled.
  void unref_and_maybe_remove(SectorId sector);
  /// Charges prepaid gas to `payer` (burn); false if unaffordable.
  bool charge_gas(AccountId payer, TokenAmount amount);
  /// Resamples a file's refresh countdown from Exp(AvgRefresh).
  void resample_cntdown(FileId file);
  /// Sets / clears a sector's physical-corruption flag (dense bitmap).
  void mark_phys_corrupted(SectorId sector);
  /// Component savers backing `save_state_component`; `save` is their
  /// in-order concatenation.
  void save_misc(util::BinaryWriter& writer) const;
  void save_files(util::BinaryWriter& writer) const;
  /// §VI-B: swap a Poisson number of random backups into a new sector.
  void admission_rebalance(SectorId sector);
  /// Starts a refresh of (file, index) targeted at a specific sector.
  bool start_refresh_to(FileId file, ReplicaIndex index, SectorId target);

  // fi-lint: not-serialized(construction-time config; the runner rebuilds
  // the Network from the same spec before load_state)
  Params params_;
  // fi-lint: not-serialized(reference to the externally-owned ledger, which
  // snapshots itself through its own save_state/load_state pair)
  ledger::Ledger& ledger_;
  util::Xoshiro256 rng_;
  // fi-lint: not-serialized(callback handle; re-bound by the host after
  // resume, never part of canonical state)
  BeaconSource beacon_;

  AccountId escrow_;
  AccountId pool_;
  AccountId rent_pool_;
  AccountId gas_sink_;
  AccountId traffic_escrow_;

  SectorTable sector_table_;
  AllocTable alloc_table_;
  PendingList pending_;
  DepositBook deposit_book_;
  // fi-lint: not-serialized(subscriber registry; observers re-subscribe on
  // resume and replayed history is not part of canonical state)
  EventBus bus_;

  std::unordered_map<FileId, FileRecord> files_;
  FileId next_file_id_ = 1;
  Time now_ = 0;
  TokenAmount total_stored_value_ = 0;

  /// Global reward-per-capacity-unit accumulator (fixed point,
  /// 2^kRentAccFracBits scale); bumped O(1) per rent-distribution cycle.
  RentAcc rent_acc_ = 0;
  /// Rent-pool inflow not yet credited to the accumulator, in the same
  /// fixed-point scale as `rent_acc_` so distribution can subtract its
  /// exact (fractional) commitment — subtracting only whole credited
  /// tokens would re-credit the remainder every cycle and let the
  /// accumulator's liability outgrow the pool.
  RentAcc rent_undistributed_scaled_ = 0;
  TokenAmount total_rent_charged_ = 0;
  TokenAmount total_rent_paid_ = 0;

  bool auto_prove_ = false;
  /// Dense per-sector physical-corruption flags (sector ids are dense
  /// registration indices; grown on demand, trailing sectors implicitly
  /// clear). The proof sweep probes this per replica, so a flat byte
  /// lookup replaces a hash probe on the hottest read path. Encoded as the
  /// sorted id list the historical hash set serialized — byte-identical.
  std::vector<std::uint8_t> physically_corrupted_;

  /// Popped-batch buffer reused across `advance_to` iterations so the
  /// steady-state epoch loop pops without allocating.
  // fi-lint: not-serialized(scratch buffer valid only within one batch)
  std::vector<std::pair<Time, Task>> due_buffer_;

  NetworkStats stats_;
};

}  // namespace fi::core

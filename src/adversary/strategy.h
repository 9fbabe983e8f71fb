#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "adversary/spec.h"
#include "core/network.h"
#include "util/binary_io.h"
#include "util/prng.h"
#include "util/types.h"

/// Pluggable attack strategies for the scenario engine.
///
/// An `AdversaryStrategy` observes the network once per proof cycle through
/// a read-only `AdversaryView` and emits `AdversaryAction`s; the
/// `ScenarioRunner` applies them between epoch advances (never re-entering
/// the engine from an event listener) and attributes the resulting economic
/// fallout — confiscations, punishments, compensation — back to the
/// emitting strategy via per-strategy `AdversaryCounters`.
///
/// Determinism contract: a strategy's decisions may depend only on the
/// view (network state, epoch, its own RNG stream, its own counters) —
/// never on wall clock, addresses, or unordered-container iteration — so
/// the same spec and seed replay the same attack byte-for-byte.
namespace fi::adversary {

// ---- Actions ---------------------------------------------------------------

/// Chain-side corruption of a sector (deposit confiscated immediately, all
/// replicas in it marked corrupted) — `Network::corrupt_sector_now`.
struct CorruptSector {
  core::SectorId sector;
};
/// Stop proving for a sector (physical corruption with the chain not yet
/// aware): Auto_CheckProof stops auto-stamping it, so its replicas go late
/// after ProofDue and the sector is confiscated at ProofDeadline unless
/// proofs resume — `Network::corrupt_sector_physical`.
struct WithholdProofs {
  core::SectorId sector;
};
/// Resume proving before the chain confiscates —
/// `Network::restore_sector_physical`.
struct ResumeProofs {
  core::SectorId sector;
};
/// Toggle refusal of inbound replica transfers (refresh handoffs and
/// uploads targeting the sector are never confirmed, so they miss their
/// deadlines — the Fig. 9 failure path).
struct RefuseTransfers {
  core::SectorId sector;
  bool refuse;
};
/// Disable a sector (safe exit; it drains via refresh and refunds).
struct ExitSector {
  core::SectorId sector;
};
/// Register `count` fresh provider sectors; they join the strategy's owned
/// set and are visible in `AdversaryView::owned_sectors` from the next
/// epoch.
struct JoinSectors {
  std::uint64_t count;
};
/// Queue `requests` retrieval requests against `file` on traffic-engine
/// stream `stream_offset` (an offset into this adversary's gang block; the
/// runner maps it to a global stream id) for the current epoch's traffic
/// tick. Requires the scenario's traffic engine.
struct HammerFile {
  core::FileId file;
  std::uint64_t stream_offset;
  std::uint64_t requests;
};
/// Toggle refusal to *serve* retrievals from a sector (the supply-side
/// complement of RefuseTransfers). Requires the traffic engine.
struct RefuseServe {
  core::SectorId sector;
  bool refuse;
};

using AdversaryAction =
    std::variant<CorruptSector, WithholdProofs, ResumeProofs, RefuseTransfers,
                 ExitSector, JoinSectors, HammerFile, RefuseServe>;

// ---- Outcome counters ------------------------------------------------------

/// Per-strategy outcome counters, maintained by the runner: action-side
/// counts when an action is applied, economic attributions when the engine
/// later emits the matching events for a sector this strategy touched
/// first (first-claimant attribution).
struct AdversaryCounters {
  /// Live replicas resident in sectors at the moment the strategy
  /// corrupted them (the attack's blast radius).
  std::uint64_t replicas_attacked = 0;
  /// Sectors this strategy chain-corrupted.
  std::uint64_t sectors_corrupted = 0;
  /// Sector-epochs of withheld proofs.
  std::uint64_t proofs_withheld = 0;
  /// Inbound replica transfers dropped by its refusal set.
  std::uint64_t transfers_refused = 0;
  /// Sectors it disabled / registered (churn griefing).
  std::uint64_t sectors_exited = 0;
  std::uint64_t sectors_joined = 0;
  /// Files lost with at least one replica on a sector it claimed.
  std::uint64_t files_lost = 0;
  /// Deposits confiscated from its claimed sectors.
  TokenAmount deposits_confiscated = 0;
  /// Punishments slashed from its claimed sectors.
  TokenAmount penalties_paid = 0;
  /// Compensation the pool paid for files attributed to it.
  TokenAmount compensation_paid = 0;
  /// Strategy-specific scalars (e.g. targeted_file reports its target),
  /// in first-set order; re-setting a name overwrites in place.
  std::vector<std::pair<std::string, double>> extras;

  void set_extra(const std::string& name, double value) {
    for (auto& [key, existing] : extras) {
      if (key == name) {
        existing = value;
        return;
      }
    }
    extras.emplace_back(name, value);
  }

  /// Canonical snapshot encoding / restore (`src/snapshot`).
  void save(util::BinaryWriter& writer) const;
  void load(util::BinaryReader& reader);
};

// ---- View ------------------------------------------------------------------

/// What a strategy sees each epoch, plus the action sink. All state access
/// is read-only; mutation happens only through emitted actions, applied by
/// the runner after `on_epoch` returns.
class AdversaryView {
 public:
  AdversaryView(const core::Network& net, std::uint64_t epoch,
                util::Xoshiro256& rng,
                std::span<const core::FileId> live_files,
                std::span<const core::SectorId> owned_sectors,
                AdversaryCounters& counters)
      : net_(net),
        epoch_(epoch),
        rng_(rng),
        live_files_(live_files),
        owned_sectors_(owned_sectors),
        counters_(counters) {}

  /// Read-only engine introspection (sectors, allocations, deposits,
  /// stats, params).
  [[nodiscard]] const core::Network& net() const { return net_; }
  /// Proof cycles advanced since setup (the scenario epoch counter).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// The strategy's private deterministic RNG stream.
  [[nodiscard]] util::Xoshiro256& rng() { return rng_; }
  /// The runner's live-file set, in deterministic (insertion/swap-erase)
  /// order.
  [[nodiscard]] std::span<const core::FileId> live_files() const {
    return live_files_;
  }
  /// Sectors this strategy claimed (first action touching a sector claims
  /// it; `JoinSectors` registrations land here), in claim order.
  [[nodiscard]] std::span<const core::SectorId> owned_sectors() const {
    return owned_sectors_;
  }
  /// Its own outcome counters so far — the feedback channel for adaptive
  /// strategies.
  [[nodiscard]] const AdversaryCounters& counters() const { return counters_; }
  /// Records a strategy-specific scalar in the report.
  void set_extra(const std::string& name, double value) {
    counters_.set_extra(name, value);
  }

  // ---- Action emitters -----------------------------------------------------
  void corrupt_sector(core::SectorId sector) {
    actions_.push_back(CorruptSector{sector});
  }
  void withhold_proofs(core::SectorId sector) {
    actions_.push_back(WithholdProofs{sector});
  }
  void resume_proofs(core::SectorId sector) {
    actions_.push_back(ResumeProofs{sector});
  }
  void refuse_transfers(core::SectorId sector, bool refuse) {
    actions_.push_back(RefuseTransfers{sector, refuse});
  }
  void exit_sector(core::SectorId sector) {
    actions_.push_back(ExitSector{sector});
  }
  void join_sectors(std::uint64_t count) {
    actions_.push_back(JoinSectors{count});
  }
  void hammer_file(core::FileId file, std::uint64_t stream_offset,
                   std::uint64_t requests) {
    actions_.push_back(HammerFile{file, stream_offset, requests});
  }
  void refuse_serve(core::SectorId sector, bool refuse) {
    actions_.push_back(RefuseServe{sector, refuse});
  }

  /// Emitted actions, in emission order (consumed by the runner).
  [[nodiscard]] std::span<const AdversaryAction> actions() const {
    return actions_;
  }

 private:
  const core::Network& net_;
  std::uint64_t epoch_;
  util::Xoshiro256& rng_;
  std::span<const core::FileId> live_files_;
  std::span<const core::SectorId> owned_sectors_;
  AdversaryCounters& counters_;
  std::vector<AdversaryAction> actions_;
};

// ---- Strategy interface ----------------------------------------------------

class AdversaryStrategy {
 public:
  virtual ~AdversaryStrategy() = default;

  /// Called once per proof cycle, before the cycle's tasks execute.
  virtual void on_epoch(AdversaryView& view) = 0;

  /// Called once after the last phase, for final report extras (actions
  /// emitted here are discarded — the run is over).
  virtual void on_run_end(AdversaryView& view) { (void)view; }

  /// Snapshot/restore of the strategy's private decision state — target
  /// locks, recruited member lists, escalation counters — so a resumed run
  /// continues the attack mid-flight exactly where the saved one stood
  /// (`src/snapshot`). The spec and RNG stream are restored by the runner;
  /// strategies (de)serialize only what they accumulated since
  /// construction. Stateless strategies keep the no-op default. `sectors`
  /// is the restored network's sector count (the network loads first): a
  /// member list naming a sector at or past it fails the reader.
  virtual void save_state(util::BinaryWriter& writer) const { (void)writer; }
  virtual void load_state(util::BinaryReader& reader, core::SectorId sectors) {
    (void)reader;
    (void)sectors;
  }
};

/// Instantiates the strategy a validated spec declares.
[[nodiscard]] std::unique_ptr<AdversaryStrategy> make_strategy(
    const AdversarySpec& spec);

/// All sectors currently in `normal` state, in registration (id) order —
/// the deterministic live-fleet population that sampling strategies (and
/// the scenario layer's corruption burst) draw from.
[[nodiscard]] std::vector<core::SectorId> normal_sector_ids(
    const core::Network& net);

}  // namespace fi::adversary

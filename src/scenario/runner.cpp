#include "scenario/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <variant>

#include "util/check.h"
#include "util/checked.h"
#include "util/distributions.h"

namespace fi::scenario {

namespace {

// fi-lint: allow(wall-clock, host-side phase timing only; the measured
// seconds land in reporting fields that never feed simulation state)
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

core::NetworkStats stats_delta(const core::NetworkStats& after,
                               const core::NetworkStats& before) {
  core::NetworkStats d;
  d.files_added = after.files_added - before.files_added;
  d.files_stored = after.files_stored - before.files_stored;
  d.upload_failures = after.upload_failures - before.upload_failures;
  d.files_discarded = after.files_discarded - before.files_discarded;
  d.files_lost = after.files_lost - before.files_lost;
  d.value_lost = after.value_lost - before.value_lost;
  d.value_compensated = after.value_compensated - before.value_compensated;
  d.sectors_corrupted = after.sectors_corrupted - before.sectors_corrupted;
  d.refreshes_started = after.refreshes_started - before.refreshes_started;
  d.refreshes_completed =
      after.refreshes_completed - before.refreshes_completed;
  d.refreshes_failed = after.refreshes_failed - before.refreshes_failed;
  d.refreshes_self = after.refreshes_self - before.refreshes_self;
  d.refresh_collisions = after.refresh_collisions - before.refresh_collisions;
  d.add_resamples = after.add_resamples - before.add_resamples;
  d.punishments = after.punishments - before.punishments;
  return d;
}

/// Planned number of file adds across setup and every churn phase —
/// the basis of the client's funding estimate.
std::uint64_t planned_adds(const ScenarioSpec& spec) {
  std::uint64_t adds = spec.initial_files;
  for (const PhaseSpec& phase : spec.phases) {
    if (phase.kind == PhaseKind::churn) {
      adds = util::checked_add(
          adds, util::checked_mul(phase.adds_per_cycle, phase.cycles));
    }
  }
  return adds;
}

std::uint64_t planned_cycles(const ScenarioSpec& spec) {
  std::uint64_t cycles = 8;  // setup flush + slack
  for (const PhaseSpec& phase : spec.phases) {
    cycles = util::checked_add(
        cycles, phase.kind == PhaseKind::rent_audit
                    ? util::checked_mul(phase.periods,
                                        spec.params.rent_period_cycles)
                    : phase.cycles);
  }
  return cycles;
}

/// Unordered id sets are encoded sorted: the run loop never iterates
/// them, so their in-memory order is not state.
template <typename Id>
void save_id_set(const std::unordered_set<Id>& set,
                 util::BinaryWriter& writer) {
  // fi-lint: allow(unordered-iter, keys collected then sorted before encoding)
  std::vector<Id> ids(set.begin(), set.end());
  std::sort(ids.begin(), ids.end());
  util::save_u64_seq(writer, ids);
}

/// The form of an encoded id set and of `net_suppressed_`: strictly
/// ascending ids, each below `count`.
bool ascending_below(const std::vector<core::SectorId>& ids,
                     core::SectorId count) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= count || (i > 0 && ids[i] <= ids[i - 1])) return false;
  }
  return true;
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioSpec spec)
    : spec_(std::move(spec)),
      workload_rng_(spec_.seed ^ kWorkloadSeedSalt) {
  {
    const util::Status valid = spec_.validate();
    FI_CHECK_MSG(valid.is_ok(), "invalid ScenarioSpec: " << valid.to_string());
  }
  init_adversaries();
  build_network();
  setup_population();
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec, ResumeTag)
    : spec_(std::move(spec)),
      workload_rng_(spec_.seed ^ kWorkloadSeedSalt) {
  {
    const util::Status valid = spec_.validate();
    FI_CHECK_MSG(valid.is_ok(), "invalid ScenarioSpec: " << valid.to_string());
  }
  init_adversaries();
  build_network();
  // No setup population: load_state replaces every piece of mutable state
  // with the snapshot's.
}

void ScenarioRunner::init_adversaries() {
  for (std::size_t i = 0; i < spec_.adversaries.size(); ++i) {
    ActiveAdversary adv{spec_.adversaries[i],
                        adversary::make_strategy(spec_.adversaries[i]),
                        util::Xoshiro256(spec_.seed ^ kAdversarySeedSalt ^
                                         (0x9e3779b97f4a7c15ULL * (i + 1))),
                        {},
                        {}};
    adversaries_.push_back(std::move(adv));
  }
}

void ScenarioRunner::build_network() {
  const core::Params& p = spec_.params;
  const ByteCount capacity =
      util::checked_mul(spec_.sector_units, p.min_capacity);

  // Fund the provider for every deposit it will ever pledge (setup fleet,
  // admit phases, and every fleet a churn-griefing adversary could
  // register) and the client for every add plus the whole run's rent and
  // gas; over-funding is harmless (scenarios study the protocol, not
  // bankruptcy — a lapsed client would silently turn churn into
  // discard-for-unpaid-rent noise).
  std::uint64_t total_sectors = spec_.sectors;
  for (const PhaseSpec& phase : spec_.phases) {
    if (phase.kind == PhaseKind::admit) {
      total_sectors = util::checked_add(total_sectors, phase.add_sectors);
    }
  }
  for (const adversary::AdversarySpec& adv : spec_.adversaries) {
    if (adv.kind == adversary::StrategyKind::churn_griefer) {
      // The initial join plus at most one replacement fleet per period.
      const std::uint64_t rounds = planned_cycles(spec_) / adv.period + 2;
      total_sectors = util::checked_add(
          total_sectors, util::checked_mul(adv.sectors, rounds));
    }
  }
  const TokenAmount per_sector =
      util::checked_add(p.sector_deposit(capacity), p.gas_per_task);
  provider_ = ledger_.create_account(util::checked_add(
      util::checked_mul(total_sectors, per_sector), 1'000'000'000ull));

  const std::uint64_t adds = planned_adds(spec_);
  const std::uint32_t cp = p.replica_count(spec_.effective_file_value());
  const TokenAmount upfront = util::checked_add(
      util::checked_mul(p.traffic_fee(spec_.file_size_max), cp),
      util::checked_mul(p.gas_per_task, 2));
  const TokenAmount per_cycle =
      util::checked_add(p.rent_per_cycle(spec_.file_size_max, cp),
                        util::checked_mul(p.gas_per_task, 2));
  const TokenAmount per_file = util::checked_add(
      upfront, util::checked_mul(per_cycle, planned_cycles(spec_)));

  // Retrieval budget: the worst-case request volume per cycle (diurnal
  // peak, flash multiplier, every hammer gang at full rate) times the
  // worst-case per-request cost (lookup gas plus the dearer, odd-sector
  // ask tier, surge-repriced when the defense can flag).
  TokenAmount traffic_budget = 0;
  if (spec_.traffic.enabled) {
    const traffic::TrafficSpec& t = spec_.traffic;
    const TokenAmount kib = (spec_.file_size_max + 1023) / 1024;
    TokenAmount per_request = util::checked_add(
        p.gas_per_task, util::checked_mul(t.ask_of(1), kib));
    if (t.defense_enabled) {
      per_request = util::checked_mul(per_request, t.defense_surge);
    }
    std::uint64_t requests = util::checked_mul(t.requests_per_cycle, 2);
    if (t.flash_duration > 0) {
      requests = util::checked_mul(requests, t.flash_multiplier);
    }
    for (const adversary::AdversarySpec& adv : spec_.adversaries) {
      if (adv.kind == adversary::StrategyKind::retrieval_ddos) {
        requests = util::checked_add(
            requests, util::checked_mul(adv.gang, adv.requests_per_epoch));
      }
    }
    requests = util::checked_add(requests, 64);
    traffic_budget = util::checked_mul(
        util::checked_mul(requests, per_request), planned_cycles(spec_));
  }

  client_ = ledger_.create_account(util::checked_add(
      util::checked_add(
          util::checked_mul(util::checked_add(adds, 1), per_file),
          traffic_budget),
      1'000'000'000ull));

  net_ = std::make_unique<core::Network>(p, ledger_, spec_.seed);
  net_->subscribe([this](const core::Event& event) {
    if (const auto* transfer =
            std::get_if<core::ReplicaTransferRequested>(&event)) {
      transfer_queue_.push_back(*transfer);
    } else if (const auto* lost = std::get_if<core::FileLost>(&event)) {
      // Attribute the loss (and its compensation) to the lowest-index
      // strategy that claimed one of the file's resident sectors. Entries
      // still exist at FileLost emission (removal follows it), and event
      // listeners may read — never mutate — mid-transaction state.
      std::size_t best = adversaries_.size();
      const std::uint32_t replicas =
          net_->allocations().replica_count(lost->file);
      for (core::ReplicaIndex r = 0; r < replicas; ++r) {
        const core::SectorId holder =
            net_->allocations().entry(lost->file, r).prev;
        const auto claim = sector_claims_.find(holder);
        if (claim != sector_claims_.end()) {
          best = std::min(best, claim->second);
        }
      }
      if (best < adversaries_.size()) {
        adversary::AdversaryCounters& c = adversaries_[best].counters;
        ++c.files_lost;
        c.compensation_paid =
            util::checked_add(c.compensation_paid, lost->compensated_now);
      }
      forget_file(lost->file);
    } else if (const auto* gone = std::get_if<core::FileDiscarded>(&event)) {
      forget_file(gone->file);
    } else if (const auto* failed = std::get_if<core::UploadFailed>(&event)) {
      forget_file(failed->file);
    } else if (const auto* corrupted =
                   std::get_if<core::SectorCorrupted>(&event)) {
      const auto claim = sector_claims_.find(corrupted->sector);
      if (claim != sector_claims_.end()) {
        adversary::AdversaryCounters& c = adversaries_[claim->second].counters;
        c.deposits_confiscated =
            util::checked_add(c.deposits_confiscated, corrupted->confiscated);
      }
    } else if (const auto* punished =
                   std::get_if<core::ProviderPunished>(&event)) {
      const auto claim = sector_claims_.find(punished->sector);
      if (claim != sector_claims_.end()) {
        adversary::AdversaryCounters& c = adversaries_[claim->second].counters;
        c.penalties_paid =
            util::checked_add(c.penalties_paid, punished->amount);
      }
    }
  });

  // The model's RNG streams from its own salt, so latency/loss draws
  // perturb neither protocol, workload, adversary nor traffic draws.
  // Without a `network.*` block to_net_config() is the all-zero profile,
  // which delivers every message at its send time and draws nothing.
  netmodel_ = std::make_unique<sim::NetModel>(spec_.network.to_net_config(),
                                              spec_.seed ^ kNetSeedSalt);

  if (spec_.traffic.enabled) {
    // Stream layout: honest streams first, then one contiguous block per
    // retrieval_ddos gang, in spec order — the layout is a pure function
    // of the spec, so resume rebuilds it identically.
    std::uint64_t next_stream = spec_.traffic.streams;
    gang_base_.reserve(spec_.adversaries.size());
    for (const adversary::AdversarySpec& adv : spec_.adversaries) {
      gang_base_.push_back(next_stream);
      if (adv.kind == adversary::StrategyKind::retrieval_ddos) {
        next_stream = util::checked_add(next_stream, adv.gang);
      }
    }
    traffic_ = std::make_unique<traffic::TrafficEngine>(
        spec_.traffic, *net_, ledger_, client_,
        spec_.seed ^ kTrafficSeedSalt, next_stream);
  }
}

void ScenarioRunner::setup_population() {
  const auto setup0 = Clock::now();
  const core::Params& p = spec_.params;
  const ByteCount capacity =
      util::checked_mul(spec_.sector_units, p.min_capacity);

  for (std::uint64_t s = 0; s < spec_.sectors; ++s) {
    const auto id = net_->sector_register(provider_, capacity);
    FI_CHECK_MSG(id.is_ok(),
                 "setup sector_register failed: " << id.status().to_string());
  }
  drain_transfers();  // §VI-B swap-ins, when admission_rebalance is on

  for (std::uint64_t f = 0; f < spec_.initial_files; ++f) {
    if (!add_file()) break;  // fleet full: record the shortfall and move on
    ++initial_files_stored_;
  }
  // Let every initial upload confirm and pass Auto_CheckAlloc so phase 0
  // starts from a fully stored population.
  advance_confirming(util::checked_add(
      util::checked_add(net_->now(), p.transfer_window(spec_.file_size_max)),
      1));
  setup_seconds_ = seconds_since(setup0);
}

void ScenarioRunner::deliver_messages() {
  sim::TransferMessage msg;
  while (netmodel_->pop_due(net_->now(), msg)) {
    // The receiver acts when the bytes arrive, not when the chain asks:
    // the exists/refused checks are evaluated at delivery time.
    if (!net_->sectors().exists(msg.to_sector)) continue;
    if (!refused_sectors_.empty() &&
        refused_sectors_.contains(msg.to_sector)) {
      // A refresh-sabotaging adversary holds the receiving sector: the
      // transfer is never confirmed, so Auto_CheckRefresh (or
      // Auto_CheckAlloc, for uploads) sees it miss the deadline.
      const auto claim = sector_claims_.find(msg.to_sector);
      if (claim != sector_claims_.end()) {
        ++adversaries_[claim->second].counters.transfers_refused;
      }
      continue;
    }
    // Rejections are expected (the file may have been lost or discarded
    // between request and delivery) and are visible in the punishment and
    // refresh-failure counters, so they are not tracked separately.
    (void)net_->file_confirm(net_->sectors().at(msg.to_sector).owner,
                             msg.file, msg.index, msg.to_sector);
  }
}

void ScenarioRunner::drain_transfers() {
  // Confirming can trigger follow-on work but never emits new transfer
  // requests synchronously; iterate over a swapped-out batch anyway so the
  // queue stays valid if that ever changes. The batch also takes the
  // setup burst's capacity (one request per replica of every initial
  // file) with it when it goes, instead of the queue holding it all run.
  std::vector<core::ReplicaTransferRequested> batch;
  batch.swap(transfer_queue_);
  deliver_messages();
  const Time now = net_->now();
  for (const core::ReplicaTransferRequested& req : batch) {
    sim::TransferMessage msg;
    msg.file = req.file;
    msg.index = req.index;
    msg.from_sector = req.from;
    msg.to_sector = req.to;
    msg.client = req.client;
    msg.deadline = req.deadline;
    // The transferred payload is the replica itself; a file discarded
    // between request and dispatch still sends an (empty) message, whose
    // delivery is then rejected by file_confirm like any stale request.
    const ByteCount size =
        net_->file_exists(req.file) ? net_->file(req.file).size : 0;
    netmodel_->send(now, size, msg);
    // Delivering right after each send keeps the queue down to the
    // messages really in flight (none under the zero profile). It cannot
    // reorder anything: a send reads no state that file_confirm writes.
    deliver_messages();
  }
}

void ScenarioRunner::advance_confirming(Time horizon) {
  // Confirm before the first advance: requests already queued (e.g. the
  // just-added files' uploads) may have deadlines at the very next task
  // batch, and Auto_CheckAlloc must find them confirmed.
  drain_transfers();
  while (true) {
    // Message due times are advance targets too: a message landing between
    // task batches must confirm before the next deadline task runs. At
    // equal timestamps engine tasks run first (advance_to executes the
    // batch, then drain delivers), so a message arriving exactly on its
    // deadline tick is too late — delivery order is pure (time, seq).
    const Time next =
        std::min(net_->next_task_time(), netmodel_->next_delivery_time());
    if (next == kNoTime || next > horizon) break;
    net_->advance_to(next);
    drain_transfers();
  }
  net_->advance_to(horizon);
  drain_transfers();
}

void ScenarioRunner::advance_cycles(std::uint64_t cycles) {
  // Cycle-by-cycle so adversaries get their per-epoch turn at the top of
  // every proof cycle. Without adversaries the stepping is externally
  // identical to one long advance (the same task batches execute at the
  // same timestamps; intermediate horizons only move the idle clock).
  for (std::uint64_t c = 0; c < cycles; ++c) {
    if (!adversaries_.empty()) run_adversaries();
    // Traffic ticks after the adversaries' turn (their hammers land in
    // this epoch's load) and before the cycle's task batches.
    if (traffic_ != nullptr) traffic_->on_epoch(epoch_, live_files_);
    advance_confirming(net_->now() + spec_.params.proof_cycle);
    ++epoch_;
  }
}

void ScenarioRunner::suppress_region_proofs(std::uint64_t region) {
  // A blocked region cannot reach the chain: its sectors stop auto-proving
  // (the same gate adversarial withholding uses). Only sectors not already
  // physically corrupted are claimed, so an adversary's own marks — and
  // their eventual confiscations — stay attributed to the adversary.
  for (core::SectorId s = 0; s < net_->sectors().count(); ++s) {
    if (netmodel_->region_of_sector(s) != region) continue;
    if (!net_->sectors().exists(s)) continue;
    const core::SectorState state = net_->sectors().at(s).state;
    if (state != core::SectorState::normal &&
        state != core::SectorState::disabled) {
      continue;
    }
    if (net_->is_physically_corrupted(s)) continue;
    net_->corrupt_sector_physical(s);
    const auto at =
        std::lower_bound(net_suppressed_.begin(), net_suppressed_.end(), s);
    net_suppressed_.insert(at, s);
  }
}

void ScenarioRunner::restore_region_proofs(std::uint64_t region) {
  std::vector<core::SectorId> keep;
  keep.reserve(net_suppressed_.size());
  for (const core::SectorId s : net_suppressed_) {
    if (netmodel_->region_of_sector(s) != region) {
      keep.push_back(s);
      continue;
    }
    // No-op for sectors the chain confiscated while the region was dark
    // (restore never resurrects a chain-corrupted sector).
    if (net_->sectors().exists(s)) net_->restore_sector_physical(s);
  }
  net_suppressed_ = std::move(keep);
}

void ScenarioRunner::run_adversaries() {
  for (std::size_t i = 0; i < adversaries_.size(); ++i) {
    ActiveAdversary& adv = adversaries_[i];
    adversary::AdversaryView view(*net_, epoch_, adv.rng, live_files_,
                                  adv.claimed, adv.counters);
    adv.strategy->on_epoch(view);
    apply_adversary_actions(i, view.actions());
  }
}

void ScenarioRunner::claim_sector(std::size_t index, core::SectorId sector) {
  const auto [it, inserted] = sector_claims_.emplace(sector, index);
  if (inserted) adversaries_[index].claimed.push_back(sector);
}

void ScenarioRunner::apply_adversary_actions(
    std::size_t index, std::span<const adversary::AdversaryAction> actions) {
  ActiveAdversary& adv = adversaries_[index];
  const ByteCount capacity =
      util::checked_mul(spec_.sector_units, spec_.params.min_capacity);
  for (const adversary::AdversaryAction& action : actions) {
    if (const auto* corrupt = std::get_if<adversary::CorruptSector>(&action)) {
      const core::SectorId s = corrupt->sector;
      if (!net_->sectors().exists(s)) continue;
      const core::SectorState state = net_->sectors().at(s).state;
      if (state != core::SectorState::normal &&
          state != core::SectorState::disabled) {
        continue;  // already dead — nothing to attack
      }
      // Claim before corrupting so the synchronous SectorCorrupted (and
      // any cascading) events attribute to this strategy.
      claim_sector(index, s);
      adv.counters.replicas_attacked +=
          net_->allocations().count_with_prev(s);
      ++adv.counters.sectors_corrupted;
      net_->corrupt_sector_now(s);
    } else if (const auto* withhold =
                   std::get_if<adversary::WithholdProofs>(&action)) {
      const core::SectorId s = withhold->sector;
      if (!net_->sectors().exists(s)) continue;
      const core::SectorState state = net_->sectors().at(s).state;
      if (state != core::SectorState::normal &&
          state != core::SectorState::disabled) {
        continue;
      }
      claim_sector(index, s);
      ++adv.counters.proofs_withheld;  // one per sector-epoch emitted
      net_->corrupt_sector_physical(s);
    } else if (const auto* resume =
                   std::get_if<adversary::ResumeProofs>(&action)) {
      if (net_->sectors().exists(resume->sector)) {
        net_->restore_sector_physical(resume->sector);
      }
    } else if (const auto* refusal =
                   std::get_if<adversary::RefuseTransfers>(&action)) {
      const core::SectorId s = refusal->sector;
      if (!net_->sectors().exists(s)) continue;
      claim_sector(index, s);
      if (refusal->refuse) {
        refused_sectors_.insert(s);
      } else {
        refused_sectors_.erase(s);
      }
    } else if (const auto* exit = std::get_if<adversary::ExitSector>(&action)) {
      const core::SectorId s = exit->sector;
      if (!net_->sectors().exists(s)) continue;
      if (net_->sector_disable(provider_, s).is_ok()) {
        claim_sector(index, s);
        ++adv.counters.sectors_exited;
      }
    } else if (const auto* join = std::get_if<adversary::JoinSectors>(&action)) {
      for (std::uint64_t n = 0; n < join->count; ++n) {
        const auto id = net_->sector_register(provider_, capacity);
        if (!id.is_ok()) break;  // funding is sized for this never to trip
        claim_sector(index, id.value());
        ++adv.counters.sectors_joined;
      }
    } else if (const auto* hammer =
                   std::get_if<adversary::HammerFile>(&action)) {
      // Spec validation ties hammer-emitting strategies to an enabled
      // traffic block, so traffic_ is live here; the offset maps into the
      // adversary's contiguous gang block.
      if (traffic_ == nullptr) continue;
      traffic_->inject(gang_base_[index] + hammer->stream_offset,
                       hammer->file, hammer->requests);
    } else if (const auto* starve =
                   std::get_if<adversary::RefuseServe>(&action)) {
      const core::SectorId s = starve->sector;
      if (traffic_ == nullptr || !net_->sectors().exists(s)) continue;
      claim_sector(index, s);
      traffic_->set_serve_refusal(s, starve->refuse);
    }
  }
}

bool ScenarioRunner::add_file() {
  const ByteCount span = spec_.file_size_max - spec_.file_size_min + 1;
  const ByteCount size =
      spec_.file_size_min + workload_rng_.uniform_below(span);
  const auto id =
      net_->file_add(client_, {size, spec_.effective_file_value(), {}});
  if (!id.is_ok()) {
    ++add_rejections_;
    return false;
  }
  live_positions_.emplace(id.value(), live_files_.size());
  live_files_.push_back(id.value());
  return true;
}

core::FileId ScenarioRunner::sample_live_file() {
  while (!live_files_.empty()) {
    const std::size_t idx = static_cast<std::size_t>(
        workload_rng_.uniform_below(live_files_.size()));
    const core::FileId file = live_files_[idx];
    if (net_->file_exists(file)) return file;
    forget_file(file);  // stale entry: drop and redraw
  }
  return core::kNoFile;
}

void ScenarioRunner::forget_file(core::FileId file) {
  const auto it = live_positions_.find(file);
  if (it == live_positions_.end()) return;
  const std::size_t idx = it->second;
  const core::FileId moved = live_files_.back();
  live_files_[idx] = moved;
  live_positions_[moved] = idx;
  live_files_.pop_back();
  live_positions_.erase(file);
}

// ---------------------------------------------------------------------------
// Phase state machine
// ---------------------------------------------------------------------------

std::uint64_t ScenarioRunner::phase_total_cycles(const PhaseSpec& phase) const {
  return phase.kind == PhaseKind::rent_audit
             ? util::checked_mul(phase.periods,
                                 spec_.params.rent_period_cycles)
             : phase.cycles;
}

void ScenarioRunner::begin_phase(const PhaseSpec& phase) {
  const auto t0 = Clock::now();
  phase_wall_seconds_ = 0.0;
  RunProgress fresh;
  fresh.phase_index = progress_.phase_index;
  progress_ = std::move(fresh);

  progress_.metrics.label = phase.display_label();
  progress_.metrics.kind = phase_kind_name(phase.kind);
  progress_.metrics.start_time = net_->now();
  progress_.stats_before = net_->stats();
  progress_.rent_charged_before = net_->total_rent_charged();
  progress_.rent_paid_before = net_->total_rent_paid();
  progress_.rejections_before = add_rejections_;

  switch (phase.kind) {
    case PhaseKind::corrupt_burst: {
      std::vector<core::SectorId> normal =
          adversary::normal_sector_ids(*net_);
      const auto hits = util::shuffle_prefix(
          normal,
          static_cast<std::size_t>(std::llround(
              phase.corrupt_fraction * static_cast<double>(normal.size()))),
          workload_rng_);
      for (std::size_t i = 0; i < hits; ++i) {
        net_->corrupt_sector_now(normal[i]);
      }
      progress_.sectors_hit = hits;
      break;
    }
    case PhaseKind::selfish_refresh:
      // Sector ids are dense in registration order, so "the coalition" is
      // the prefix [0, cutoff) of the fleet at phase start — a
      // deterministic α-fraction.
      progress_.selfish_cutoff = static_cast<core::SectorId>(
          std::ceil(phase.coalition_fraction *
                    static_cast<double>(net_->sectors().count())));
      break;
    case PhaseKind::admit: {
      const ByteCount capacity =
          util::checked_mul(spec_.sector_units, spec_.params.min_capacity);
      progress_.admitted.reserve(phase.add_sectors);
      for (std::uint64_t s = 0; s < phase.add_sectors; ++s) {
        const auto id = net_->sector_register(provider_, capacity);
        FI_CHECK_MSG(
            id.is_ok(),
            "admit sector_register failed: " << id.status().to_string());
        progress_.admitted.push_back(id.value());
      }
      drain_transfers();  // confirm the §VI-B swap-ins
      break;
    }
    case PhaseKind::partition:
      // Spec validation ties net-condition phases to an enabled network
      // block, so the model has regions to cut here (and in the outage
      // and heal paths).
      netmodel_->set_region_partitioned(phase.region, true);
      suppress_region_proofs(phase.region);
      break;
    case PhaseKind::outage:
      netmodel_->set_region_down(phase.region, true);
      suppress_region_proofs(phase.region);
      break;
    default:
      break;
  }
  progress_.phase_started = true;
  phase_wall_seconds_ += seconds_since(t0);
}

void ScenarioRunner::step_phase_cycle(const PhaseSpec& phase) {
  const auto t0 = Clock::now();
  switch (phase.kind) {
    case PhaseKind::churn: {
      const std::uint64_t arrivals =
          phase.poisson_arrivals
              ? util::sample_poisson(
                    workload_rng_,
                    static_cast<double>(phase.adds_per_cycle))
              : phase.adds_per_cycle;
      for (std::uint64_t a = 0; a < arrivals; ++a) {
        (void)add_file();
      }
      const double expected_discards =
          phase.discard_fraction * static_cast<double>(live_files_.size());
      const std::uint64_t discards =
          expected_discards > 0.0
              ? util::sample_poisson(workload_rng_, expected_discards)
              : 0;
      for (std::uint64_t d = 0; d < discards; ++d) {
        const core::FileId file = sample_live_file();
        if (file == core::kNoFile) break;
        (void)net_->file_discard(client_, file);
        forget_file(file);  // removal completes at the next Auto_CheckProof
      }
      advance_cycles(1);
      break;
    }
    case PhaseKind::selfish_refresh: {
      advance_cycles(1);
      for (const core::FileId file : live_files_) {
        if (!net_->file_exists(file)) continue;
        progress_.observed.insert(file);
        const std::uint32_t cp = net_->allocations().replica_count(file);
        bool captive = cp > 0;
        for (core::ReplicaIndex r = 0; r < cp; ++r) {
          const core::SectorId holder =
              net_->allocations().entry(file, r).prev;
          if (holder == core::kNoSector ||
              holder >= progress_.selfish_cutoff) {
            captive = false;
            break;
          }
        }
        if (captive) {
          progress_.ever_captive.insert(file);
          progress_.max_streak =
              std::max(progress_.max_streak, ++progress_.streak[file]);
        } else {
          progress_.streak.erase(file);
        }
      }
      break;
    }
    case PhaseKind::outage:
      // Restart after down_cycles completed cycles: the region's links
      // come back and its sectors resume proving. cycles_done is snapshot
      // state, so a resumed run restarts at exactly the same cycle.
      if (progress_.cycles_done == phase.down_cycles &&
          netmodel_->region_down(phase.region)) {
        netmodel_->set_region_down(phase.region, false);
        restore_region_proofs(phase.region);
      }
      advance_cycles(1);
      break;
    case PhaseKind::idle:
    case PhaseKind::corrupt_burst:
    case PhaseKind::rent_audit:
    case PhaseKind::admit:
    case PhaseKind::partition:
      advance_cycles(1);
      break;
  }
  phase_wall_seconds_ += seconds_since(t0);
}

void ScenarioRunner::end_phase(const PhaseSpec& phase) {
  const auto t0 = Clock::now();
  PhaseMetrics& metrics = progress_.metrics;
  switch (phase.kind) {
    case PhaseKind::churn:
      metrics.extras.emplace_back(
          "add_rejections",
          static_cast<double>(add_rejections_ - progress_.rejections_before));
      break;
    case PhaseKind::corrupt_burst:
      metrics.extras.emplace_back(
          "sectors_hit", static_cast<double>(progress_.sectors_hit));
      break;
    case PhaseKind::selfish_refresh:
      metrics.extras.emplace_back(
          "ever_captive_fraction",
          progress_.observed.empty()
              ? 0.0
              : static_cast<double>(progress_.ever_captive.size()) /
                    static_cast<double>(progress_.observed.size()));
      metrics.extras.emplace_back("max_captive_streak",
                                  static_cast<double>(progress_.max_streak));
      metrics.extras.emplace_back(
          "observed_files", static_cast<double>(progress_.observed.size()));
      break;
    case PhaseKind::rent_audit: {
      const TokenAmount settled = net_->settle_all_rent();
      const TokenAmount pool = ledger_.balance(net_->rent_pool_account());
      const bool conserved =
          net_->total_rent_charged() == net_->total_rent_paid() + pool;
      metrics.extras.emplace_back("settled_now",
                                  static_cast<double>(settled));
      metrics.extras.emplace_back("rent_pool", static_cast<double>(pool));
      metrics.extras.emplace_back("rent_conserved", conserved ? 1.0 : 0.0);
      break;
    }
    case PhaseKind::admit: {
      std::size_t on_admitted = 0;
      std::size_t total = 0;
      for (core::SectorId id = 0; id < net_->sectors().count(); ++id) {
        total += net_->allocations().count_with_prev(id);
      }
      for (const core::SectorId id : progress_.admitted) {
        on_admitted += net_->allocations().count_with_prev(id);
      }
      metrics.extras.emplace_back(
          "admitted_sectors",
          static_cast<double>(progress_.admitted.size()));
      metrics.extras.emplace_back(
          "newcomer_share",
          total == 0 ? 0.0
                     : static_cast<double>(on_admitted) /
                           static_cast<double>(total));
      break;
    }
    case PhaseKind::partition:
      // Heal: links come back and the region's sectors resume proving from
      // the next cycle. Any proof windows missed while cut off have already
      // been punished (late or confiscated, depending on duration) —
      // healing never re-punishes.
      netmodel_->set_region_partitioned(phase.region, false);
      restore_region_proofs(phase.region);
      metrics.extras.emplace_back(
          "dropped_partition",
          static_cast<double>(netmodel_->dropped_partition()));
      break;
    case PhaseKind::outage:
      // down_cycles < cycles restarts mid-phase (step_phase_cycle); a
      // phase-long outage heals here instead.
      if (netmodel_->region_down(phase.region)) {
        netmodel_->set_region_down(phase.region, false);
        restore_region_proofs(phase.region);
      }
      metrics.extras.emplace_back(
          "dropped_down", static_cast<double>(netmodel_->dropped_down()));
      break;
    case PhaseKind::idle:
      break;
  }

  metrics.end_time = net_->now();
  metrics.delta = stats_delta(net_->stats(), progress_.stats_before);
  metrics.rent_charged =
      net_->total_rent_charged() - progress_.rent_charged_before;
  metrics.rent_paid = net_->total_rent_paid() - progress_.rent_paid_before;
  metrics.wall_seconds = phase_wall_seconds_ + seconds_since(t0);
  finished_phases_.push_back(std::move(metrics));

  const std::size_t next_phase = progress_.phase_index + 1;
  progress_ = RunProgress{};
  progress_.phase_index = next_phase;
  phase_wall_seconds_ = 0.0;
}

MetricsReport ScenarioRunner::run() {
  run_cycles(kAllCycles);
  return finalize();
}

std::uint64_t ScenarioRunner::run_cycles(std::uint64_t max_cycles) {
  if (max_cycles == 0) return 0;

  const auto run0 = Clock::now();
  std::uint64_t ran = 0;
  while (progress_.phase_index < spec_.phases.size()) {
    const PhaseSpec& phase = spec_.phases[progress_.phase_index];
    if (!progress_.phase_started) {
      begin_phase(phase);
    } else if (progress_.cycles_done >= phase_total_cycles(phase)) {
      // A previous call paused right after this phase's last cycle (the
      // checkpoint-safe point precedes end-of-phase bookkeeping); flush
      // the deferred end_phase before moving on — exactly what a resumed
      // snapshot of that paused state would do.
      end_phase(phase);
      continue;
    }
    while (progress_.cycles_done < phase_total_cycles(phase)) {
      step_phase_cycle(phase);
      ++progress_.cycles_done;
      // The checkpoint-safe point: every accumulator lives in progress_,
      // all transfers for the cycle are drained, no stack state in flight.
      if (++ran == max_cycles) {
        run_wall_seconds_ += seconds_since(run0);
        return ran;
      }
    }
    end_phase(phase);
  }
  run_wall_seconds_ += seconds_since(run0);
  return ran;
}

bool ScenarioRunner::finished() const {
  return progress_.phase_index >= spec_.phases.size();
}

MetricsReport ScenarioRunner::finalize() {
  FI_CHECK_MSG(!ran_, "ScenarioRunner::run() is single-shot");
  FI_CHECK_MSG(finished(), "finalize() before every phase completed");
  ran_ = true;

  const auto run0 = Clock::now();
  MetricsReport report;
  report.scenario = spec_.name;
  report.seed = spec_.seed;
  report.sectors = spec_.sectors;
  report.initial_files = initial_files_stored_;
  report.setup_seconds = setup_seconds_;
  report.phases = std::move(finished_phases_);
  finished_phases_.clear();

  for (std::size_t i = 0; i < adversaries_.size(); ++i) {
    ActiveAdversary& adv = adversaries_[i];
    // Final-extras hook; any actions emitted here are discarded (the run
    // is over).
    adversary::AdversaryView view(*net_, epoch_, adv.rng, live_files_,
                                  adv.claimed, adv.counters);
    adv.strategy->on_run_end(view);
    if (traffic_ != nullptr &&
        adv.spec.kind == adversary::StrategyKind::retrieval_ddos) {
      // The gang's demand-side outcome, summed over its stream block.
      const traffic::StreamTotals gang =
          traffic_->stream_totals(gang_base_[i], adv.spec.gang);
      adv.counters.set_extra("requests_attempted",
                             static_cast<double>(gang.attempted));
      adv.counters.set_extra("requests_rate_limited",
                             static_cast<double>(gang.rate_limited));
      adv.counters.set_extra("requests_dropped",
                             static_cast<double>(gang.dropped));
      adv.counters.set_extra("requests_enqueued",
                             static_cast<double>(gang.enqueued));
      adv.counters.set_extra("streams_flagged",
                             static_cast<double>(gang.flagged));
      if (gang.first_flagged_epoch != traffic::kNeverFlagged) {
        adv.counters.set_extra("first_flagged_epoch",
                               static_cast<double>(gang.first_flagged_epoch));
      }
    } else if (traffic_ != nullptr &&
               adv.spec.kind == adversary::StrategyKind::cartel_starver) {
      std::uint64_t hits = 0;
      for (const core::SectorId s : adv.claimed) {
        hits += traffic_->refusal_hits(s);
      }
      adv.counters.set_extra("refusal_hits", static_cast<double>(hits));
    }
    AdversaryMetrics outcome;
    outcome.label = adv.spec.display_label();
    outcome.strategy = adversary::strategy_kind_name(adv.spec.kind);
    outcome.counters = adv.counters;
    report.adversaries.push_back(std::move(outcome));
  }

  if (traffic_ != nullptr) report.traffic = traffic_->metrics();
  if (spec_.network.enabled) {
    // Gated on the spec block, so net-free reports keep their bytes.
    NetworkMetrics& nm = report.network;
    nm.enabled = true;
    nm.regions = netmodel_->regions();
    nm.sent = netmodel_->sent();
    nm.delivered = netmodel_->delivered();
    nm.delivered_late = netmodel_->delivered_late();
    nm.dropped_loss = netmodel_->dropped_loss();
    nm.dropped_partition = netmodel_->dropped_partition();
    nm.dropped_down = netmodel_->dropped_down();
    nm.deadline_misses_network = nm.delivered_late + nm.dropped_loss +
                                 nm.dropped_partition + nm.dropped_down;
    for (const AdversaryMetrics& adv : report.adversaries) {
      nm.deadline_misses_malice += adv.counters.transfers_refused;
    }
    nm.per_region.reserve(nm.regions);
    for (std::uint64_t r = 0; r < nm.regions; ++r) {
      RegionMetrics region;
      region.delivered = netmodel_->region_delivered(r);
      region.mean_latency =
          region.delivered == 0
              ? 0.0
              : static_cast<double>(netmodel_->region_latency_sum(r)) /
                    static_cast<double>(region.delivered);
      region.max_latency = netmodel_->region_latency_max(r);
      nm.per_region.push_back(region);
    }
  }
  report.totals = net_->stats();
  report.rent_charged = net_->total_rent_charged();
  report.rent_paid = net_->total_rent_paid();
  report.rent_pool = ledger_.balance(net_->rent_pool_account());
  report.rent_conserved =
      report.rent_charged == report.rent_paid + report.rent_pool;
  report.compensation_pool = net_->deposits().pool_balance();
  report.outstanding_liabilities = net_->deposits().outstanding_liabilities();
  report.final_files = net_->file_count();
  report.final_time = net_->now();
  report.wall_seconds = run_wall_seconds_ + seconds_since(run0);
  return report;
}

// ---------------------------------------------------------------------------
// Snapshot / resume
// ---------------------------------------------------------------------------

void ScenarioRunner::save_state(util::BinaryWriter& writer) const {
  // Construction-time ids, for cross-validation against the restoring
  // runner (a different spec would lay accounts out differently).
  writer.u64(provider_);
  writer.u64(client_);

  writer.u64(epoch_);
  writer.u64(initial_files_stored_);
  writer.u64(add_rejections_);
  for (const std::uint64_t word : workload_rng_.state()) writer.u64(word);

  ledger_.save(writer);
  net_->save(writer);

  // Every call that can request a transfer (file_add, sector_register, a
  // task batch) is drained before control leaves the runner, so the queue
  // is empty at every save point; the body keeps its count, 0.
  FI_CHECK_MSG(transfer_queue_.empty(),
               "checkpoint with " << transfer_queue_.size()
                                  << " undrained transfer requests");
  writer.u64(0);

  // Exact order: swap-erase position determines future uniform draws.
  util::save_u64_seq(writer, live_files_);

  writer.u64(adversaries_.size());
  for (const ActiveAdversary& adv : adversaries_) {
    for (const std::uint64_t word : adv.rng.state()) writer.u64(word);
    adv.counters.save(writer);
    util::save_u64_seq(writer, adv.claimed);
    adv.strategy->save_state(writer);
  }

  std::vector<std::pair<core::SectorId, std::uint64_t>> claims(
      // fi-lint: allow(unordered-iter, sorted before encoding)
      sector_claims_.begin(), sector_claims_.end());
  std::sort(claims.begin(), claims.end());
  writer.u64(claims.size());
  for (const auto& [sector, index] : claims) {
    writer.u64(sector);
    writer.u64(index);
  }
  save_id_set(refused_sectors_, writer);

  // Run progress: the phase cursor plus every mid-phase accumulator.
  writer.u64(progress_.phase_index);
  writer.boolean(progress_.phase_started);
  writer.u64(progress_.cycles_done);
  progress_.metrics.save(writer);
  core::save_network_stats(progress_.stats_before, writer);
  writer.u64(progress_.rent_charged_before);
  writer.u64(progress_.rent_paid_before);
  writer.u64(progress_.rejections_before);
  writer.u64(progress_.sectors_hit);
  writer.u64(progress_.selfish_cutoff);
  util::save_u64_seq(writer, progress_.admitted);
  {
    std::vector<std::pair<core::FileId, std::uint64_t>> streaks(
        // fi-lint: allow(unordered-iter, sorted before encoding)
        progress_.streak.begin(), progress_.streak.end());
    std::sort(streaks.begin(), streaks.end());
    writer.u64(streaks.size());
    for (const auto& [file, streak] : streaks) {
      writer.u64(file);
      writer.u64(streak);
    }
  }
  save_id_set(progress_.observed, writer);
  save_id_set(progress_.ever_captive, writer);
  writer.u64(progress_.max_streak);

  writer.u64(finished_phases_.size());
  for (const PhaseMetrics& metrics : finished_phases_) {
    metrics.save(writer);
  }

  // Appended last so traffic-free snapshots stay byte-identical to
  // pre-traffic builds.
  if (traffic_ != nullptr) traffic_->save_state(writer);

  // Net tail after the traffic tail, gated on the spec block so net-free
  // snapshots keep the byte format. Leaving the model out is sound only
  // because the zero profile has nothing in flight at a checkpoint and
  // draws no randomness: a resumed model starts out equivalent.
  if (spec_.network.enabled) {
    util::save_u64_seq(writer, net_suppressed_);
    netmodel_->save_state(writer);
  } else {
    FI_CHECK_MSG(netmodel_->in_flight() == 0,
                 "net-free snapshot with " << netmodel_->in_flight()
                                           << " messages in flight");
  }
}

util::Status ScenarioRunner::load_state(util::BinaryReader& reader) {
  const AccountId provider = reader.u64();
  const AccountId client = reader.u64();
  if (provider != provider_ || client != client_) {
    return util::err(util::ErrorCode::failed_precondition,
                     "snapshot account layout does not match the spec");
  }

  epoch_ = reader.u64();
  initial_files_stored_ = reader.u64();
  add_rejections_ = reader.u64();
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = reader.u64();
  workload_rng_.set_state(rng_state);

  ledger_.load(reader);
  if (auto status = net_->load(reader); !status.is_ok()) return status;

  transfer_queue_.clear();
  if (reader.u64() != 0) reader.fail();

  live_files_ = util::load_u64_seq<core::FileId>(reader);
  live_positions_.clear();
  live_positions_.reserve(live_files_.size());
  for (std::size_t i = 0; i < live_files_.size(); ++i) {
    live_positions_[live_files_[i]] = i;
  }

  const std::uint64_t adversaries = reader.u64();
  if (adversaries != adversaries_.size()) {
    return util::err(util::ErrorCode::failed_precondition,
                     "snapshot adversary count does not match the spec");
  }
  // The network loaded first, so every sector id below must name one of
  // its sectors.
  const core::SectorId sectors = net_->sectors().count();
  for (ActiveAdversary& adv : adversaries_) {
    std::array<std::uint64_t, 4> adv_rng;
    for (std::uint64_t& word : adv_rng) word = reader.u64();
    adv.rng.set_state(adv_rng);
    adv.counters.load(reader);
    adv.claimed = util::load_u64_seq<core::SectorId>(reader);
    adv.strategy->load_state(reader, sectors);
  }

  // claim_sector puts each sector in one claimed list, once, so the claims
  // section holds exactly the (sector, adversary) pairs those lists imply:
  // the map is rebuilt from the lists and the section only checked.
  sector_claims_.clear();
  for (std::size_t index = 0; index < adversaries_.size(); ++index) {
    for (const core::SectorId sector : adversaries_[index].claimed) {
      if (sector >= sectors || !sector_claims_.emplace(sector, index).second) {
        reader.fail();
      }
    }
  }
  // Equal sizes plus strictly ascending rows that each match a pair make
  // the section equal to the map.
  const std::uint64_t claims = reader.count(16);
  if (claims != sector_claims_.size()) reader.fail();
  core::SectorId previous = 0;
  for (std::uint64_t i = 0; i < claims && reader.ok(); ++i) {
    const core::SectorId sector = reader.u64();
    const std::uint64_t index = reader.u64();
    const auto claim = sector_claims_.find(sector);
    if ((i > 0 && sector <= previous) || claim == sector_claims_.end() ||
        claim->second != index) {
      reader.fail();
    }
    previous = sector;
  }
  const std::vector<core::SectorId> refused =
      util::load_u64_seq<core::SectorId>(reader);
  if (!ascending_below(refused, sectors)) reader.fail();
  refused_sectors_.clear();
  refused_sectors_.insert(refused.begin(), refused.end());

  progress_ = RunProgress{};
  progress_.phase_index = static_cast<std::size_t>(reader.u64());
  progress_.phase_started = reader.boolean();
  progress_.cycles_done = reader.u64();
  progress_.metrics.load(reader);
  progress_.stats_before = core::load_network_stats(reader);
  progress_.rent_charged_before = reader.u64();
  progress_.rent_paid_before = reader.u64();
  progress_.rejections_before = reader.u64();
  progress_.sectors_hit = reader.u64();
  progress_.selfish_cutoff = reader.u64();
  progress_.admitted = util::load_u64_seq<core::SectorId>(reader);
  // begin_phase registers the admitted sectors in id order.
  if (!ascending_below(progress_.admitted, sectors)) reader.fail();
  {
    const std::uint64_t streaks = reader.count(16);
    progress_.streak.reserve(streaks);
    for (std::uint64_t i = 0; i < streaks; ++i) {
      const core::FileId file = reader.u64();
      progress_.streak[file] = reader.u64();
    }
  }
  for (const core::FileId file : util::load_u64_seq<core::FileId>(reader)) {
    progress_.observed.insert(file);
  }
  for (const core::FileId file : util::load_u64_seq<core::FileId>(reader)) {
    progress_.ever_captive.insert(file);
  }
  progress_.max_streak = reader.u64();
  if (progress_.phase_index > spec_.phases.size() ||
      (progress_.phase_index < spec_.phases.size() &&
       progress_.cycles_done >
           phase_total_cycles(spec_.phases[progress_.phase_index]))) {
    return util::err(util::ErrorCode::invalid_argument,
                     "snapshot phase cursor out of range for the spec");
  }

  finished_phases_.clear();
  // Each PhaseMetrics encodes >= 176 bytes (two string prefixes, the
  // 15-counter stats block, rent flows, extras count); a conservative 64
  // still bounds a hostile prefix's reserve() to ~4x the input size.
  const std::uint64_t phases = reader.count(64);
  finished_phases_.reserve(phases);
  for (std::uint64_t i = 0; i < phases; ++i) {
    PhaseMetrics metrics;
    metrics.load(reader);
    finished_phases_.push_back(std::move(metrics));
  }

  if (traffic_ != nullptr) traffic_->load_state(reader);

  if (spec_.network.enabled) {
    net_suppressed_ = util::load_u64_seq<core::SectorId>(reader);
    if (!ascending_below(net_suppressed_, sectors)) reader.fail();
    netmodel_->load_state(reader);
    // A checkpoint follows a drain, which delivers everything due by then.
    if (netmodel_->next_delivery_time() < net_->now()) reader.fail();
  }

  if (!reader.ok() || !reader.exhausted()) {
    return util::err(util::ErrorCode::invalid_argument,
                     "malformed scenario snapshot body");
  }
  return util::Status::ok();
}

util::Result<std::unique_ptr<ScenarioRunner>> ScenarioRunner::resume(
    ScenarioSpec spec, util::BinaryReader& reader) {
  if (util::Status valid = spec.validate(); !valid.is_ok()) {
    return valid;
  }
  std::unique_ptr<ScenarioRunner> runner(
      new ScenarioRunner(std::move(spec), ResumeTag{}));
  if (util::Status status = runner->load_state(reader); !status.is_ok()) {
    return status;
  }
  return runner;
}

}  // namespace fi::scenario

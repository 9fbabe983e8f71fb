#include "adversary/strategy.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/check.h"
#include "util/distributions.h"

namespace fi::adversary {

std::vector<core::SectorId> normal_sector_ids(const core::Network& net) {
  std::vector<core::SectorId> ids;
  ids.reserve(net.sectors().count());
  for (core::SectorId id = 0; id < net.sectors().count(); ++id) {
    if (net.sectors().at(id).state == core::SectorState::normal) {
      ids.push_back(id);
    }
  }
  return ids;
}

void AdversaryCounters::save(util::BinaryWriter& writer) const {
  writer.u64(replicas_attacked);
  writer.u64(sectors_corrupted);
  writer.u64(proofs_withheld);
  writer.u64(transfers_refused);
  writer.u64(sectors_exited);
  writer.u64(sectors_joined);
  writer.u64(files_lost);
  writer.u64(deposits_confiscated);
  writer.u64(penalties_paid);
  writer.u64(compensation_paid);
  util::save_named_doubles(writer, extras);
}

void AdversaryCounters::load(util::BinaryReader& reader) {
  replicas_attacked = reader.u64();
  sectors_corrupted = reader.u64();
  proofs_withheld = reader.u64();
  transfers_refused = reader.u64();
  sectors_exited = reader.u64();
  sectors_joined = reader.u64();
  files_lost = reader.u64();
  deposits_confiscated = reader.u64();
  penalties_paid = reader.u64();
  compensation_paid = reader.u64();
  extras = util::load_named_doubles(reader);
}

namespace {

using core::SectorId;
using core::SectorState;

/// Uniform sample of `count` entries without replacement (over a copy;
/// result in draw order).
std::vector<SectorId> sample_sectors(std::vector<SectorId> pool,
                                     std::size_t count,
                                     util::Xoshiro256& rng) {
  pool.resize(util::shuffle_prefix(pool, count, rng));
  return pool;
}

std::size_t fraction_of(std::size_t n, double fraction) {
  return static_cast<std::size_t>(std::llround(fraction * static_cast<double>(n)));
}

/// Every id in `members` names one of the network's `sectors`.
bool all_below(const std::vector<SectorId>& members, SectorId sectors) {
  return std::all_of(members.begin(), members.end(),
                     [sectors](SectorId s) { return s < sectors; });
}

/// Distinct healthy holders of `file`, ascending sector id (none once the
/// network dropped the file). The alloc table keeps `prev` through
/// corruption, so filter by entry and sector state.
std::vector<SectorId> healthy_holders(const core::Network& net,
                                      core::FileId file) {
  std::vector<SectorId> holders;
  if (!net.file_exists(file)) return holders;
  const std::uint32_t cp = net.allocations().replica_count(file);
  for (core::ReplicaIndex r = 0; r < cp; ++r) {
    const core::AllocEntry& e = net.allocations().entry(file, r);
    if (e.state == core::AllocState::corrupted || e.prev == core::kNoSector) {
      continue;
    }
    const SectorState state = net.sectors().at(e.prev).state;
    if (state == SectorState::normal || state == SectorState::disabled) {
      holders.push_back(e.prev);
    }
  }
  std::sort(holders.begin(), holders.end());
  holders.erase(std::unique(holders.begin(), holders.end()), holders.end());
  return holders;
}

// ---- targeted_file ---------------------------------------------------------

/// Theorem 3 stressor: lock onto one live file and corrupt its current
/// replica holders every epoch, racing the location refresh that keeps
/// re-scattering them.
class TargetedFile final : public AdversaryStrategy {
 public:
  explicit TargetedFile(AdversarySpec spec) : spec_(std::move(spec)) {}

  void on_epoch(AdversaryView& view) override {
    if (view.epoch() < spec_.start_epoch) return;
    if (target_ == core::kNoFile) {
      if (view.live_files().empty()) return;  // retry next epoch
      target_ = view.live_files()[static_cast<std::size_t>(
          view.rng().uniform_below(view.live_files().size()))];
      view.set_extra("target_file", static_cast<double>(target_));
    }
    if (lost_ || !view.net().file_exists(target_)) {
      if (!lost_) {
        lost_ = true;
        view.set_extra("target_lost_epoch", static_cast<double>(view.epoch()));
      }
      return;
    }
    const std::vector<SectorId> holders = healthy_holders(view.net(), target_);
    std::uint64_t quota = spec_.sectors_per_epoch;
    if (spec_.budget != 0) {
      quota = std::min(quota, spec_.budget - std::min(spent_, spec_.budget));
    }
    for (std::size_t i = 0; i < holders.size() && quota > 0; ++i, --quota) {
      view.corrupt_sector(holders[i]);
      ++spent_;
    }
  }

  void on_run_end(AdversaryView& view) override {
    const bool alive =
        target_ != core::kNoFile && view.net().file_exists(target_);
    // A target that died during the run's final proof cycle was never
    // observed dead by on_epoch; backfill the loss epoch so target_alive
    // and target_lost_epoch stay consistent.
    if (target_ != core::kNoFile && !alive && !lost_) {
      lost_ = true;
      view.set_extra("target_lost_epoch", static_cast<double>(view.epoch()));
    }
    view.set_extra("target_alive", alive ? 1.0 : 0.0);
  }

  void save_state(util::BinaryWriter& writer) const override {
    writer.u64(target_);
    writer.boolean(lost_);
    writer.u64(spent_);
  }
  void load_state(util::BinaryReader& reader,
                  SectorId /*sectors*/) override {
    target_ = reader.u64();
    lost_ = reader.boolean();
    spent_ = reader.u64();
  }

 private:
  // fi-lint: not-serialized(rebuilt from the scenario spec when the
  // strategy is re-created on resume)
  AdversarySpec spec_;
  core::FileId target_ = core::kNoFile;
  bool lost_ = false;
  std::uint64_t spent_ = 0;
};

// ---- colluding_pool / informed_pool ---------------------------------------

/// Span-greedy recruitment with full knowledge of the placement: take the
/// missing holders of the live files spanning the fewest healthy sectors
/// first (stable order) while they fit in `quota`, then fill the quota
/// with a random sample of the other `normal` sectors.
std::vector<SectorId> recruit_informed(AdversaryView& view,
                                       const std::vector<SectorId>& normal,
                                       std::size_t quota) {
  const core::Network& net = view.net();
  std::vector<std::vector<SectorId>> spans;
  spans.reserve(view.live_files().size());
  for (const core::FileId file : view.live_files()) {
    spans.push_back(healthy_holders(net, file));
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const std::vector<SectorId>& a,
                      const std::vector<SectorId>& b) {
                     return a.size() < b.size();
                   });

  std::vector<bool> taken(net.sectors().count(), false);
  std::vector<SectorId> members;
  std::vector<SectorId> missing;
  for (const std::vector<SectorId>& span : spans) {
    missing.clear();
    for (const SectorId s : span) {
      if (!taken[s]) missing.push_back(s);
    }
    if (missing.empty() || members.size() + missing.size() > quota) continue;
    for (const SectorId s : missing) {
      taken[s] = true;
      members.push_back(s);
    }
  }

  std::vector<SectorId> rest;
  std::copy_if(normal.begin(), normal.end(), std::back_inserter(rest),
               [&taken](SectorId s) { return !taken[s]; });
  rest = sample_sectors(std::move(rest), quota - members.size(), view.rng());
  members.insert(members.end(), rest.begin(), rest.end());
  return members;
}

/// Theorem 4 stressor: a fraction of the fleet corrupts itself across a
/// coordinated window of epochs (the §V-B3 catastrophe, spread in time so
/// detection and compensation interleave with further losses). The
/// `colluding_pool` coalition is a uniform sample of the live fleet; the
/// `informed_pool` one is recruited span-greedily (`recruit_informed`).
class ColludingPool final : public AdversaryStrategy {
 public:
  explicit ColludingPool(AdversarySpec spec) : spec_(std::move(spec)) {}

  void on_epoch(AdversaryView& view) override {
    if (view.epoch() < spec_.start_epoch) return;
    if (!recruited_) {
      recruited_ = true;
      // The fraction is of the *live* fleet at recruitment time, not of
      // every sector ever registered — earlier attrition must not inflate
      // the coalition's effective share.
      std::vector<SectorId> pool = normal_sector_ids(view.net());
      const std::size_t quota = fraction_of(pool.size(), spec_.fraction);
      members_ = spec_.kind == StrategyKind::informed_pool
                     ? recruit_informed(view, pool, quota)
                     : sample_sectors(std::move(pool), quota, view.rng());
      view.set_extra("pool_size", static_cast<double>(members_.size()));
      // Spread the pool evenly over the window, remainder up front.
      per_epoch_ = (members_.size() + spec_.window - 1) / spec_.window;
    }
    for (std::uint64_t n = 0; n < per_epoch_ && next_ < members_.size();
         ++n, ++next_) {
      view.corrupt_sector(members_[next_]);
    }
  }

  void save_state(util::BinaryWriter& writer) const override {
    writer.boolean(recruited_);
    util::save_u64_seq(writer, members_);
    writer.u64(per_epoch_);
    writer.u64(next_);
  }
  void load_state(util::BinaryReader& reader, SectorId sectors) override {
    recruited_ = reader.boolean();
    members_ = util::load_u64_seq<SectorId>(reader);
    if (!all_below(members_, sectors)) reader.fail();
    per_epoch_ = static_cast<std::size_t>(reader.u64());
    next_ = static_cast<std::size_t>(reader.u64());
  }

 private:
  // fi-lint: not-serialized(rebuilt from the scenario spec when the
  // strategy is re-created on resume)
  AdversarySpec spec_;
  bool recruited_ = false;
  std::vector<SectorId> members_;
  std::size_t per_epoch_ = 0;
  std::size_t next_ = 0;
};

// ---- proof_withholder ------------------------------------------------------

/// Rational challenge skipping (generalizes the §VI-E selfish logic from
/// retrieval to proofs): a member withholds its WindowPoSt whenever the
/// expected late-proof penalty — replicas held × punish_bp of its
/// remaining deposit — is below the per-epoch proving cost it saves, and
/// resumes before a withheld streak could breach ProofDeadline.
class ProofWithholder final : public AdversaryStrategy {
 public:
  explicit ProofWithholder(AdversarySpec spec) : spec_(std::move(spec)) {}

  void on_epoch(AdversaryView& view) override {
    if (view.epoch() < spec_.start_epoch) return;
    const core::Params& p = view.net().params();
    if (!recruited_) {
      recruited_ = true;
      std::vector<SectorId> pool = normal_sector_ids(view.net());
      const std::size_t quota = fraction_of(pool.size(), spec_.fraction);
      members_ = sample_sectors(std::move(pool), quota, view.rng());
      streaks_.assign(members_.size(), 0);
      view.set_extra("members", static_cast<double>(members_.size()));
      // Longest withheld streak that cannot breach ProofDeadline: the
      // stamp age at the k-th skipped check is k * proof_cycle, and the
      // breach test is `age > proof_deadline`.
      max_streak_ = spec_.max_withhold_streak != 0
                        ? spec_.max_withhold_streak
                        : p.proof_deadline / p.proof_cycle;
      if (max_streak_ == 0) max_streak_ = 1;
    }
    for (std::size_t m = 0; m < members_.size(); ++m) {
      const SectorId s = members_[m];
      if (view.net().sectors().at(s).state != SectorState::normal) continue;
      const TokenAmount per_replica =
          view.net().deposits().remaining(s) * p.punish_bp / 10'000;
      const TokenAmount expected_penalty =
          static_cast<TokenAmount>(
              view.net().allocations().count_with_prev(s)) *
          per_replica;
      if (streaks_[m] < max_streak_ && expected_penalty < spec_.saved_per_cycle) {
        view.withhold_proofs(s);
        ++streaks_[m];
      } else {
        view.resume_proofs(s);
        streaks_[m] = 0;
      }
    }
  }

  void save_state(util::BinaryWriter& writer) const override {
    writer.boolean(recruited_);
    util::save_u64_seq(writer, members_);
    util::save_u64_seq(writer, streaks_);
    writer.u64(max_streak_);
  }
  void load_state(util::BinaryReader& reader, SectorId sectors) override {
    recruited_ = reader.boolean();
    members_ = util::load_u64_seq<SectorId>(reader);
    streaks_ = util::load_u64_seq<std::uint64_t>(reader);
    // on_epoch indexes streaks_ by member position — a crafted body with
    // mismatched lengths must be rejected, not discovered out of bounds.
    if (streaks_.size() != members_.size() || !all_below(members_, sectors)) {
      reader.fail();
    }
    max_streak_ = reader.u64();
  }

 private:
  // fi-lint: not-serialized(rebuilt from the scenario spec when the
  // strategy is re-created on resume)
  AdversarySpec spec_;
  bool recruited_ = false;
  std::vector<SectorId> members_;
  std::vector<std::uint64_t> streaks_;
  std::uint64_t max_streak_ = 1;
};

// ---- churn_griefer ---------------------------------------------------------

/// Registers a private fleet, then every `period` epochs disables all of
/// it and registers replacements — each exit forces its replicas to drain
/// out via refresh, each join re-triggers §VI-B admission rebalancing, and
/// the pending list absorbs the churn.
class ChurnGriefer final : public AdversaryStrategy {
 public:
  explicit ChurnGriefer(AdversarySpec spec) : spec_(std::move(spec)) {}

  void on_epoch(AdversaryView& view) override {
    if (view.epoch() < spec_.start_epoch) return;
    if (view.epoch() == spec_.start_epoch) {
      view.join_sectors(spec_.sectors);
      return;
    }
    if ((view.epoch() - spec_.start_epoch) % spec_.period != 0) return;
    std::uint64_t exited = 0;
    for (const SectorId s : view.owned_sectors()) {
      if (view.net().sectors().at(s).state == SectorState::normal) {
        view.exit_sector(s);
        ++exited;
      }
    }
    if (exited > 0) view.join_sectors(exited);
  }

 private:
  // fi-lint: not-serialized(rebuilt from the scenario spec when the
  // strategy is re-created on resume)
  AdversarySpec spec_;
};

// ---- adaptive_threshold ----------------------------------------------------

/// Escalation under a penalty budget: corrupts `rate` random sectors per
/// epoch, doubling the rate every `escalate_every` active epochs, and goes
/// permanently dormant once the penalties attributed to it (confiscated
/// deposits plus punishments) reach `penalty_budget` — the attacker the
/// deposit scheme is designed to price out.
class AdaptiveThreshold final : public AdversaryStrategy {
 public:
  explicit AdaptiveThreshold(AdversarySpec spec)
      : spec_(std::move(spec)), rate_(spec_.rate) {}

  void on_epoch(AdversaryView& view) override {
    if (view.epoch() < spec_.start_epoch || dormant_) return;
    const TokenAmount penalties = view.counters().deposits_confiscated +
                                  view.counters().penalties_paid;
    if (penalties >= spec_.penalty_budget) {
      dormant_ = true;
      view.set_extra("dormant_epoch", static_cast<double>(view.epoch()));
      return;
    }
    ++active_epochs_;
    if (active_epochs_ > 1 && (active_epochs_ - 1) % spec_.escalate_every == 0 &&
        rate_ < (1ull << 32)) {
      rate_ *= 2;
    }
    view.set_extra("final_rate", static_cast<double>(rate_));
    for (const SectorId s : sample_sectors(normal_sector_ids(view.net()),
                                           static_cast<std::size_t>(rate_),
                                           view.rng())) {
      view.corrupt_sector(s);
    }
  }

  void on_run_end(AdversaryView& view) override {
    view.set_extra("went_dormant", dormant_ ? 1.0 : 0.0);
  }

  void save_state(util::BinaryWriter& writer) const override {
    writer.u64(rate_);
    writer.u64(active_epochs_);
    writer.boolean(dormant_);
  }
  void load_state(util::BinaryReader& reader,
                  SectorId /*sectors*/) override {
    rate_ = reader.u64();
    active_epochs_ = reader.u64();
    dormant_ = reader.boolean();
  }

 private:
  // fi-lint: not-serialized(rebuilt from the scenario spec when the
  // strategy is re-created on resume)
  AdversarySpec spec_;
  std::uint64_t rate_;
  std::uint64_t active_epochs_ = 0;
  bool dormant_ = false;
};

// ---- refresh_saboteur, cartel_starver -------------------------------------

/// A coalition holding a fraction of the fleet refuses, for `duration`
/// epochs, the service its kind names. A refresh_saboteur refuses inbound
/// replica transfers: handoffs (and uploads) to members miss their
/// deadlines, exercising the Fig. 9 failure path. A cartel_starver keeps
/// storing and proving (no deposit is at risk) but refuses to serve
/// retrievals: requests whose every holder is a member starve.
class RefusingCoalition final : public AdversaryStrategy {
 public:
  explicit RefusingCoalition(AdversarySpec spec) : spec_(std::move(spec)) {}

  void on_epoch(AdversaryView& view) override {
    if (view.epoch() < spec_.start_epoch) return;
    if (!recruited_) {
      recruited_ = true;
      std::vector<SectorId> pool = normal_sector_ids(view.net());
      const std::size_t quota = fraction_of(pool.size(), spec_.fraction);
      members_ = sample_sectors(std::move(pool), quota, view.rng());
      view.set_extra("members", static_cast<double>(members_.size()));
      refuse(view, true);
      return;
    }
    if (!stopped_ && spec_.duration != 0 &&
        view.epoch() >= spec_.start_epoch + spec_.duration) {
      stopped_ = true;
      refuse(view, false);
    }
  }

  void save_state(util::BinaryWriter& writer) const override {
    writer.boolean(recruited_);
    writer.boolean(stopped_);
    util::save_u64_seq(writer, members_);
  }
  void load_state(util::BinaryReader& reader, SectorId sectors) override {
    recruited_ = reader.boolean();
    stopped_ = reader.boolean();
    members_ = util::load_u64_seq<SectorId>(reader);
    if (!all_below(members_, sectors)) reader.fail();
  }

 private:
  /// Toggles every member's refusal of the service the kind names.
  void refuse(AdversaryView& view, bool on) const {
    for (const SectorId s : members_) {
      if (spec_.kind == StrategyKind::refresh_saboteur) {
        view.refuse_transfers(s, on);
      } else {
        view.refuse_serve(s, on);
      }
    }
  }

  // fi-lint: not-serialized(rebuilt from the scenario spec when the
  // strategy is re-created on resume)
  AdversarySpec spec_;
  bool recruited_ = false;
  bool stopped_ = false;
  std::vector<SectorId> members_;
};

// ---- retrieval_ddos --------------------------------------------------------

/// Retrieval-layer DDoS: every active epoch, each gang stream hammers one
/// live victim file with `requests_per_epoch` retrievals, swamping its
/// holders' service queues (and, with the defense enabled, walking
/// straight into the Poisson envelope). Re-targets if the victim is lost.
class RetrievalDdos final : public AdversaryStrategy {
 public:
  explicit RetrievalDdos(AdversarySpec spec) : spec_(std::move(spec)) {}

  void on_epoch(AdversaryView& view) override {
    if (view.epoch() < spec_.start_epoch) return;
    if (spec_.duration != 0 &&
        view.epoch() >= spec_.start_epoch + spec_.duration) {
      return;
    }
    if (target_ == core::kNoFile || !view.net().file_exists(target_)) {
      if (view.live_files().empty()) return;  // retry next epoch
      target_ = view.live_files()[static_cast<std::size_t>(
          view.rng().uniform_below(view.live_files().size()))];
      ++retargets_;
      view.set_extra("target_file", static_cast<double>(target_));
      view.set_extra("retargets", static_cast<double>(retargets_));
    }
    for (std::uint64_t g = 0; g < spec_.gang; ++g) {
      view.hammer_file(target_, g, spec_.requests_per_epoch);
    }
  }

  void save_state(util::BinaryWriter& writer) const override {
    writer.u64(target_);
    writer.u64(retargets_);
  }
  void load_state(util::BinaryReader& reader,
                  SectorId /*sectors*/) override {
    target_ = reader.u64();
    retargets_ = reader.u64();
  }

 private:
  // fi-lint: not-serialized(rebuilt from the scenario spec when the
  // strategy is re-created on resume)
  AdversarySpec spec_;
  core::FileId target_ = core::kNoFile;
  std::uint64_t retargets_ = 0;
};

}  // namespace

std::unique_ptr<AdversaryStrategy> make_strategy(const AdversarySpec& spec) {
  switch (spec.kind) {
    case StrategyKind::targeted_file:
      return std::make_unique<TargetedFile>(spec);
    case StrategyKind::colluding_pool:
    case StrategyKind::informed_pool:
      return std::make_unique<ColludingPool>(spec);
    case StrategyKind::proof_withholder:
      return std::make_unique<ProofWithholder>(spec);
    case StrategyKind::churn_griefer:
      return std::make_unique<ChurnGriefer>(spec);
    case StrategyKind::adaptive_threshold:
      return std::make_unique<AdaptiveThreshold>(spec);
    case StrategyKind::refresh_saboteur:
    case StrategyKind::cartel_starver:
      return std::make_unique<RefusingCoalition>(spec);
    case StrategyKind::retrieval_ddos:
      return std::make_unique<RetrievalDdos>(spec);
  }
  FI_CHECK_MSG(false, "unhandled adversary strategy kind");
  return nullptr;
}

}  // namespace fi::adversary

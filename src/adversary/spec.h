#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/config.h"
#include "util/status.h"
#include "util/types.h"

/// Declarative adversary configuration for the scenario engine.
///
/// A scenario may attach any number of adversaries as repeatable
/// `adversary.<i>.*` config blocks (strategy name plus typed knobs,
/// mirroring the `phase.<i>.*` convention). Each block instantiates one
/// `AdversaryStrategy` (see `adversary/strategy.h`) that the
/// `ScenarioRunner` consults once per proof cycle on its own deterministic
/// RNG stream, so attack schedules replay bit-for-bit from the spec.
namespace fi::adversary {

/// Attack archetypes, covering the paper's threat surface (Theorems 2–4):
/// targeted corruption, coordinated corruption, proof withholding, churn
/// griefing, penalty-aware escalation, and refresh sabotage.
enum class StrategyKind : std::uint8_t {
  /// Concentrate corruption on one file's replica holders (the Theorem 3
  /// robustness adversary): pick a live file, then corrupt up to
  /// `sectors_per_epoch` of its current holders every epoch until the file
  /// is lost (or a total `budget` of sectors is spent).
  targeted_file,
  /// A coalition holding a `fraction` of the fleet corrupts itself in a
  /// coordinated `window` of epochs (the §V-B3 catastrophe, spread in
  /// time) — the deposit-sufficiency stressor of Theorem 4.
  colluding_pool,
  /// Economically rational proof withholding, generalizing the §VI-E
  /// selfish logic from retrieval to challenges: a member skips its
  /// WindowPoSt whenever the expected late-proof penalty is below
  /// `saved_per_cycle`, resuming just before the ProofDeadline would
  /// confiscate the sector.
  proof_withholder,
  /// Rapid exit/re-join: registers a private fleet, then every `period`
  /// epochs disables all of it and registers replacements — stressing
  /// refresh drains, the pending list, and §VI-B admission rebalancing.
  churn_griefer,
  /// Escalating corruption under a penalty budget: corrupts `rate` random
  /// sectors per epoch, doubling the rate every `escalate_every` epochs,
  /// and goes permanently dormant once its observed penalties (confiscated
  /// deposits + punishments) reach `penalty_budget`.
  adaptive_threshold,
  /// A `fraction` of the fleet refuses inbound replica transfers (refresh
  /// handoffs and uploads) for `duration` epochs — delaying refresh and
  /// farming failed-handoff punishments (the Fig. 9 failure path).
  refresh_saboteur,
  /// Retrieval-layer DDoS: a gang of `gang` request streams hammers one
  /// live file with `requests_per_epoch` retrievals each per epoch (for
  /// `duration` epochs, 0 = rest of the run), swamping its holders'
  /// service queues. Re-targets if the victim file is lost. Requires a
  /// scenario with the traffic engine enabled.
  retrieval_ddos,
  /// Supply-side starvation: a cartel holding a `fraction` of the fleet
  /// refuses to *serve* retrievals for `duration` epochs (0 = rest of the
  /// run) — requests whose every holder is a cartel member starve, the
  /// complement of the refresh saboteur's inbound refusal. Requires a
  /// scenario with the traffic engine enabled.
  cartel_starver,
  /// A `colluding_pool` recruited with full knowledge of the placement
  /// (the span-greedy attack Theorem 3's bound defends against): whole
  /// holder sets of the files spanning the fewest sectors first, then
  /// random live sectors, up to its `fraction` budget.
  informed_pool,
};

[[nodiscard]] const char* strategy_kind_name(StrategyKind kind);
[[nodiscard]] util::Result<StrategyKind> strategy_kind_from_name(
    std::string_view name);

/// One adversary block. As with `PhaseSpec`, knobs irrelevant to the
/// declared strategy must stay at their defaults — `validate()` rejects
/// e.g. a `targeted_file` adversary with a `fraction`, and file configs
/// additionally get the unknown-key sweep, so a stray knob never silently
/// runs a different attack.
struct AdversarySpec {
  StrategyKind kind = StrategyKind::targeted_file;
  /// Display label in reports; defaults to the strategy name.
  std::string label;
  /// First epoch (proof cycle since setup) the strategy acts on.
  std::uint64_t start_epoch = 0;
  /// colluding_pool / informed_pool / proof_withholder / refresh_saboteur /
  /// cartel_starver: fraction of the fleet the adversary controls.
  double fraction = 0.0;
  /// colluding_pool / informed_pool: epochs over which the pool corrupts
  /// itself.
  std::uint64_t window = 1;
  /// targeted_file: holders corrupted per epoch.
  std::uint64_t sectors_per_epoch = 1;
  /// targeted_file: total sectors it may corrupt (0 = unlimited).
  std::uint64_t budget = 0;
  /// proof_withholder: proving cost saved per sector per withheld epoch —
  /// the benefit side of its penalty comparison.
  TokenAmount saved_per_cycle = 0;
  /// proof_withholder: longest run of consecutively withheld epochs
  /// (0 = auto: the longest run that cannot breach ProofDeadline,
  /// `floor(proof_deadline / proof_cycle)`).
  std::uint64_t max_withhold_streak = 0;
  /// churn_griefer: size of its private fleet.
  std::uint64_t sectors = 0;
  /// churn_griefer: epochs between exit/re-join rounds.
  std::uint64_t period = 1;
  /// adaptive_threshold: initial corruptions per epoch.
  std::uint64_t rate = 1;
  /// adaptive_threshold: penalty level (confiscations + punishments) at
  /// which it goes dormant.
  TokenAmount penalty_budget = 0;
  /// adaptive_threshold: epochs between rate doublings.
  std::uint64_t escalate_every = 4;
  /// refresh_saboteur / retrieval_ddos / cartel_starver: epochs of
  /// activity (0 = rest of the run).
  std::uint64_t duration = 0;
  /// retrieval_ddos: hammer requests per gang stream per epoch.
  std::uint64_t requests_per_epoch = 0;
  /// retrieval_ddos: number of attacking request streams.
  std::uint64_t gang = 1;

  [[nodiscard]] std::string display_label() const {
    return label.empty() ? strategy_kind_name(kind) : label;
  }

  /// Reads one `adversary.<index>.*` group from `config`, consuming only
  /// the keys the declared strategy understands (anything else is left for
  /// the caller's unknown-key sweep).
  static util::Result<AdversarySpec> from_config(const util::Config& config,
                                                 std::size_t index);

  /// Per-block validation; `where` prefixes error messages
  /// (e.g. "adversary.2").
  [[nodiscard]] util::Status validate(const std::string& where) const;

  /// Lossless key=value serialization of this block (the
  /// `ScenarioSpec::to_config_string` round trip).
  void serialize(std::string& out, std::size_t index) const;

  // ---- Factories for in-code spec construction ---------------------------

  static AdversarySpec make_targeted_file(std::uint64_t sectors_per_epoch = 1,
                                          std::uint64_t budget = 0,
                                          std::uint64_t start_epoch = 0) {
    AdversarySpec a;
    a.kind = StrategyKind::targeted_file;
    a.sectors_per_epoch = sectors_per_epoch;
    a.budget = budget;
    a.start_epoch = start_epoch;
    return a;
  }
  static AdversarySpec make_colluding_pool(double fraction,
                                           std::uint64_t window = 1,
                                           std::uint64_t start_epoch = 0) {
    AdversarySpec a;
    a.kind = StrategyKind::colluding_pool;
    a.fraction = fraction;
    a.window = window;
    a.start_epoch = start_epoch;
    return a;
  }
  static AdversarySpec make_informed_pool(double fraction,
                                          std::uint64_t window = 1,
                                          std::uint64_t start_epoch = 0) {
    AdversarySpec a = make_colluding_pool(fraction, window, start_epoch);
    a.kind = StrategyKind::informed_pool;
    return a;
  }
  static AdversarySpec make_proof_withholder(double fraction,
                                             TokenAmount saved_per_cycle,
                                             std::uint64_t start_epoch = 0) {
    AdversarySpec a;
    a.kind = StrategyKind::proof_withholder;
    a.fraction = fraction;
    a.saved_per_cycle = saved_per_cycle;
    a.start_epoch = start_epoch;
    return a;
  }
  static AdversarySpec make_churn_griefer(std::uint64_t sectors,
                                          std::uint64_t period = 1,
                                          std::uint64_t start_epoch = 0) {
    AdversarySpec a;
    a.kind = StrategyKind::churn_griefer;
    a.sectors = sectors;
    a.period = period;
    a.start_epoch = start_epoch;
    return a;
  }
  static AdversarySpec make_adaptive_threshold(TokenAmount penalty_budget,
                                               std::uint64_t rate = 1,
                                               std::uint64_t escalate_every = 4,
                                               std::uint64_t start_epoch = 0) {
    AdversarySpec a;
    a.kind = StrategyKind::adaptive_threshold;
    a.penalty_budget = penalty_budget;
    a.rate = rate;
    a.escalate_every = escalate_every;
    a.start_epoch = start_epoch;
    return a;
  }
  static AdversarySpec make_refresh_saboteur(double fraction,
                                             std::uint64_t duration = 0,
                                             std::uint64_t start_epoch = 0) {
    AdversarySpec a;
    a.kind = StrategyKind::refresh_saboteur;
    a.fraction = fraction;
    a.duration = duration;
    a.start_epoch = start_epoch;
    return a;
  }
  static AdversarySpec make_retrieval_ddos(std::uint64_t requests_per_epoch,
                                           std::uint64_t gang = 1,
                                           std::uint64_t start_epoch = 0) {
    AdversarySpec a;
    a.kind = StrategyKind::retrieval_ddos;
    a.requests_per_epoch = requests_per_epoch;
    a.gang = gang;
    a.start_epoch = start_epoch;
    return a;
  }
  static AdversarySpec make_cartel_starver(double fraction,
                                           std::uint64_t duration = 0,
                                           std::uint64_t start_epoch = 0) {
    AdversarySpec a;
    a.kind = StrategyKind::cartel_starver;
    a.fraction = fraction;
    a.duration = duration;
    a.start_epoch = start_epoch;
    return a;
  }
};

}  // namespace fi::adversary

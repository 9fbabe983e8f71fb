#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adversary/strategy.h"
#include "core/network.h"
#include "traffic/engine.h"
#include "util/binary_io.h"
#include "util/types.h"

/// Structured results of a scenario run.
///
/// The report is designed for trend tracking across commits: all counters
/// are exact integers from the engine, serialization order is fixed, and
/// wall-clock timings are segregated behind `include_timings` so that two
/// runs of the same spec (same seed) produce byte-identical JSON by
/// default.
namespace fi::scenario {

/// Counters for one phase: the delta of the engine's `NetworkStats` plus
/// the rent flows over the phase window.
struct PhaseMetrics {
  std::string label;
  std::string kind;
  /// Simulated-clock window [start_time, end_time] the phase covered.
  Time start_time = 0;
  Time end_time = 0;
  /// `Network::stats()` at phase end minus at phase start.
  core::NetworkStats delta;
  /// Rent charged to clients / settled to providers during the phase.
  TokenAmount rent_charged = 0;
  TokenAmount rent_paid = 0;
  /// Phase-kind-specific scalar metrics (e.g. selfish_refresh emits
  /// `ever_captive_fraction`), in a fixed emission order.
  std::vector<std::pair<std::string, double>> extras;
  /// Host wall-clock cost; serialized only with `include_timings`.
  // fi-lint: not-serialized(host wall timing; reporting only, reset on resume)
  double wall_seconds = 0.0;

  /// Canonical snapshot encoding / restore (`src/snapshot`). Wall-clock
  /// timing is excluded — it is not simulation state, and keeping it out
  /// makes the snapshot body (and hence `state_hash`) a pure function of
  /// the spec.
  void save(util::BinaryWriter& writer) const;
  void load(util::BinaryReader& reader);
};

/// Looks up a phase's extra metric by name; `fallback` when absent.
[[nodiscard]] double extra_or(const PhaseMetrics& phase,
                              std::string_view name, double fallback = 0.0);

/// Delivery outcome of one regional subnet (latency in ticks, over
/// messages delivered *into* the region).
struct RegionMetrics {
  std::uint64_t delivered = 0;
  double mean_latency = 0.0;
  std::uint64_t max_latency = 0;
};

/// Outcome of the simulated delivery network over the whole run (absent
/// from the JSON unless the scenario enables the `network.*` block, so
/// net-free reports are unchanged). Computed at run end from the
/// `sim::NetModel` counters — pure reporting, never serialized into
/// snapshots (the model itself is).
struct NetworkMetrics {
  bool enabled = false;
  std::uint64_t regions = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  /// Delivered on or after the transfer's protocol deadline tick: the
  /// deadline check runs before that tick's deliveries, so an arrival
  /// on the tick is already too late.
  std::uint64_t delivered_late = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_down = 0;
  /// Deadline-miss attribution: transfers the *network* made late or lost
  /// (late deliveries plus every drop) ...
  std::uint64_t deadline_misses_network = 0;
  /// ... versus transfers refused by adversaries (malice) — the two causes
  /// a Fig. 9 refresh failure or Auto_CheckAlloc upload failure can have.
  std::uint64_t deadline_misses_malice = 0;
  std::vector<RegionMetrics> per_region;
};

/// Outcome of one configured adversary strategy over the whole run: the
/// runner's action-side counts plus the economic fallout attributed to the
/// sectors the strategy touched (see `adversary::AdversaryCounters`).
struct AdversaryMetrics {
  std::string label;
  std::string strategy;
  adversary::AdversaryCounters counters;
};

/// The complete machine-readable outcome of `ScenarioRunner::run()`.
struct MetricsReport {
  std::string scenario;
  std::uint64_t seed = 0;
  std::uint64_t sectors = 0;
  std::uint64_t initial_files = 0;

  std::vector<PhaseMetrics> phases;

  /// One entry per configured adversary, in spec order (absent from the
  /// JSON when the scenario has none, so attack-free reports are
  /// unchanged).
  std::vector<AdversaryMetrics> adversaries;

  /// Retrieval-traffic outcome (absent from the JSON unless the scenario
  /// enables the traffic engine, so traffic-free reports are unchanged).
  traffic::TrafficMetrics traffic;

  /// Simulated-network outcome (absent from the JSON unless the scenario
  /// enables the `network.*` block).
  NetworkMetrics network;

  /// Cumulative engine counters at the end of the run.
  core::NetworkStats totals;
  /// Rent conservation (§IV-A2): `rent_charged == rent_paid + rent_pool`
  /// must hold exactly after the final settlement.
  TokenAmount rent_charged = 0;
  TokenAmount rent_paid = 0;
  TokenAmount rent_pool = 0;
  bool rent_conserved = false;
  /// Insurance ledger at the end of the run (§IV-B).
  TokenAmount compensation_pool = 0;
  TokenAmount outstanding_liabilities = 0;

  std::uint64_t final_files = 0;
  Time final_time = 0;

  /// Host wall-clock: population setup and the whole run. Serialized only
  /// with `include_timings` (they differ between identical runs).
  double setup_seconds = 0.0;
  double wall_seconds = 0.0;

  /// Serializes the report as pretty-printed JSON. With
  /// `include_timings == false` (the default) the output is a pure
  /// function of the scenario spec, so same-seed runs are byte-identical.
  [[nodiscard]] std::string to_json(bool include_timings = false) const;
};

}  // namespace fi::scenario

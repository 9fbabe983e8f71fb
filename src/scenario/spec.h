#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/spec.h"
#include "core/params.h"
#include "sim/net_model.h"
#include "traffic/spec.h"
#include "util/config.h"
#include "util/status.h"
#include "util/types.h"

/// Declarative workload specifications for the scenario engine.
///
/// A `ScenarioSpec` is everything needed to reproduce a run of the full
/// protocol engine: network parameters, the provider/file populations built
/// during setup, and an ordered list of epoch-driven workload phases. Specs
/// parse from `util::Config` (key=value files) and serialize back
/// losslessly, so any run can be archived as a small text file and
/// replayed bit-for-bit (`ScenarioRunner` is deterministic in the spec).
/// Each block's typed keys are one `util::Key` table in `spec.cpp` (or
/// `adversary/spec.cpp`, `traffic/spec.cpp`): a row per key, in emit
/// order, defaulting to the member initializers below.
namespace fi::scenario {

/// Workload phase archetypes. Each phase advances simulated time through
/// the pending-list epoch loop; the kinds differ in the requests injected
/// per proof cycle.
enum class PhaseKind : std::uint8_t {
  /// Advance `cycles` proof cycles with no new client requests (existing
  /// files keep proving, refreshing and paying rent).
  idle,
  /// Per proof cycle: add `adds_per_cycle` files (optionally
  /// Poisson-distributed arrivals) and discard an expected
  /// `discard_fraction` of the live population.
  churn,
  /// Corrupt a `corrupt_fraction` of live normal sectors at phase start
  /// (the §V-B3 adversarial catastrophe), then run `cycles` proof cycles
  /// of detection, compensation and re-replication.
  corrupt_burst,
  /// §VI-E selfish-coalition study: the first `coalition_fraction` of the
  /// registered fleet refuses retrieval; tracks per-file captivity streaks
  /// over `cycles` proof cycles while location refresh churns placement.
  selfish_refresh,
  /// Advance `periods` whole rent periods, then settle every sector and
  /// audit the conservation identity `charged == paid + pool` (§IV-A2).
  rent_audit,
  /// Register `add_sectors` fresh sectors mid-run (§VI-B admission
  /// rebalancing study), confirm the triggered swap-ins, then run
  /// `cycles` proof cycles; reports the newcomers' backup share.
  admit,
  /// Cut region `region` off from the rest of the network for `cycles`
  /// proof cycles (intra-region links survive; proofs, refresh handoffs
  /// and uploads crossing the border are lost), then heal at phase end.
  /// Requires the `network.*` block.
  partition,
  /// Crash region `region` (all links lost, proofs suppressed) for
  /// `down_cycles` proof cycles, restart it, then run the remaining
  /// `cycles - down_cycles` cycles of recovery. Requires `network.*`.
  outage,
};

[[nodiscard]] const char* phase_kind_name(PhaseKind kind);
[[nodiscard]] util::Result<PhaseKind> phase_kind_from_name(
    std::string_view name);

/// One workload phase. Fields irrelevant to a phase's kind must stay at
/// their defaults — `validate()` rejects e.g. a `churn` phase with a
/// `corrupt_fraction`, so configs cannot silently carry dead knobs.
struct PhaseSpec {
  PhaseKind kind = PhaseKind::idle;
  /// Display label in reports; defaults to the kind name.
  std::string label;
  /// Proof cycles to run (all kinds except rent_audit).
  std::uint64_t cycles = 1;
  /// rent_audit: whole rent periods to advance before settling (0 =
  /// settle and audit immediately).
  std::uint64_t periods = 0;
  /// churn: mean file arrivals per proof cycle.
  std::uint64_t adds_per_cycle = 0;
  /// churn: draw arrivals from Poisson(adds_per_cycle) instead of a
  /// constant rate.
  bool poisson_arrivals = false;
  /// churn: expected fraction of live files discarded per proof cycle.
  double discard_fraction = 0.0;
  /// corrupt_burst: fraction of live normal sectors corrupted at start.
  double corrupt_fraction = 0.0;
  /// selfish_refresh: fraction of the fleet held by the coalition.
  double coalition_fraction = 0.0;
  /// admit: fresh sectors registered at phase start.
  std::uint64_t add_sectors = 0;
  /// partition/outage: the regional subnet the condition hits.
  std::uint64_t region = 0;
  /// outage: proof cycles the region stays down before restarting.
  std::uint64_t down_cycles = 0;

  [[nodiscard]] std::string display_label() const {
    return label.empty() ? phase_kind_name(kind) : label;
  }

  // ---- Factories for in-code spec construction ---------------------------

  static PhaseSpec make_idle(std::uint64_t cycles) {
    PhaseSpec p;
    p.kind = PhaseKind::idle;
    p.cycles = cycles;
    return p;
  }
  static PhaseSpec make_churn(std::uint64_t cycles,
                              std::uint64_t adds_per_cycle,
                              double discard_fraction = 0.0,
                              bool poisson_arrivals = false) {
    PhaseSpec p;
    p.kind = PhaseKind::churn;
    p.cycles = cycles;
    p.adds_per_cycle = adds_per_cycle;
    p.discard_fraction = discard_fraction;
    p.poisson_arrivals = poisson_arrivals;
    return p;
  }
  static PhaseSpec make_corrupt_burst(double corrupt_fraction,
                                      std::uint64_t cycles) {
    PhaseSpec p;
    p.kind = PhaseKind::corrupt_burst;
    p.corrupt_fraction = corrupt_fraction;
    p.cycles = cycles;
    return p;
  }
  static PhaseSpec make_selfish_refresh(double coalition_fraction,
                                        std::uint64_t cycles) {
    PhaseSpec p;
    p.kind = PhaseKind::selfish_refresh;
    p.coalition_fraction = coalition_fraction;
    p.cycles = cycles;
    return p;
  }
  static PhaseSpec make_rent_audit(std::uint64_t periods) {
    PhaseSpec p;
    p.kind = PhaseKind::rent_audit;
    p.periods = periods;
    return p;
  }
  static PhaseSpec make_admit(std::uint64_t add_sectors,
                              std::uint64_t cycles) {
    PhaseSpec p;
    p.kind = PhaseKind::admit;
    p.add_sectors = add_sectors;
    p.cycles = cycles;
    return p;
  }
  static PhaseSpec make_partition(std::uint64_t region, std::uint64_t cycles) {
    PhaseSpec p;
    p.kind = PhaseKind::partition;
    p.region = region;
    p.cycles = cycles;
    return p;
  }
  static PhaseSpec make_outage(std::uint64_t region, std::uint64_t down_cycles,
                               std::uint64_t cycles) {
    PhaseSpec p;
    p.kind = PhaseKind::outage;
    p.region = region;
    p.down_cycles = down_cycles;
    p.cycles = cycles;
    return p;
  }
};

/// Simulated-delivery configuration (`network.*` config keys; disabled
/// unless `network.regions` is present). The runner routes every replica
/// transfer — initial uploads and refresh handoffs — through a
/// `sim::NetModel`: each becomes a message with latency sampled from the
/// per-link profile these knobs describe, providers live in `regions`
/// regional subnets (sector `s` in region `s % regions`), and partition /
/// outage phases can block regions mid-run. Without the block the model
/// runs the all-zero profile (every message arrives at its send time) and
/// stays out of the spec text, the report and the snapshot, so those
/// bytes are the same as before the network existed. `network.regions =
/// 1` alone selects that same zero profile but reports and snapshots it.
struct NetworkSpec {
  /// Derived, not a config key: true iff `network.regions` is present.
  bool enabled = false;

  /// Regional subnets providers are spread across (sector id modulo).
  std::uint64_t regions = 1;
  /// Ticks added to every message, regardless of size or route.
  std::uint64_t base_latency = 0;
  /// Extra ticks for messages crossing regions (or the client backbone).
  std::uint64_t region_latency = 0;
  /// Bandwidth model: extra ticks per KiB of transferred file.
  std::uint64_t ticks_per_kib = 0;
  /// Uniform extra ticks in [0, jitter], drawn per message.
  std::uint64_t jitter = 0;
  /// Random loss probability in [0, 1), sampled at send.
  double drop_probability = 0.0;

  /// The sim-layer knob struct this block configures.
  [[nodiscard]] sim::NetConfig to_net_config() const {
    sim::NetConfig config;
    config.regions = regions;
    config.base_latency = base_latency;
    config.region_latency = region_latency;
    config.ticks_per_kib = ticks_per_kib;
    config.jitter = jitter;
    config.drop_probability = drop_probability;
    return config;
  }

  /// Reads the `network.*` block (absent block => `enabled == false` and
  /// every knob at its default).
  static util::Result<NetworkSpec> from_config(const util::Config& config);
  [[nodiscard]] util::Status validate() const;
  /// Lossless key=value serialization; emits nothing when disabled.
  void serialize(std::string& out) const;
};

/// A complete declarative scenario: `ScenarioRunner(spec).run()` is the
/// whole experiment.
struct ScenarioSpec {
  std::string name = "scenario";
  /// Master seed: seeds the network engine (placement, refresh countdowns)
  /// and, salted, the workload generator (file sizes, arrival draws,
  /// corruption targets).
  std::uint64_t seed = 1;

  /// Inert: only perfbench/src/main.cpp sets it; deleted with mirror.cpp.
  std::uint64_t engine_workers = 1;

  /// Protocol parameters, exposed as `net.*` config keys.
  core::Params params;

  // ---- Setup population ---------------------------------------------------
  /// Sectors registered before phase 0 (single well-funded provider).
  std::uint64_t sectors = 0;
  /// Capacity of each sector, in `params.min_capacity` units.
  std::uint64_t sector_units = 1;
  /// Files added (and fully confirmed) before phase 0.
  std::uint64_t initial_files = 0;
  /// File sizes are drawn uniformly from [file_size_min, file_size_max].
  ByteCount file_size_min = 1024;
  ByteCount file_size_max = 2048;
  /// Value of every file; 0 means `params.min_value`.
  TokenAmount file_value = 0;

  std::vector<PhaseSpec> phases;

  /// Simulated-delivery network profile (`network.*` config keys; disabled
  /// unless `network.regions` is present). Replica transfers always travel
  /// as messages through a `sim::NetModel`; enabling the block sets their
  /// latency/loss profile and makes partition / outage phases available —
  /// see `NetworkSpec`.
  NetworkSpec network;

  /// Retrieval-traffic engine configuration (`traffic.*` config keys;
  /// disabled unless `traffic.requests_per_cycle` is present). When
  /// enabled, the runner generates a Zipf/diurnal/flash-crowd request
  /// load over the live files each proof cycle and routes it through the
  /// retrieval market — see `traffic/engine.h`.
  traffic::TrafficSpec traffic;

  /// Adversaries active across the whole run (`adversary.<i>.*` config
  /// blocks): each is consulted once per proof cycle on its own
  /// deterministic RNG stream and its outcome counters land in the report
  /// (see `adversary/strategy.h`).
  std::vector<adversary::AdversarySpec> adversaries;

  /// Parses a spec from a config, consuming every key it understands and
  /// rejecting configs with unknown keys (typo defense). Phases are the
  /// dotted groups `phase.<i>.*` for i = 0, 1, ... with no gaps, and
  /// adversaries likewise the groups `adversary.<i>.*`. Retired keys
  /// that older specs wrote (`engine.workers`, `net.cr_size`) are
  /// accepted with any value and ignored.
  static util::Result<ScenarioSpec> from_config(const util::Config& config);
  /// `Config::load` + `from_config`.
  static util::Result<ScenarioSpec> from_file(const std::string& path);

  /// Cross-field validation (also called by `from_config`).
  [[nodiscard]] util::Status validate() const;

  /// Lossless key=value serialization: `from_config(parse(spec
  /// .to_config_string()))` reproduces the spec exactly.
  [[nodiscard]] std::string to_config_string() const;

  /// The effective per-file value (`file_value` defaulted).
  [[nodiscard]] TokenAmount effective_file_value() const {
    return file_value == 0 ? params.min_value : file_value;
  }
};

}  // namespace fi::scenario

#pragma once

#include <cstdint>
#include <string>

#include "core/network.h"
#include "scenario/metrics.h"
#include "scenario/spec.h"
#include "trace.h"
#include "util/status.h"

/// The traced driver: `scenario::ScenarioRunner`'s run loop rebuilt from
/// the public entry points of each layer, with a span around every call
/// into a layer.
///
/// It reproduces the runner call for call — funding, fleet and initial
/// uploads, workload draws on `spec.seed ^ kWorkloadSeedSalt`, strategies
/// from `adversary::make_strategy` on their salted streams, then per cycle
/// the adversary turns, the traffic tick, and task batches with transfer
/// drain / `sim::NetModel` delivery in between (engine tasks before
/// deliveries at equal ticks). Being a second copy, it is only trusted
/// when its end state matches an untraced `fi::Session` run of the same
/// spec; the benchmark fails the run otherwise.
///
/// Only the features the benchmark workloads use are mirrored: phases
/// idle/churn/rent_audit and the retrieval_ddos /
/// cartel_starver strategies. Other specs are rejected up front.
namespace fi::bench {

/// What must match between the traced driver and the untraced run.
struct EngineFingerprint {
  /// Lower-case hex SHA-256 of `core::Network::save`.
  std::string network_sha;
  /// `NetworkStats` totals plus the traffic and network report blocks,
  /// rendered through `MetricsReport::to_json`.
  std::string counters;

  bool operator==(const EngineFingerprint&) const = default;
};

/// Fingerprint of a finished run: its engine and the report blocks the
/// traced driver can reproduce.
[[nodiscard]] EngineFingerprint fingerprint(
    const core::Network& net, const scenario::MetricsReport& report);

/// Layer counters the spans alone do not give.
struct MirrorCounts {
  std::uint64_t transfers_requested = 0;  ///< ReplicaTransferRequested events
  std::uint64_t confirm_rejected = 0;     ///< file_confirm calls that failed
  std::uint64_t adversary_actions = 0;    ///< actions applied
  std::uint64_t in_flight_max = 0;        ///< NetModel queue high-water mark
  std::uint64_t sim_sent = 0;
  std::uint64_t sim_delivered = 0;
  std::uint64_t sim_dropped = 0;
  traffic::TrafficMetrics traffic;
};

struct MirrorResult {
  EngineFingerprint fingerprint;
  MirrorCounts counts;
  double wall_seconds = 0.0;  ///< setup through the last cycle
};

/// Runs `spec` from setup to its end through the traced driver.
[[nodiscard]] util::Result<MirrorResult> run_mirror(
    const scenario::ScenarioSpec& spec, Tracer& tracer);

}  // namespace fi::bench

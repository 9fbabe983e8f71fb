#pragma once

#include <cstdint>
#include <string>

#include "core/types.h"
#include "util/config.h"
#include "util/status.h"

/// Declarative retrieval-traffic configuration for the scenario engine.
///
/// A scenario opts into client retrieval traffic by setting
/// `traffic.requests_per_cycle`; the block then describes the request
/// workload (Zipf popularity, diurnal load curve, an optional flash crowd
/// on one hot file), the provider-side QoS model (per-sector service
/// capacity, queue limit, content-cache size), and the statistical defense
/// that classifies abusive request streams against a Poisson
/// valid-request envelope. Scenarios without the block behave exactly as
/// before — no keys are emitted, no state is serialized, and reports are
/// byte-identical to pre-traffic builds.
namespace fi::traffic {

struct TrafficSpec {
  /// Derived, not a config key: true iff `traffic.requests_per_cycle` is
  /// present. Everything below is only consulted when enabled.
  bool enabled = false;

  /// Mean honest retrieval requests issued per proof cycle, split across
  /// `streams` independent Poisson client streams.
  std::uint64_t requests_per_cycle = 0;
  /// Honest client streams (each a Poisson arrival process).
  std::uint64_t streams = 8;
  /// Zipf popularity exponent over the live-file set (rank 1 = hottest).
  double zipf_s = 0.8;

  /// Diurnal load curve: a triangle wave with this period in epochs
  /// (0 = flat load). A triangle rather than a sinusoid keeps the rate a
  /// bit-portable function of IEEE arithmetic — no libm periodics.
  std::uint64_t diurnal_period = 0;
  /// Peak-to-mean swing of the diurnal curve, in [0, 1]: the per-epoch
  /// rate sweeps [rate*(1-a), rate*(1+a)].
  double diurnal_amplitude = 0.0;

  /// Flash crowd: for `flash_duration` epochs starting at `flash_epoch`
  /// (0 duration = no flash) the request rate is multiplied by
  /// `flash_multiplier` and a `flash_focus` fraction of requests target
  /// one hot file picked at flash start.
  std::uint64_t flash_epoch = 0;
  std::uint64_t flash_duration = 0;
  std::uint64_t flash_multiplier = 1;
  double flash_focus = 0.9;

  /// Requests one provider sector serves per epoch; arrivals beyond the
  /// backlog wait, so enqueue-time latency is `queue / capacity` cycles.
  std::uint64_t provider_capacity = 64;
  /// Queue length at which further arrivals are dropped (per sector).
  std::uint64_t queue_limit = 256;
  /// Provider-side hot content cache (FIFO, in blocks): a miss costs one
  /// extra latency cycle. 0 disables the cache model.
  std::uint64_t cache_blocks = 4096;
  /// Retrieval-market ask of the even sectors, tokens per KiB served
  /// (`ask_of`).
  std::uint64_t price_per_kib = 1;

  /// Poisson-envelope defense: after `defense.warmup` epochs of
  /// observation, a per-stream valid-request envelope is fixed at
  /// `median + k*sqrt(median) + 3` over the per-stream warmup means
  /// (median-of-means, so an attacking stream cannot inflate its own
  /// baseline); a stream exceeding the envelope `defense.violations`
  /// epochs in a row is flagged, rate-limited to the envelope, and
  /// repriced by `defense.surge`.
  bool defense_enabled = false;
  std::uint64_t defense_warmup = 4;
  double defense_k = 4.0;
  std::uint64_t defense_violations = 2;
  /// Price multiplier applied to flagged streams' settlements (integer so
  /// repricing stays exact checked arithmetic).
  std::uint64_t defense_surge = 4;
  /// Cap flagged streams at the envelope (false = reprice only).
  bool defense_rate_limit = true;

  /// Reads the `traffic.*` block (absent block => `enabled == false` and
  /// every knob at its default).
  static util::Result<TrafficSpec> from_config(const util::Config& config);

  /// A sector's ask per KiB: two price tiers keyed off the id parity
  /// (odd sectors ask one more), enough spread that cheapest-wins
  /// selection is exercised, and a pure function of the sector id, so a
  /// resumed run quotes identically. `validate` keeps the odd tier in
  /// range.
  [[nodiscard]] TokenAmount ask_of(core::SectorId sector) const {
    return price_per_kib + (sector & 1);
  }

  /// Cross-field validation; `where` prefixes error messages ("traffic").
  [[nodiscard]] util::Status validate() const;

  /// Lossless key=value serialization; emits nothing when disabled, so
  /// traffic-free specs round-trip byte-identically to pre-traffic builds.
  void serialize(std::string& out) const;
};

}  // namespace fi::traffic

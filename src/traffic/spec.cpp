#include "traffic/spec.h"

#include <limits>

namespace fi::traffic {

namespace {

using util::format_shortest_double;

/// `traffic.*`; `requests_per_cycle` is the block's enable key,
/// `defense.enabled` the defense sub-group's.
constexpr util::Key<TrafficSpec> kTrafficKeys[] = {
    {"requests_per_cycle", &TrafficSpec::requests_per_cycle},
    {"streams", &TrafficSpec::streams},
    {"zipf_s", &TrafficSpec::zipf_s},
    {"diurnal_period", &TrafficSpec::diurnal_period},
    {"diurnal_amplitude", &TrafficSpec::diurnal_amplitude},
    {"flash_epoch", &TrafficSpec::flash_epoch},
    {"flash_duration", &TrafficSpec::flash_duration},
    {"flash_multiplier", &TrafficSpec::flash_multiplier},
    {"flash_focus", &TrafficSpec::flash_focus},
    {"provider_capacity", &TrafficSpec::provider_capacity},
    {"queue_limit", &TrafficSpec::queue_limit},
    {"cache_blocks", &TrafficSpec::cache_blocks},
    {"price_per_kib", &TrafficSpec::price_per_kib},
    {"defense.enabled", &TrafficSpec::defense_enabled},
    {"defense.warmup", &TrafficSpec::defense_warmup},
    {"defense.k", &TrafficSpec::defense_k},
    {"defense.violations", &TrafficSpec::defense_violations},
    {"defense.surge", &TrafficSpec::defense_surge},
    {"defense.rate_limit", &TrafficSpec::defense_rate_limit},
};

/// The header defaults every knob of a disabled block or sub-group must
/// keep.
const TrafficSpec kTrafficDefaults{};

}  // namespace

util::Result<TrafficSpec> TrafficSpec::from_config(
    const util::Config& config) {
  TrafficSpec spec;
  spec.enabled = config.contains("traffic.requests_per_cycle");
  if (!spec.enabled) return spec;
  if (util::Status s = util::read_keys(config, "traffic.", kTrafficKeys,
                                       util::kAllKinds, spec);
      !s.is_ok()) {
    return s;
  }
  return spec;
}

util::Status TrafficSpec::validate() const {
  if (!enabled) {
    // Knobs of a disabled block must stay at their defaults — file
    // configs get this from the unknown-key sweep (the keys are only
    // consumed when the block is present); this covers in-code specs.
    if (util::foreign_knob(kTrafficKeys, 0, *this, kTrafficDefaults) !=
        nullptr) {
      return util::err(util::ErrorCode::invalid_argument,
                       "traffic.* knobs set without "
                       "traffic.requests_per_cycle (the block's enable key)");
    }
    return util::Status::ok();
  }

  if (requests_per_cycle == 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "traffic.requests_per_cycle must be positive");
  }
  if (streams == 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "traffic.streams must be positive");
  }
  if (!(zipf_s > 0.0)) {
    return util::err(util::ErrorCode::invalid_argument,
                     "traffic.zipf_s must be positive, got " +
                         format_shortest_double(zipf_s));
  }
  if (util::Status s = util::check_fraction(diurnal_amplitude,
                                            "traffic.diurnal_amplitude");
      !s.is_ok()) {
    return s;
  }
  if (diurnal_amplitude != 0.0 && diurnal_period == 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "traffic.diurnal_amplitude needs a positive "
                     "traffic.diurnal_period");
  }
  if (diurnal_period != 0 && diurnal_amplitude == 0.0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "traffic.diurnal_period without a "
                     "traffic.diurnal_amplitude is a no-op");
  }
  if (flash_duration == 0) {
    // No flash: its sub-knobs must stay at their defaults so a config
    // cannot silently carry a dead flash crowd.
    if (flash_epoch != kTrafficDefaults.flash_epoch ||
        flash_multiplier != kTrafficDefaults.flash_multiplier ||
        flash_focus != kTrafficDefaults.flash_focus) {
      return util::err(util::ErrorCode::invalid_argument,
                       "traffic.flash_* knobs set without a positive "
                       "traffic.flash_duration");
    }
  } else {
    if (flash_multiplier < 2) {
      return util::err(util::ErrorCode::invalid_argument,
                       "traffic.flash_multiplier must be at least 2 (1 "
                       "would be no flash at all)");
    }
    if (util::Status s =
            util::check_fraction(flash_focus, "traffic.flash_focus");
        !s.is_ok()) {
      return s;
    }
  }
  if (provider_capacity == 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "traffic.provider_capacity must be positive");
  }
  if (queue_limit == 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "traffic.queue_limit must be positive");
  }
  if (price_per_kib == std::numeric_limits<TokenAmount>::max()) {
    return util::err(util::ErrorCode::invalid_argument,
                     "traffic.price_per_kib must be below 2^64 - 1 (odd "
                     "sectors ask one more)");
  }
  if (!defense_enabled) {
    if (defense_warmup != kTrafficDefaults.defense_warmup ||
        defense_k != kTrafficDefaults.defense_k ||
        defense_violations != kTrafficDefaults.defense_violations ||
        defense_surge != kTrafficDefaults.defense_surge ||
        defense_rate_limit != kTrafficDefaults.defense_rate_limit) {
      return util::err(util::ErrorCode::invalid_argument,
                       "traffic.defense.* knobs set without "
                       "traffic.defense.enabled = true");
    }
  } else {
    if (defense_warmup == 0) {
      return util::err(util::ErrorCode::invalid_argument,
                       "traffic.defense.warmup must be positive");
    }
    if (!(defense_k >= 0.0)) {
      return util::err(util::ErrorCode::invalid_argument,
                       "traffic.defense.k must be non-negative, got " +
                           format_shortest_double(defense_k));
    }
    if (defense_violations == 0) {
      return util::err(util::ErrorCode::invalid_argument,
                       "traffic.defense.violations must be positive");
    }
    if (defense_surge == 0) {
      return util::err(util::ErrorCode::invalid_argument,
                       "traffic.defense.surge must be positive (1 = "
                       "rate-limit without repricing)");
    }
  }
  return util::Status::ok();
}

void TrafficSpec::serialize(std::string& out) const {
  if (enabled) {
    util::write_keys(out, "traffic.", kTrafficKeys, util::kAllKinds, *this);
  }
}

}  // namespace fi::traffic

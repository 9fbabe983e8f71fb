#include "scenario/spec.h"

namespace fi::scenario {

namespace {

using util::format_shortest_double;
using util::kind_bits;

/// Keys an older spec wrote that this one no longer reads. Each is
/// accepted with any value, ignored, and never re-emitted by
/// `to_config_string`, so every saved spec and FISNAP01 header still loads.
constexpr const char* kRetiredKeys[] = {
    "engine.workers",       // the intra-epoch sweep pool's thread count
    "net.cr_size",          // DRep capacity-replica size; DRep is not modelled
    "net.post_challenges",  // WindowPoSt openings; proofs are not simulated
};

/// Top-level population keys (`name` aside), in emit order.
constexpr util::Key<ScenarioSpec> kSpecKeys[] = {
    {"seed", &ScenarioSpec::seed},
    {"sectors", &ScenarioSpec::sectors},
    {"sector_units", &ScenarioSpec::sector_units},
    {"initial_files", &ScenarioSpec::initial_files},
    {"file_size_min", &ScenarioSpec::file_size_min},
    {"file_size_max", &ScenarioSpec::file_size_max},
    {"file_value", &ScenarioSpec::file_value},
};

/// `net.*`: the protocol parameters.
constexpr util::Key<core::Params> kNetKeys[] = {
    {"min_capacity", &core::Params::min_capacity},
    {"min_value", &core::Params::min_value},
    {"k", &core::Params::k},
    {"cap_para", &core::Params::cap_para},
    {"gamma_deposit", &core::Params::gamma_deposit},
    {"proof_cycle", &core::Params::proof_cycle},
    {"proof_due", &core::Params::proof_due},
    {"proof_deadline", &core::Params::proof_deadline},
    {"avg_refresh", &core::Params::avg_refresh},
    {"delay_per_kib", &core::Params::delay_per_kib},
    {"min_transfer_window", &core::Params::min_transfer_window},
    {"unit_rent", &core::Params::unit_rent},
    {"traffic_fee_per_kib", &core::Params::traffic_fee_per_kib},
    {"gas_per_task", &core::Params::gas_per_task},
    {"punish_bp", &core::Params::punish_bp},
    {"rent_period_cycles", &core::Params::rent_period_cycles},
    {"max_alloc_resample", &core::Params::max_alloc_resample},
    {"distinct_sectors", &core::Params::distinct_sectors},
    {"admission_rebalance", &core::Params::admission_rebalance},
};

/// `network.*`; `regions` is the block's enable key.
constexpr util::Key<NetworkSpec> kNetworkKeys[] = {
    {"regions", &NetworkSpec::regions},
    {"base_latency", &NetworkSpec::base_latency},
    {"region_latency", &NetworkSpec::region_latency},
    {"ticks_per_kib", &NetworkSpec::ticks_per_kib},
    {"jitter", &NetworkSpec::jitter},
    {"drop_probability", &NetworkSpec::drop_probability},
};

/// Phase kinds that advance proof cycles, and those that hit a region.
constexpr std::uint32_t kCyclePhases = ~kind_bits(PhaseKind::rent_audit);
constexpr std::uint32_t kRegionPhases =
    kind_bits(PhaseKind::partition, PhaseKind::outage);

/// `phase.<i>.*` (`kind` and `label` aside), with the kinds that take each.
constexpr util::Key<PhaseSpec> kPhaseKeys[] = {
    {"cycles", &PhaseSpec::cycles, kCyclePhases},
    {"periods", &PhaseSpec::periods, kind_bits(PhaseKind::rent_audit)},
    {"adds_per_cycle", &PhaseSpec::adds_per_cycle,
     kind_bits(PhaseKind::churn)},
    {"poisson_arrivals", &PhaseSpec::poisson_arrivals,
     kind_bits(PhaseKind::churn)},
    {"discard_fraction", &PhaseSpec::discard_fraction,
     kind_bits(PhaseKind::churn)},
    {"corrupt_fraction", &PhaseSpec::corrupt_fraction,
     kind_bits(PhaseKind::corrupt_burst)},
    {"coalition_fraction", &PhaseSpec::coalition_fraction,
     kind_bits(PhaseKind::selfish_refresh)},
    {"add_sectors", &PhaseSpec::add_sectors, kind_bits(PhaseKind::admit)},
    {"region", &PhaseSpec::region, kRegionPhases},
    {"down_cycles", &PhaseSpec::down_cycles, kind_bits(PhaseKind::outage)},
};

/// The header defaults every knob a kind does not take (or a disabled
/// block) must keep.
const NetworkSpec kNetworkDefaults{};
const PhaseSpec kPhaseDefaults{};

std::string phase_prefix(std::size_t index) {
  return "phase." + std::to_string(index) + ".";
}

/// Reads one phase group, consuming only the keys its kind takes;
/// anything else in the group is left unconsumed and rejected by the
/// caller's unknown-key sweep.
util::Result<PhaseSpec> parse_phase(const util::Config& config,
                                    std::size_t index) {
  const std::string prefix = phase_prefix(index);
  PhaseSpec phase;
  auto kind_name = config.get_string(prefix + "kind");
  if (!kind_name.is_ok()) return kind_name.status();
  auto kind = phase_kind_from_name(kind_name.value());
  if (!kind.is_ok()) {
    return util::err(util::ErrorCode::invalid_argument,
                     prefix + "kind: " + kind.status().message());
  }
  phase.kind = kind.value();

  auto label = config.get_string_or(prefix + "label", "");
  if (!label.is_ok()) return label.status();
  phase.label = label.value();

  if (util::Status s = util::read_keys(config, prefix, kPhaseKeys,
                                       kind_bits(phase.kind), phase);
      !s.is_ok()) {
    return s;
  }
  return phase;
}

}  // namespace

const char* phase_kind_name(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::idle: return "idle";
    case PhaseKind::churn: return "churn";
    case PhaseKind::corrupt_burst: return "corrupt_burst";
    case PhaseKind::selfish_refresh: return "selfish_refresh";
    case PhaseKind::rent_audit: return "rent_audit";
    case PhaseKind::admit: return "admit";
    case PhaseKind::partition: return "partition";
    case PhaseKind::outage: return "outage";
  }
  return "unknown";
}

util::Result<PhaseKind> phase_kind_from_name(std::string_view name) {
  for (const PhaseKind kind :
       {PhaseKind::idle, PhaseKind::churn, PhaseKind::corrupt_burst,
        PhaseKind::selfish_refresh, PhaseKind::rent_audit, PhaseKind::admit,
        PhaseKind::partition, PhaseKind::outage}) {
    if (name == phase_kind_name(kind)) return kind;
  }
  return util::err(util::ErrorCode::invalid_argument,
                   "unknown phase kind '" + std::string(name) + "'");
}

util::Result<NetworkSpec> NetworkSpec::from_config(
    const util::Config& config) {
  NetworkSpec spec;
  spec.enabled = config.contains("network.regions");
  if (!spec.enabled) return spec;
  if (util::Status s = util::read_keys(config, "network.", kNetworkKeys,
                                       util::kAllKinds, spec);
      !s.is_ok()) {
    return s;
  }
  return spec;
}

util::Status NetworkSpec::validate() const {
  if (!enabled) {
    // Knobs of a disabled block must stay at their defaults — file
    // configs get this from the unknown-key sweep (the keys are only
    // consumed when the block is present); this covers in-code specs.
    if (util::foreign_knob(kNetworkKeys, 0, *this, kNetworkDefaults) !=
        nullptr) {
      return util::err(util::ErrorCode::invalid_argument,
                       "network.* knobs set without network.regions (the "
                       "block's enable key)");
    }
    return util::Status::ok();
  }
  if (regions == 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "network.regions must be positive");
  }
  // Strictly below 1: a lossless link is drop_probability = 0; a link that
  // drops everything would deadlock every upload forever.
  if (!(drop_probability >= 0.0 && drop_probability < 1.0)) {
    return util::err(util::ErrorCode::invalid_argument,
                     "network.drop_probability must lie in [0, 1), got " +
                         format_shortest_double(drop_probability));
  }
  return util::Status::ok();
}

void NetworkSpec::serialize(std::string& out) const {
  if (enabled) {
    util::write_keys(out, "network.", kNetworkKeys, util::kAllKinds, *this);
  }
}

util::Result<ScenarioSpec> ScenarioSpec::from_config(
    const util::Config& config) {
  ScenarioSpec spec;
  {
    auto name = config.get_string_or("name", spec.name);
    if (!name.is_ok()) return name.status();
    spec.name = name.value();
  }
  if (util::Status s =
          util::read_keys(config, "", kSpecKeys, util::kAllKinds, spec);
      !s.is_ok()) {
    return s;
  }

  for (const char* key : kRetiredKeys) {
    if (config.contains(key)) (void)config.get_string(key);
  }

  if (util::Status s = util::read_keys(config, "net.", kNetKeys,
                                       util::kAllKinds, spec.params);
      !s.is_ok()) {
    return s;
  }
  // Every spec written before proofs were assumed carries
  // `net.verify_proofs = false`; it is read and dropped, never re-emitted.
  auto verify = config.get_bool_or("net.verify_proofs", false);
  if (!verify.is_ok()) return verify.status();
  if (verify.value()) {
    return util::err(util::ErrorCode::invalid_argument,
                     "net.verify_proofs = true: PoRep and WindowPoSt are "
                     "assumed, not simulated; every replica auto-proves "
                     "unless its sector withholds proofs");
  }

  {
    auto network = NetworkSpec::from_config(config);
    if (!network.is_ok()) return network.status();
    spec.network = std::move(network).value();
  }

  {
    auto traffic = traffic::TrafficSpec::from_config(config);
    if (!traffic.is_ok()) return traffic.status();
    spec.traffic = std::move(traffic).value();
  }

  for (std::size_t i = 0; config.contains(phase_prefix(i) + "kind"); ++i) {
    auto phase = parse_phase(config, i);
    if (!phase.is_ok()) return phase.status();
    spec.phases.push_back(std::move(phase).value());
  }

  for (std::size_t i = 0;
       config.contains("adversary." + std::to_string(i) + ".strategy"); ++i) {
    auto adv = adversary::AdversarySpec::from_config(config, i);
    if (!adv.is_ok()) return adv.status();
    spec.adversaries.push_back(std::move(adv).value());
  }

  const std::vector<std::string> unknown = config.unconsumed_keys();
  if (!unknown.empty()) {
    std::string joined;
    for (const std::string& key : unknown) {
      if (!joined.empty()) joined += ", ";
      joined += key;
    }
    return util::err(util::ErrorCode::invalid_argument,
                     "unknown config keys (typo, misplaced phase index, or a "
                     "knob the phase kind does not take): " +
                         joined);
  }

  if (util::Status s = spec.validate(); !s.is_ok()) return s;
  return spec;
}

util::Result<ScenarioSpec> ScenarioSpec::from_file(const std::string& path) {
  auto config = util::Config::load(path);
  if (!config.is_ok()) return config.status();
  return from_config(config.value());
}

util::Status ScenarioSpec::validate() const {
  try {
    params.validate();
  } catch (const util::InvariantViolation& e) {
    return util::err(util::ErrorCode::invalid_argument,
                     std::string("net.* parameters invalid: ") + e.what());
  }
  if (sectors == 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "sectors must be positive (nothing can be stored in an "
                     "empty fleet)");
  }
  if (sector_units == 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     "sector_units must be positive");
  }
  if (file_size_min == 0 || file_size_max < file_size_min) {
    return util::err(util::ErrorCode::invalid_argument,
                     "file sizes need 0 < file_size_min <= file_size_max");
  }
  if (file_size_max > sector_units * params.min_capacity) {
    return util::err(util::ErrorCode::invalid_argument,
                     "file_size_max exceeds the sector capacity");
  }
  if (file_value != 0 &&
      (file_value < params.min_value || file_value % params.min_value != 0)) {
    return util::err(util::ErrorCode::invalid_argument,
                     "file_value must be 0 (default) or a positive multiple "
                     "of net.min_value");
  }
  if (util::Status s = util::check_serializable(name, "name"); !s.is_ok()) {
    return s;
  }
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpec& phase = phases[i];
    const std::string where = "phase." + std::to_string(i);
    if (util::Status s = util::check_serializable(phase.label, where + ".label");
        !s.is_ok()) {
      return s;
    }
    // Knobs of other phase kinds must stay at their defaults — file
    // configs get this from the unknown-key sweep; this covers in-code
    // specs, so a stray field never silently runs a different experiment.
    const std::uint32_t kind = kind_bits(phase.kind);
    if (const char* knob =
            util::foreign_knob(kPhaseKeys, kind, phase, kPhaseDefaults)) {
      return util::err(util::ErrorCode::invalid_argument,
                       where + "." + knob + " is not a knob of a " +
                           phase_kind_name(phase.kind) + " phase");
    }
    if ((kind & kCyclePhases) != 0 && phase.cycles == 0) {
      return util::err(util::ErrorCode::invalid_argument,
                       where + ".cycles must be positive");
    }
    if (util::Status s = util::check_fraction(phase.discard_fraction,
                                              where + ".discard_fraction");
        !s.is_ok()) {
      return s;
    }
    if (util::Status s = util::check_fraction(phase.corrupt_fraction,
                                              where + ".corrupt_fraction");
        !s.is_ok()) {
      return s;
    }
    if (util::Status s = util::check_fraction(phase.coalition_fraction,
                                              where + ".coalition_fraction");
        !s.is_ok()) {
      return s;
    }
    if (phase.kind == PhaseKind::admit && phase.add_sectors == 0) {
      return util::err(util::ErrorCode::invalid_argument,
                       where + ".add_sectors must be positive");
    }
    if ((kind & kRegionPhases) != 0) {
      if (!network.enabled) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ": a " +
                             std::string(phase_kind_name(phase.kind)) +
                             " phase needs the simulated network (set "
                             "network.regions)");
      }
      if (phase.region >= network.regions) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ".region must be below network.regions");
      }
    }
    if (phase.kind == PhaseKind::outage &&
        (phase.down_cycles == 0 || phase.down_cycles > phase.cycles)) {
      return util::err(util::ErrorCode::invalid_argument,
                       where + ".down_cycles must lie in [1, cycles] (the "
                              "region restarts within the phase)");
    }
  }
  if (util::Status s = network.validate(); !s.is_ok()) return s;
  if (util::Status s = traffic.validate(); !s.is_ok()) return s;
  for (std::size_t i = 0; i < adversaries.size(); ++i) {
    if (util::Status s =
            adversaries[i].validate("adversary." + std::to_string(i));
        !s.is_ok()) {
      return s;
    }
    const adversary::StrategyKind kind = adversaries[i].kind;
    if ((kind == adversary::StrategyKind::retrieval_ddos ||
         kind == adversary::StrategyKind::cartel_starver) &&
        !traffic.enabled) {
      return util::err(util::ErrorCode::invalid_argument,
                       "adversary." + std::to_string(i) + ": a " +
                           std::string(adversary::strategy_kind_name(kind)) +
                           " adversary needs the traffic engine "
                           "(set traffic.requests_per_cycle)");
    }
  }
  return util::Status::ok();
}

std::string ScenarioSpec::to_config_string() const {
  std::string out = "name = " + name + "\n";
  util::write_keys(out, "", kSpecKeys, util::kAllKinds, *this);
  util::write_keys(out, "net.", kNetKeys, util::kAllKinds, params);
  network.serialize(out);
  traffic.serialize(out);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpec& phase = phases[i];
    const std::string prefix = phase_prefix(i);
    out += prefix + "kind = " + phase_kind_name(phase.kind) + "\n";
    if (!phase.label.empty()) out += prefix + "label = " + phase.label + "\n";
    util::write_keys(out, prefix, kPhaseKeys, kind_bits(phase.kind), phase);
  }
  for (std::size_t i = 0; i < adversaries.size(); ++i) {
    adversaries[i].serialize(out, i);
  }
  return out;
}

}  // namespace fi::scenario

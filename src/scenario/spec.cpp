#include "scenario/spec.h"

#include <cctype>
#include <limits>
#include <sstream>

namespace fi::scenario {

namespace {

using util::format_shortest_double;

/// Keys an older spec wrote that this one no longer reads. Each is
/// accepted with any value, ignored, and never re-emitted by
/// `to_config_string`, so every saved spec and FISNAP01 header still loads.
constexpr const char* kRetiredKeys[] = {
    "engine.workers",       // the intra-epoch sweep pool's thread count
    "net.cr_size",          // DRep capacity-replica size; DRep is not modelled
    "net.post_challenges",  // WindowPoSt openings; proofs are not simulated
};

std::string phase_key(std::size_t index, const char* field) {
  return "phase." + std::to_string(index) + "." + field;
}

/// Reads one phase group, consuming only the keys its kind understands;
/// anything else in the group is left unconsumed and rejected by the
/// caller's unknown-key sweep.
util::Result<PhaseSpec> parse_phase(const util::Config& config,
                                    std::size_t index) {
  PhaseSpec phase;
  auto kind_name = config.get_string(phase_key(index, "kind"));
  if (!kind_name.is_ok()) return kind_name.status();
  auto kind = phase_kind_from_name(kind_name.value());
  if (!kind.is_ok()) {
    return util::err(util::ErrorCode::invalid_argument,
                     phase_key(index, "kind") + ": " +
                         kind.status().message());
  }
  phase.kind = kind.value();

  auto label = config.get_string_or(phase_key(index, "label"), "");
  if (!label.is_ok()) return label.status();
  phase.label = label.value();

#define FI_PHASE_FIELD(getter, field, fallback)                      \
  do {                                                               \
    auto parsed = config.getter(phase_key(index, #field), fallback); \
    if (!parsed.is_ok()) return parsed.status();                     \
    phase.field = parsed.value();                                    \
  } while (false)

  switch (phase.kind) {
    case PhaseKind::idle:
      FI_PHASE_FIELD(get_u64_or, cycles, 1);
      break;
    case PhaseKind::churn:
      FI_PHASE_FIELD(get_u64_or, cycles, 1);
      FI_PHASE_FIELD(get_u64_or, adds_per_cycle, 0);
      FI_PHASE_FIELD(get_bool_or, poisson_arrivals, false);
      FI_PHASE_FIELD(get_double_or, discard_fraction, 0.0);
      break;
    case PhaseKind::corrupt_burst:
      FI_PHASE_FIELD(get_u64_or, cycles, 1);
      FI_PHASE_FIELD(get_double_or, corrupt_fraction, 0.0);
      break;
    case PhaseKind::selfish_refresh:
      FI_PHASE_FIELD(get_u64_or, cycles, 1);
      FI_PHASE_FIELD(get_double_or, coalition_fraction, 0.0);
      break;
    case PhaseKind::rent_audit:
      FI_PHASE_FIELD(get_u64_or, periods, 0);
      break;
    case PhaseKind::admit:
      FI_PHASE_FIELD(get_u64_or, cycles, 1);
      FI_PHASE_FIELD(get_u64_or, add_sectors, 0);
      break;
    case PhaseKind::partition:
      FI_PHASE_FIELD(get_u64_or, cycles, 1);
      FI_PHASE_FIELD(get_u64_or, region, 0);
      break;
    case PhaseKind::outage:
      FI_PHASE_FIELD(get_u64_or, cycles, 1);
      FI_PHASE_FIELD(get_u64_or, region, 0);
      FI_PHASE_FIELD(get_u64_or, down_cycles, 0);
      break;
  }
#undef FI_PHASE_FIELD
  return phase;
}

util::Status parse_params(const util::Config& config, core::Params& params) {
#define FI_NET_FIELD(getter, field)                             \
  do {                                                          \
    auto parsed = config.getter("net." #field, params.field);   \
    if (!parsed.is_ok()) return parsed.status();                \
    params.field = parsed.value();                              \
  } while (false)

  // uint32 fields are range-checked, not narrowed: the parser's contract
  // is that a config either applies exactly or errors.
#define FI_NET_FIELD_U32(field)                                         \
  do {                                                                  \
    auto parsed = config.get_u64_or("net." #field, params.field);       \
    if (!parsed.is_ok()) return parsed.status();                        \
    if (parsed.value() > std::numeric_limits<std::uint32_t>::max()) {   \
      return util::err(util::ErrorCode::invalid_argument,               \
                       "config key 'net." #field "': value " +          \
                           std::to_string(parsed.value()) +             \
                           " exceeds the 32-bit range");                \
    }                                                                   \
    params.field = static_cast<std::uint32_t>(parsed.value());          \
  } while (false)

  FI_NET_FIELD(get_u64_or, min_capacity);
  FI_NET_FIELD(get_u64_or, min_value);
  FI_NET_FIELD_U32(k);
  FI_NET_FIELD(get_double_or, cap_para);
  FI_NET_FIELD(get_double_or, gamma_deposit);
  FI_NET_FIELD(get_u64_or, proof_cycle);
  FI_NET_FIELD(get_u64_or, proof_due);
  FI_NET_FIELD(get_u64_or, proof_deadline);
  FI_NET_FIELD(get_double_or, avg_refresh);
  FI_NET_FIELD(get_u64_or, delay_per_kib);
  FI_NET_FIELD(get_u64_or, min_transfer_window);
  FI_NET_FIELD(get_u64_or, unit_rent);
  FI_NET_FIELD(get_u64_or, traffic_fee_per_kib);
  FI_NET_FIELD(get_u64_or, gas_per_task);
  FI_NET_FIELD_U32(punish_bp);
  FI_NET_FIELD_U32(rent_period_cycles);
  FI_NET_FIELD_U32(max_alloc_resample);
  FI_NET_FIELD(get_bool_or, distinct_sectors);
  FI_NET_FIELD(get_bool_or, admission_rebalance);
#undef FI_NET_FIELD_U32
#undef FI_NET_FIELD

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
  return util::Status::ok();
}

util::Status check_fraction(double value, const std::string& what) {
  // Negated closed-range test so NaN (which fails every comparison) is
  // rejected instead of slipping through `< 0 || > 1`.
  if (!(value >= 0.0 && value <= 1.0)) {
    return util::err(util::ErrorCode::invalid_argument,
                     what + " must lie in [0, 1], got " +
                         format_shortest_double(value));
  }
  return util::Status::ok();
}

std::string_view trimmed_view(const std::string& s) {
  std::string_view v{s};
  while (!v.empty() && std::isspace(static_cast<unsigned char>(v.front()))) {
    v.remove_prefix(1);
  }
  while (!v.empty() && std::isspace(static_cast<unsigned char>(v.back()))) {
    v.remove_suffix(1);
  }
  return v;
}

/// name/label values must survive the key=value serialization: no
/// comment starters, newlines, or leading/trailing whitespace.
util::Status check_serializable_string(const std::string& value,
                                       const std::string& what) {
  if (value.find_first_of("#;\n\r") != std::string::npos ||
      value != std::string(trimmed_view(value))) {
    return util::err(util::ErrorCode::invalid_argument,
                     what + " must not contain '#', ';', newlines, or "
                            "leading/trailing whitespace: '" +
                         value + "'");
  }
  return util::Status::ok();
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

#define FI_NETWORK_FIELD(getter, field)                           \
  do {                                                            \
    auto parsed = config.getter("network." #field, spec.field);   \
    if (!parsed.is_ok()) return parsed.status();                  \
    spec.field = parsed.value();                                  \
  } while (false)

  FI_NETWORK_FIELD(get_u64_or, regions);
  FI_NETWORK_FIELD(get_u64_or, base_latency);
  FI_NETWORK_FIELD(get_u64_or, region_latency);
  FI_NETWORK_FIELD(get_u64_or, ticks_per_kib);
  FI_NETWORK_FIELD(get_u64_or, jitter);
  FI_NETWORK_FIELD(get_double_or, drop_probability);
#undef FI_NETWORK_FIELD
  return spec;
}

util::Status NetworkSpec::validate() const {
  if (!enabled) {
    // Knobs of a disabled block must stay at their defaults — file
    // configs get this from the unknown-key sweep (the keys are only
    // consumed when the block is present); this covers in-code specs.
    const NetworkSpec defaults;
    const bool pristine = regions == defaults.regions &&
                          base_latency == defaults.base_latency &&
                          region_latency == defaults.region_latency &&
                          ticks_per_kib == defaults.ticks_per_kib &&
                          jitter == defaults.jitter &&
                          drop_probability == defaults.drop_probability;
    if (!pristine) {
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
  if (!enabled) return;
  const auto emit = [&out](const char* key, const std::string& value) {
    out += "network.";
    out += key;
    out += " = ";
    out += value;
    out += "\n";
  };
  emit("regions", std::to_string(regions));
  emit("base_latency", std::to_string(base_latency));
  emit("region_latency", std::to_string(region_latency));
  emit("ticks_per_kib", std::to_string(ticks_per_kib));
  emit("jitter", std::to_string(jitter));
  emit("drop_probability", format_shortest_double(drop_probability));
}

util::Result<ScenarioSpec> ScenarioSpec::from_config(
    const util::Config& config) {
  ScenarioSpec spec;

#define FI_SPEC_FIELD(getter, field)                        \
  do {                                                      \
    auto parsed = config.getter(#field, spec.field);        \
    if (!parsed.is_ok()) return parsed.status();            \
    spec.field = parsed.value();                            \
  } while (false)

  FI_SPEC_FIELD(get_string_or, name);
  FI_SPEC_FIELD(get_u64_or, seed);
  FI_SPEC_FIELD(get_u64_or, sectors);
  FI_SPEC_FIELD(get_u64_or, sector_units);
  FI_SPEC_FIELD(get_u64_or, initial_files);
  FI_SPEC_FIELD(get_u64_or, file_size_min);
  FI_SPEC_FIELD(get_u64_or, file_size_max);
  FI_SPEC_FIELD(get_u64_or, file_value);
#undef FI_SPEC_FIELD

  for (const char* key : kRetiredKeys) {
    if (config.contains(key)) (void)config.get_string(key);
  }

  if (util::Status s = parse_params(config, spec.params); !s.is_ok()) {
    return s;
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

  for (std::size_t i = 0; config.contains(phase_key(i, "kind")); ++i) {
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
  if (util::Status s = check_serializable_string(name, "name"); !s.is_ok()) {
    return s;
  }
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpec& phase = phases[i];
    const std::string where = "phase." + std::to_string(i);
    if (util::Status s =
            check_serializable_string(phase.label, where + ".label");
        !s.is_ok()) {
      return s;
    }
    // Knobs of other phase kinds must stay at their defaults — file
    // configs get this from the unknown-key sweep; this covers in-code
    // specs, so a stray field never silently runs a different experiment.
    struct Knob {
      bool relevant;
      bool at_default;
      const char* name;
    };
    const bool is_churn = phase.kind == PhaseKind::churn;
    const bool is_net_condition = phase.kind == PhaseKind::partition ||
                                  phase.kind == PhaseKind::outage;
    const Knob knobs[] = {
        {phase.kind != PhaseKind::rent_audit, phase.cycles == 1, "cycles"},
        {phase.kind == PhaseKind::rent_audit, phase.periods == 0, "periods"},
        {is_churn, phase.adds_per_cycle == 0, "adds_per_cycle"},
        {is_churn, !phase.poisson_arrivals, "poisson_arrivals"},
        {is_churn, phase.discard_fraction == 0.0, "discard_fraction"},
        {phase.kind == PhaseKind::corrupt_burst,
         phase.corrupt_fraction == 0.0, "corrupt_fraction"},
        {phase.kind == PhaseKind::selfish_refresh,
         phase.coalition_fraction == 0.0, "coalition_fraction"},
        {phase.kind == PhaseKind::admit, phase.add_sectors == 0,
         "add_sectors"},
        {is_net_condition, phase.region == 0, "region"},
        {phase.kind == PhaseKind::outage, phase.down_cycles == 0,
         "down_cycles"},
    };
    for (const Knob& knob : knobs) {
      if (!knob.relevant && !knob.at_default) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + "." + knob.name + " is not a knob of a " +
                             phase_kind_name(phase.kind) + " phase");
      }
    }
    if (phase.kind != PhaseKind::rent_audit && phase.cycles == 0) {
      return util::err(util::ErrorCode::invalid_argument,
                       where + ".cycles must be positive");
    }
    if (util::Status s = check_fraction(phase.discard_fraction,
                                        where + ".discard_fraction");
        !s.is_ok()) {
      return s;
    }
    if (util::Status s = check_fraction(phase.corrupt_fraction,
                                        where + ".corrupt_fraction");
        !s.is_ok()) {
      return s;
    }
    if (util::Status s = check_fraction(phase.coalition_fraction,
                                        where + ".coalition_fraction");
        !s.is_ok()) {
      return s;
    }
    if (phase.kind == PhaseKind::admit && phase.add_sectors == 0) {
      return util::err(util::ErrorCode::invalid_argument,
                       where + ".add_sectors must be positive");
    }
    if (is_net_condition) {
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
  std::ostringstream out;
  out << "name = " << name << "\n";
  out << "seed = " << seed << "\n";
  out << "sectors = " << sectors << "\n";
  out << "sector_units = " << sector_units << "\n";
  out << "initial_files = " << initial_files << "\n";
  out << "file_size_min = " << file_size_min << "\n";
  out << "file_size_max = " << file_size_max << "\n";
  out << "file_value = " << file_value << "\n";

  out << "net.min_capacity = " << params.min_capacity << "\n";
  out << "net.min_value = " << params.min_value << "\n";
  out << "net.k = " << params.k << "\n";
  out << "net.cap_para = " << format_shortest_double(params.cap_para) << "\n";
  out << "net.gamma_deposit = " << format_shortest_double(params.gamma_deposit) << "\n";
  out << "net.proof_cycle = " << params.proof_cycle << "\n";
  out << "net.proof_due = " << params.proof_due << "\n";
  out << "net.proof_deadline = " << params.proof_deadline << "\n";
  out << "net.avg_refresh = " << format_shortest_double(params.avg_refresh) << "\n";
  out << "net.delay_per_kib = " << params.delay_per_kib << "\n";
  out << "net.min_transfer_window = " << params.min_transfer_window << "\n";
  out << "net.unit_rent = " << params.unit_rent << "\n";
  out << "net.traffic_fee_per_kib = " << params.traffic_fee_per_kib << "\n";
  out << "net.gas_per_task = " << params.gas_per_task << "\n";
  out << "net.punish_bp = " << params.punish_bp << "\n";
  out << "net.rent_period_cycles = " << params.rent_period_cycles << "\n";
  out << "net.max_alloc_resample = " << params.max_alloc_resample << "\n";
  out << "net.distinct_sectors = "
      << (params.distinct_sectors ? "true" : "false") << "\n";
  out << "net.admission_rebalance = "
      << (params.admission_rebalance ? "true" : "false") << "\n";

  {
    std::string network_block;
    network.serialize(network_block);
    out << network_block;
  }

  {
    std::string traffic_block;
    traffic.serialize(traffic_block);
    out << traffic_block;
  }

  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpec& phase = phases[i];
    out << phase_key(i, "kind") << " = " << phase_kind_name(phase.kind)
        << "\n";
    if (!phase.label.empty()) {
      out << phase_key(i, "label") << " = " << phase.label << "\n";
    }
    switch (phase.kind) {
      case PhaseKind::idle:
        out << phase_key(i, "cycles") << " = " << phase.cycles << "\n";
        break;
      case PhaseKind::churn:
        out << phase_key(i, "cycles") << " = " << phase.cycles << "\n";
        out << phase_key(i, "adds_per_cycle") << " = " << phase.adds_per_cycle
            << "\n";
        out << phase_key(i, "poisson_arrivals") << " = "
            << (phase.poisson_arrivals ? "true" : "false") << "\n";
        out << phase_key(i, "discard_fraction") << " = "
            << format_shortest_double(phase.discard_fraction) << "\n";
        break;
      case PhaseKind::corrupt_burst:
        out << phase_key(i, "cycles") << " = " << phase.cycles << "\n";
        out << phase_key(i, "corrupt_fraction") << " = "
            << format_shortest_double(phase.corrupt_fraction) << "\n";
        break;
      case PhaseKind::selfish_refresh:
        out << phase_key(i, "cycles") << " = " << phase.cycles << "\n";
        out << phase_key(i, "coalition_fraction") << " = "
            << format_shortest_double(phase.coalition_fraction) << "\n";
        break;
      case PhaseKind::rent_audit:
        out << phase_key(i, "periods") << " = " << phase.periods << "\n";
        break;
      case PhaseKind::admit:
        out << phase_key(i, "cycles") << " = " << phase.cycles << "\n";
        out << phase_key(i, "add_sectors") << " = " << phase.add_sectors
            << "\n";
        break;
      case PhaseKind::partition:
        out << phase_key(i, "cycles") << " = " << phase.cycles << "\n";
        out << phase_key(i, "region") << " = " << phase.region << "\n";
        break;
      case PhaseKind::outage:
        out << phase_key(i, "cycles") << " = " << phase.cycles << "\n";
        out << phase_key(i, "region") << " = " << phase.region << "\n";
        out << phase_key(i, "down_cycles") << " = " << phase.down_cycles
            << "\n";
        break;
    }
  }
  std::string adversary_blocks;
  for (std::size_t i = 0; i < adversaries.size(); ++i) {
    adversaries[i].serialize(adversary_blocks, i);
  }
  out << adversary_blocks;
  return out.str();
}

}  // namespace fi::scenario

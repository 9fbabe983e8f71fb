#include "adversary/spec.h"

namespace fi::adversary {

namespace {

using util::kind_bits;

/// Strategies whose members are a fraction of the fleet.
constexpr std::uint32_t kFractionStrategies = kind_bits(
    StrategyKind::colluding_pool, StrategyKind::informed_pool,
    StrategyKind::proof_withholder, StrategyKind::refresh_saboteur,
    StrategyKind::cartel_starver);

/// `adversary.<i>.*` (`strategy` and `label` aside), with the strategies
/// that take each.
constexpr util::Key<AdversarySpec> kAdversaryKeys[] = {
    {"start_epoch", &AdversarySpec::start_epoch},
    {"sectors_per_epoch", &AdversarySpec::sectors_per_epoch,
     kind_bits(StrategyKind::targeted_file)},
    {"budget", &AdversarySpec::budget, kind_bits(StrategyKind::targeted_file)},
    {"fraction", &AdversarySpec::fraction, kFractionStrategies},
    {"window", &AdversarySpec::window,
     kind_bits(StrategyKind::colluding_pool, StrategyKind::informed_pool)},
    {"saved_per_cycle", &AdversarySpec::saved_per_cycle,
     kind_bits(StrategyKind::proof_withholder)},
    {"max_withhold_streak", &AdversarySpec::max_withhold_streak,
     kind_bits(StrategyKind::proof_withholder)},
    {"sectors", &AdversarySpec::sectors,
     kind_bits(StrategyKind::churn_griefer)},
    {"period", &AdversarySpec::period, kind_bits(StrategyKind::churn_griefer)},
    {"rate", &AdversarySpec::rate, kind_bits(StrategyKind::adaptive_threshold)},
    {"penalty_budget", &AdversarySpec::penalty_budget,
     kind_bits(StrategyKind::adaptive_threshold)},
    {"escalate_every", &AdversarySpec::escalate_every,
     kind_bits(StrategyKind::adaptive_threshold)},
    {"requests_per_epoch", &AdversarySpec::requests_per_epoch,
     kind_bits(StrategyKind::retrieval_ddos)},
    {"gang", &AdversarySpec::gang, kind_bits(StrategyKind::retrieval_ddos)},
    {"duration", &AdversarySpec::duration,
     kind_bits(StrategyKind::refresh_saboteur, StrategyKind::retrieval_ddos,
               StrategyKind::cartel_starver)},
};

/// The header defaults every knob a strategy does not take must keep.
const AdversarySpec kAdversaryDefaults{};

std::string block_prefix(std::size_t index) {
  return "adversary." + std::to_string(index) + ".";
}

}  // namespace

const char* strategy_kind_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::targeted_file: return "targeted_file";
    case StrategyKind::colluding_pool: return "colluding_pool";
    case StrategyKind::proof_withholder: return "proof_withholder";
    case StrategyKind::churn_griefer: return "churn_griefer";
    case StrategyKind::adaptive_threshold: return "adaptive_threshold";
    case StrategyKind::refresh_saboteur: return "refresh_saboteur";
    case StrategyKind::retrieval_ddos: return "retrieval_ddos";
    case StrategyKind::cartel_starver: return "cartel_starver";
    case StrategyKind::informed_pool: return "informed_pool";
  }
  return "unknown";
}

util::Result<StrategyKind> strategy_kind_from_name(std::string_view name) {
  for (const StrategyKind kind :
       {StrategyKind::targeted_file, StrategyKind::colluding_pool,
        StrategyKind::proof_withholder, StrategyKind::churn_griefer,
        StrategyKind::adaptive_threshold, StrategyKind::refresh_saboteur,
        StrategyKind::retrieval_ddos, StrategyKind::cartel_starver,
        StrategyKind::informed_pool}) {
    if (name == strategy_kind_name(kind)) return kind;
  }
  return util::err(util::ErrorCode::invalid_argument,
                   "unknown adversary strategy '" + std::string(name) + "'");
}

util::Result<AdversarySpec> AdversarySpec::from_config(
    const util::Config& config, std::size_t index) {
  const std::string prefix = block_prefix(index);
  AdversarySpec spec;
  auto kind_name = config.get_string(prefix + "strategy");
  if (!kind_name.is_ok()) return kind_name.status();
  auto kind = strategy_kind_from_name(kind_name.value());
  if (!kind.is_ok()) {
    return util::err(util::ErrorCode::invalid_argument,
                     prefix + "strategy: " + kind.status().message());
  }
  spec.kind = kind.value();

  auto label = config.get_string_or(prefix + "label", "");
  if (!label.is_ok()) return label.status();
  spec.label = label.value();

  if (util::Status s = util::read_keys(config, prefix, kAdversaryKeys,
                                       kind_bits(spec.kind), spec);
      !s.is_ok()) {
    return s;
  }
  return spec;
}

util::Status AdversarySpec::validate(const std::string& where) const {
  if (util::Status s = util::check_serializable(label, where + ".label");
      !s.is_ok()) {
    return s;
  }
  // Knobs of other strategies must stay at their defaults — file configs
  // get this from the unknown-key sweep; this covers in-code specs.
  if (const char* knob =
          util::foreign_knob(kAdversaryKeys, kind_bits(kind), *this,
                             kAdversaryDefaults)) {
    return util::err(util::ErrorCode::invalid_argument,
                     where + "." + knob + " is not a knob of a " +
                         strategy_kind_name(kind) + " adversary");
  }
  if ((kind_bits(kind) & kFractionStrategies) != 0) {
    if (util::Status s = util::check_fraction(fraction, where + ".fraction");
        !s.is_ok()) {
      return s;
    }
    if (fraction == 0.0) {
      return util::err(util::ErrorCode::invalid_argument,
                       where + ".fraction must be positive (a zero-member " +
                           std::string(strategy_kind_name(kind)) +
                           " adversary does nothing)");
    }
  }
  switch (kind) {
    case StrategyKind::targeted_file:
      if (sectors_per_epoch == 0) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ".sectors_per_epoch must be positive");
      }
      break;
    case StrategyKind::colluding_pool:
    case StrategyKind::informed_pool:
      if (window == 0) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ".window must be positive");
      }
      break;
    case StrategyKind::proof_withholder:
      if (saved_per_cycle == 0) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ".saved_per_cycle must be positive (it is "
                                 "the benefit side of the withhold decision)");
      }
      break;
    case StrategyKind::churn_griefer:
      if (sectors == 0) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ".sectors must be positive");
      }
      if (period == 0) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ".period must be positive");
      }
      break;
    case StrategyKind::adaptive_threshold:
      if (rate == 0) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ".rate must be positive");
      }
      if (penalty_budget == 0) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ".penalty_budget must be positive (0 would "
                                 "be dormant from epoch 0)");
      }
      if (escalate_every == 0) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ".escalate_every must be positive");
      }
      break;
    case StrategyKind::refresh_saboteur:
      break;
    case StrategyKind::retrieval_ddos:
      if (requests_per_epoch == 0) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ".requests_per_epoch must be positive");
      }
      if (gang == 0) {
        return util::err(util::ErrorCode::invalid_argument,
                         where + ".gang must be positive");
      }
      break;
    case StrategyKind::cartel_starver:
      break;
  }
  return util::Status::ok();
}

void AdversarySpec::serialize(std::string& out, std::size_t index) const {
  const std::string prefix = block_prefix(index);
  out += prefix + "strategy = " + strategy_kind_name(kind) + "\n";
  if (!label.empty()) out += prefix + "label = " + label + "\n";
  util::write_keys(out, prefix, kAdversaryKeys, kind_bits(kind), *this);
}

}  // namespace fi::adversary

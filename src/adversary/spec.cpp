#include "adversary/spec.h"

#include <cctype>

namespace fi::adversary {

namespace {

std::string block_key(std::size_t index, const char* field) {
  return "adversary." + std::to_string(index) + "." + field;
}

util::Status check_fraction(double value, const std::string& what) {
  // Negated closed-range test so NaN is rejected (it fails every
  // comparison) instead of slipping through `< 0 || > 1`.
  if (!(value >= 0.0 && value <= 1.0)) {
    return util::err(util::ErrorCode::invalid_argument,
                     what + " must lie in [0, 1], got " +
                         util::format_shortest_double(value));
  }
  return util::Status::ok();
}

/// Labels must survive the key=value serialization: no comment starters,
/// newlines, or leading/trailing whitespace.
util::Status check_serializable_label(const std::string& value,
                                      const std::string& what) {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  if (value.find_first_of("#;\n\r") != std::string::npos ||
      (!value.empty() && (is_space(value.front()) || is_space(value.back())))) {
    return util::err(util::ErrorCode::invalid_argument,
                     what + " must not contain '#', ';', newlines, or "
                            "leading/trailing whitespace: '" +
                         value + "'");
  }
  return util::Status::ok();
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
  AdversarySpec spec;
  auto kind_name = config.get_string(block_key(index, "strategy"));
  if (!kind_name.is_ok()) return kind_name.status();
  auto kind = strategy_kind_from_name(kind_name.value());
  if (!kind.is_ok()) {
    return util::err(util::ErrorCode::invalid_argument,
                     block_key(index, "strategy") + ": " +
                         kind.status().message());
  }
  spec.kind = kind.value();

  auto label = config.get_string_or(block_key(index, "label"), "");
  if (!label.is_ok()) return label.status();
  spec.label = label.value();

#define FI_ADV_FIELD(getter, field, fallback)                        \
  do {                                                               \
    auto parsed = config.getter(block_key(index, #field), fallback); \
    if (!parsed.is_ok()) return parsed.status();                     \
    spec.field = parsed.value();                                     \
  } while (false)

  FI_ADV_FIELD(get_u64_or, start_epoch, 0);
  switch (spec.kind) {
    case StrategyKind::targeted_file:
      FI_ADV_FIELD(get_u64_or, sectors_per_epoch, 1);
      FI_ADV_FIELD(get_u64_or, budget, 0);
      break;
    case StrategyKind::colluding_pool:
    case StrategyKind::informed_pool:
      FI_ADV_FIELD(get_double_or, fraction, 0.0);
      FI_ADV_FIELD(get_u64_or, window, 1);
      break;
    case StrategyKind::proof_withholder:
      FI_ADV_FIELD(get_double_or, fraction, 0.0);
      FI_ADV_FIELD(get_u64_or, saved_per_cycle, 0);
      FI_ADV_FIELD(get_u64_or, max_withhold_streak, 0);
      break;
    case StrategyKind::churn_griefer:
      FI_ADV_FIELD(get_u64_or, sectors, 0);
      FI_ADV_FIELD(get_u64_or, period, 1);
      break;
    case StrategyKind::adaptive_threshold:
      FI_ADV_FIELD(get_u64_or, rate, 1);
      FI_ADV_FIELD(get_u64_or, penalty_budget, 0);
      FI_ADV_FIELD(get_u64_or, escalate_every, 4);
      break;
    case StrategyKind::refresh_saboteur:
      FI_ADV_FIELD(get_double_or, fraction, 0.0);
      FI_ADV_FIELD(get_u64_or, duration, 0);
      break;
    case StrategyKind::retrieval_ddos:
      FI_ADV_FIELD(get_u64_or, requests_per_epoch, 0);
      FI_ADV_FIELD(get_u64_or, gang, 1);
      FI_ADV_FIELD(get_u64_or, duration, 0);
      break;
    case StrategyKind::cartel_starver:
      FI_ADV_FIELD(get_double_or, fraction, 0.0);
      FI_ADV_FIELD(get_u64_or, duration, 0);
      break;
  }
#undef FI_ADV_FIELD
  return spec;
}

util::Status AdversarySpec::validate(const std::string& where) const {
  if (util::Status s = check_serializable_label(label, where + ".label");
      !s.is_ok()) {
    return s;
  }
  // Knobs of other strategies must stay at their defaults — file configs
  // get this from the unknown-key sweep; this covers in-code specs.
  struct Knob {
    bool relevant;
    bool at_default;
    const char* name;
  };
  const bool is_pool = kind == StrategyKind::colluding_pool ||
                       kind == StrategyKind::informed_pool;
  const bool takes_fraction = is_pool ||
                              kind == StrategyKind::proof_withholder ||
                              kind == StrategyKind::refresh_saboteur ||
                              kind == StrategyKind::cartel_starver;
  const bool takes_duration = kind == StrategyKind::refresh_saboteur ||
                              kind == StrategyKind::retrieval_ddos ||
                              kind == StrategyKind::cartel_starver;
  const Knob knobs[] = {
      {takes_fraction, fraction == 0.0, "fraction"},
      {is_pool, window == 1, "window"},
      {kind == StrategyKind::targeted_file, sectors_per_epoch == 1,
       "sectors_per_epoch"},
      {kind == StrategyKind::targeted_file, budget == 0, "budget"},
      {kind == StrategyKind::proof_withholder, saved_per_cycle == 0,
       "saved_per_cycle"},
      {kind == StrategyKind::proof_withholder, max_withhold_streak == 0,
       "max_withhold_streak"},
      {kind == StrategyKind::churn_griefer, sectors == 0, "sectors"},
      {kind == StrategyKind::churn_griefer, period == 1, "period"},
      {kind == StrategyKind::adaptive_threshold, rate == 1, "rate"},
      {kind == StrategyKind::adaptive_threshold, penalty_budget == 0,
       "penalty_budget"},
      {kind == StrategyKind::adaptive_threshold, escalate_every == 4,
       "escalate_every"},
      {takes_duration, duration == 0, "duration"},
      {kind == StrategyKind::retrieval_ddos, requests_per_epoch == 0,
       "requests_per_epoch"},
      {kind == StrategyKind::retrieval_ddos, gang == 1, "gang"},
  };
  for (const Knob& knob : knobs) {
    if (!knob.relevant && !knob.at_default) {
      return util::err(util::ErrorCode::invalid_argument,
                       where + "." + knob.name + " is not a knob of a " +
                           strategy_kind_name(kind) + " adversary");
    }
  }
  if (takes_fraction) {
    if (util::Status s = check_fraction(fraction, where + ".fraction");
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
  const auto emit = [&out, index](const char* field, const std::string& value) {
    out += block_key(index, field);
    out += " = ";
    out += value;
    out += "\n";
  };
  const auto emit_u64 = [&emit](const char* field, std::uint64_t value) {
    emit(field, std::to_string(value));
  };
  emit("strategy", strategy_kind_name(kind));
  if (!label.empty()) emit("label", label);
  emit_u64("start_epoch", start_epoch);
  switch (kind) {
    case StrategyKind::targeted_file:
      emit_u64("sectors_per_epoch", sectors_per_epoch);
      emit_u64("budget", budget);
      break;
    case StrategyKind::colluding_pool:
    case StrategyKind::informed_pool:
      emit("fraction", util::format_shortest_double(fraction));
      emit_u64("window", window);
      break;
    case StrategyKind::proof_withholder:
      emit("fraction", util::format_shortest_double(fraction));
      emit_u64("saved_per_cycle", saved_per_cycle);
      emit_u64("max_withhold_streak", max_withhold_streak);
      break;
    case StrategyKind::churn_griefer:
      emit_u64("sectors", sectors);
      emit_u64("period", period);
      break;
    case StrategyKind::adaptive_threshold:
      emit_u64("rate", rate);
      emit_u64("penalty_budget", penalty_budget);
      emit_u64("escalate_every", escalate_every);
      break;
    case StrategyKind::refresh_saboteur:
      emit("fraction", util::format_shortest_double(fraction));
      emit_u64("duration", duration);
      break;
    case StrategyKind::retrieval_ddos:
      emit_u64("requests_per_epoch", requests_per_epoch);
      emit_u64("gang", gang);
      emit_u64("duration", duration);
      break;
    case StrategyKind::cartel_starver:
      emit("fraction", util::format_shortest_double(fraction));
      emit_u64("duration", duration);
      break;
  }
}

}  // namespace fi::adversary

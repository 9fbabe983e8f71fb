#include "api/session.h"

#include <new>
#include <stdexcept>
#include <string>

#include "snapshot/snapshot.h"
#include "util/config.h"

namespace fi {

util::Result<scenario::ScenarioSpec> Session::spec_with_overrides(
    const scenario::ScenarioSpec& base, const OpenOptions& options) {
  // Layers the overrides onto the spec's lossless config-text form and
  // re-parses. Round-tripping through `to_config_string` keeps exactly one
  // source of truth for key names and validation: an override is legal
  // here iff it is legal in a config file.
  auto config = util::Config::parse(base.to_config_string());
  if (!config.is_ok()) return config.status();
  for (const auto& [key, value] : options.overrides) {
    config.value().set(key, value);
  }
  return scenario::ScenarioSpec::from_config(config.value());
}

util::Result<Session> Session::from_spec(scenario::ScenarioSpec spec) {
  // Validate before constructing: the runner FI_CHECKs validity (an
  // invariant for it, an expected failure for an API caller).
  if (auto status = spec.validate(); !status.is_ok()) return status;
  // A valid spec can still size its setup funding (deposits, rent and
  // traffic budgets) past u64, or its tables (traffic streams, regions,
  // gang streams) past memory; the checked arithmetic and the allocator
  // throw, and that is bad input, not a crash.
  try {
    return Session(
        std::make_unique<scenario::ScenarioRunner>(std::move(spec)));
  } catch (const std::overflow_error& e) {
    return util::err(util::ErrorCode::invalid_argument,
                     std::string("scenario setup overflows: ") + e.what());
  } catch (const std::length_error& e) {
    return util::err(util::ErrorCode::invalid_argument,
                     std::string("scenario setup too large: ") + e.what());
  } catch (const std::bad_alloc& e) {
    return util::err(util::ErrorCode::invalid_argument,
                     std::string("scenario setup too large: ") + e.what());
  }
}

util::Result<scenario::ScenarioSpec> Session::load_spec(
    const std::string& path, const OpenOptions& options) {
  auto config = util::Config::load(path);
  if (!config.is_ok()) return config.status();
  for (const auto& [key, value] : options.overrides) {
    config.value().set(key, value);
  }
  return scenario::ScenarioSpec::from_config(config.value());
}

util::Result<Session> Session::from_config_file(const std::string& path,
                                                const OpenOptions& options) {
  auto spec = load_spec(path, options);
  if (!spec.is_ok()) return spec.status();
  return from_spec(std::move(spec).value());
}

util::Result<Session> Session::from_snapshot_file(const std::string& path,
                                                  const OpenOptions& options) {
  auto snapshot = snapshot::read_file(path);
  if (!snapshot.is_ok()) return snapshot.status();
  auto spec = spec_with_overrides(snapshot.value().spec, options);
  if (!spec.is_ok()) return spec.status();
  util::BinaryReader reader(snapshot.value().body);
  auto runner =
      scenario::ScenarioRunner::resume(std::move(spec).value(), reader);
  if (!runner.is_ok()) return runner.status();
  return Session(std::move(runner).value());
}

std::uint64_t Session::run_epochs(std::uint64_t epochs) {
  return runner_->run_cycles(epochs);
}

util::Status Session::run_to_epoch(std::uint64_t target) {
  const std::uint64_t now = epoch();
  if (target < now) {
    return util::err(util::ErrorCode::invalid_argument,
                     "run_to_epoch(" + std::to_string(target) +
                         "): session is already at epoch " +
                         std::to_string(now));
  }
  run_epochs(target - now);
  if (epoch() != target) {
    return util::err(util::ErrorCode::failed_precondition,
                     "run_to_epoch(" + std::to_string(target) +
                         "): run ended at epoch " + std::to_string(epoch()));
  }
  return util::Status::ok();
}

bool Session::finished() const { return runner_->finished(); }

std::uint64_t Session::epoch() const { return runner_->epoch(); }

std::string Session::state_hash() const {
  return snapshot::state_hash(*runner_);
}

util::Status Session::checkpoint(const std::string& path) const {
  return snapshot::save_to_file(*runner_, path);
}

util::Result<Session> Session::fork(const OpenOptions& options) const {
  auto spec = spec_with_overrides(runner_->spec(), options);
  if (!spec.is_ok()) return spec.status();
  // Same canonical encoding a snapshot file embeds, minus the file
  // framing: the fork IS a resume, just in memory.
  const std::vector<std::uint8_t> body = snapshot::encode_state(*runner_);
  util::BinaryReader reader(body);
  auto runner =
      scenario::ScenarioRunner::resume(std::move(spec).value(), reader);
  if (!runner.is_ok()) return runner.status();
  return Session(std::move(runner).value());
}

scenario::MetricsReport Session::report() {
  runner_->run_cycles(scenario::ScenarioRunner::kAllCycles);
  return runner_->finalize();
}

const scenario::ScenarioSpec& Session::spec() const { return runner_->spec(); }

const core::Network& Session::network() const { return runner_->network(); }

}  // namespace fi

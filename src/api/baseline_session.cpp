#include "api/baseline_session.h"

#include <utility>

#include "baselines/arweave_model.h"
#include "baselines/filecoin_model.h"
#include "baselines/sia_model.h"
#include "baselines/storj_model.h"
#include "util/binary_io.h"
#include "util/hex.h"

namespace fi {

namespace {

using Model = std::unique_ptr<baselines::DsnProtocol>;

util::Result<Model> make_model(const std::string& protocol) {
  if (protocol == "filecoin") {
    return Model(std::make_unique<baselines::FilecoinModel>());
  }
  if (protocol == "sia") return Model(std::make_unique<baselines::SiaModel>());
  if (protocol == "storj") {
    return Model(std::make_unique<baselines::StorjModel>());
  }
  if (protocol == "arweave") {
    return Model(std::make_unique<baselines::ArweaveModel>());
  }
  if (protocol == "fileinsurer") {
    return util::err(util::ErrorCode::invalid_argument,
                     "baseline protocol 'fileinsurer' was retired: FileInsurer "
                     "rows come from scenario nodes that run the protocol "
                     "engine, as in plans/table4.plan");
  }
  return util::err(util::ErrorCode::invalid_argument,
                   "unknown baseline protocol '" + protocol +
                       "' (expected filecoin, sia, storj or arweave)");
}

/// `validate()` and `open()` share this: every spec check, then the model
/// the checked spec names (built once).
util::Result<Model> checked_model(const BaselineSpec& spec) {
  const auto invalid = [](const std::string& message) {
    return util::err(util::ErrorCode::invalid_argument, message);
  };
  if (spec.files == 0) return invalid("baseline files must be >= 1");
  if (spec.file_size == 0) return invalid("baseline file_size must be >= 1");
  if (spec.file_value == 0) {
    return invalid("baseline file_value must be >= 1 (a zero-value workload "
                   "has nothing to lose or compensate)");
  }
  if (spec.epochs == 0) {
    return invalid("baseline epochs (corruption trials) must be >= 1");
  }
  if (spec.lambda <= 0.0 || spec.lambda >= 1.0) {
    return invalid("baseline lambda must be in (0, 1)");
  }
  if (spec.sybil_fraction <= 0.0 || spec.sybil_fraction >= 1.0) {
    return invalid("baseline sybil_fraction must be in (0, 1)");
  }
  auto model = make_model(spec.protocol);
  if (!model.is_ok()) return model.status();
  if (spec.sectors < model.value()->min_units()) {
    return invalid("baseline sectors must be >= " +
                   std::to_string(model.value()->min_units()) + " for the " +
                   spec.protocol + " model");
  }
  return model;
}

}  // namespace

util::Status BaselineSpec::validate() const {
  return checked_model(*this).status();
}

util::Result<BaselineSession> BaselineSession::open(const BaselineSpec& spec) {
  auto model = checked_model(spec);
  if (!model.is_ok()) return model.status();

  const std::vector<baselines::WorkloadFile> files(
      spec.files, baselines::WorkloadFile{spec.file_size, spec.file_value});
  model.value()->setup(spec.sectors, files, spec.seed);
  return BaselineSession(spec, std::move(model).value());
}

std::uint64_t BaselineSession::run_epochs(std::uint64_t epochs) {
  std::uint64_t ran = 0;
  while (ran < epochs && epoch_ < spec_.epochs) {
    trials_.push_back(model_->corrupt_random(spec_.lambda));
    ++epoch_;
    ++ran;
  }
  return ran;
}

std::string BaselineSession::state_hash() const {
  util::BinaryWriter writer(/*keep_bytes=*/false);
  writer.str(model_->name());
  writer.u64(spec_.seed);
  writer.u64(spec_.sectors);
  writer.u64(spec_.files);
  writer.u64(spec_.file_size);
  writer.u64(static_cast<std::uint64_t>(spec_.file_value));
  writer.f64(spec_.lambda);
  writer.u64(epoch_);
  for (const baselines::CorruptionOutcome& trial : trials_) {
    writer.f64(trial.lost_value_fraction);
    writer.f64(trial.compensated_fraction);
  }
  return util::to_hex(writer.digest());
}

ComparisonRow BaselineSession::row(const std::string& node) {
  if (finished() && !sybil_done_) {
    sybil_done_ = true;
    sybil_loss_ =
        model_->sybil_single_disk_failure(spec_.sybil_fraction)
            .lost_value_fraction;
  }

  ComparisonRow row;
  row.node = node;
  row.protocol = model_->name();
  row.kind = "baseline";
  row.files = spec_.files;
  row.epochs = epoch_;
  row.has_outcome = true;
  double lost = 0.0;
  double compensated = 0.0;
  for (const baselines::CorruptionOutcome& trial : trials_) {
    lost += trial.lost_value_fraction;
    compensated += trial.compensated_fraction;
  }
  const double n = trials_.empty() ? 1.0 : static_cast<double>(trials_.size());
  row.lost_value_fraction = lost / n;
  row.compensated_fraction = compensated / n;
  row.sybil_loss_fraction = sybil_done_ ? sybil_loss_ : -1.0;
  row.storage_overhead = model_->storage_overhead();
  row.capacity_scalable = model_->capacity_scalable();
  row.prevents_sybil = model_->prevents_sybil();
  row.provable_robustness = model_->provable_robustness();
  row.full_compensation = model_->full_compensation();
  row.state_hash = state_hash();
  return row;
}

}  // namespace fi

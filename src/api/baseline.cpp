#include "api/baseline.h"

#include "baselines/model.h"
#include "util/binary_io.h"
#include "util/hex.h"

namespace fi {

namespace {

/// `validate()` and `run_baseline()` share this: every spec check, then
/// the protocol row the checked spec names.
util::Result<const baselines::Protocol*> checked_protocol(
    const BaselineSpec& spec) {
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
  if (spec.protocol == "fileinsurer") {
    return invalid("baseline protocol 'fileinsurer' was retired: FileInsurer "
                   "rows come from scenario nodes that run the protocol "
                   "engine, as in plans/table4.plan");
  }
  const baselines::Protocol* protocol = baselines::find_protocol(spec.protocol);
  if (protocol == nullptr) {
    return invalid("unknown baseline protocol '" + spec.protocol +
                   "' (expected filecoin, sia, storj or arweave)");
  }
  if (spec.sectors < protocol->min_units()) {
    return invalid("baseline sectors must be >= " +
                   std::to_string(protocol->min_units()) + " for the " +
                   spec.protocol + " model");
  }
  return protocol;
}

}  // namespace

util::Status BaselineSpec::validate() const {
  return checked_protocol(*this).status();
}

util::Result<ComparisonRow> run_baseline(const BaselineSpec& spec,
                                         const std::string& node) {
  auto checked = checked_protocol(spec);
  if (!checked.is_ok()) return checked.status();
  const baselines::Protocol& protocol = *checked.value();
  baselines::Model model(protocol, spec.sectors, spec.files, spec.seed);

  util::BinaryWriter hash(/*keep_bytes=*/false);
  hash.str(protocol.name);
  hash.u64(spec.seed);
  hash.u64(spec.sectors);
  hash.u64(spec.files);
  hash.u64(spec.file_size);
  hash.u64(static_cast<std::uint64_t>(spec.file_value));
  hash.f64(spec.lambda);
  hash.u64(spec.epochs);
  double lost = 0.0;
  double compensated = 0.0;
  for (std::uint64_t trial = 0; trial < spec.epochs; ++trial) {
    const baselines::Outcome outcome = model.corrupt_random(spec.lambda);
    hash.f64(outcome.lost_value_fraction);
    hash.f64(outcome.compensated_fraction);
    lost += outcome.lost_value_fraction;
    compensated += outcome.compensated_fraction;
  }

  ComparisonRow row;
  row.node = node;
  row.protocol = std::string(protocol.name);
  row.kind = "baseline";
  row.files = spec.files;
  row.epochs = spec.epochs;
  row.has_outcome = true;
  row.lost_value_fraction = lost / static_cast<double>(spec.epochs);
  row.compensated_fraction = compensated / static_cast<double>(spec.epochs);
  row.sybil_loss_fraction =
      model.sybil_single_disk_failure(spec.sybil_fraction).lost_value_fraction;
  row.storage_overhead = model.storage_overhead();
  // Every competitor scales capacity; none proves robustness (Table IV).
  row.capacity_scalable = true;
  row.prevents_sybil = protocol.prevents_sybil();
  row.provable_robustness = false;
  row.full_compensation = protocol.full_compensation();
  row.state_hash = util::to_hex(hash.digest());
  return row;
}

}  // namespace fi

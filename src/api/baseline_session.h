#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/comparison.h"
#include "api/session_base.h"
#include "baselines/common.h"
#include "util/status.h"
#include "util/types.h"

/// The `src/baselines/` competitor models (Filecoin, Sia, Storj, Arweave)
/// behind the same stepping interface as `fi::Session`, so one experiment
/// plan can mix full FileInsurer simulations (its only model: the
/// protocol engine) and baseline models and aggregate them into a single
/// FileInsurer-vs-world table.
///
/// An epoch here is one λ-capacity corruption trial (placement kept,
/// corruption transient — the models' repeatable-trial design); the
/// session accumulates mean loss/compensation over `spec.epochs` trials
/// and runs one Sybil single-disk-failure episode at the end. Everything
/// streams from `spec.seed`, so a baseline row is as replayable as a
/// scenario row; `state_hash()` fingerprints the accumulated outcome.
namespace fi {

struct BaselineSpec {
  std::string protocol;  ///< filecoin | sia | storj | arweave
  std::uint64_t seed = 42;
  std::uint32_t sectors = 10000;  ///< equal storage units
  std::uint64_t files = 100000;
  ByteCount file_size = 1024;
  TokenAmount file_value = 100;
  std::uint64_t epochs = 4;      ///< corruption trials
  double lambda = 0.3;           ///< corrupted capacity fraction per trial
  double sybil_fraction = 0.3;   ///< identities claimed by the Sybil disk

  [[nodiscard]] util::Status validate() const;
};

class BaselineSession final : public SessionBase {
 public:
  /// Builds the protocol model and places the workload (`setup`).
  static util::Result<BaselineSession> open(const BaselineSpec& spec);

  BaselineSession(BaselineSession&&) noexcept = default;
  BaselineSession& operator=(BaselineSession&&) noexcept = default;

  std::uint64_t run_epochs(std::uint64_t epochs) override;
  [[nodiscard]] bool finished() const override { return epoch_ >= spec_.epochs; }
  [[nodiscard]] std::uint64_t epoch() const override { return epoch_; }
  /// SHA-256 over (protocol, spec knobs, per-trial outcomes) — a
  /// deterministic fingerprint of everything the row derives from.
  [[nodiscard]] std::string state_hash() const override;

  /// Comparison row over the trials run so far; the Sybil episode runs on
  /// first call once `finished()` (it perturbs no trial state).
  [[nodiscard]] ComparisonRow row(const std::string& node);

 private:
  BaselineSession(BaselineSpec spec,
                  std::unique_ptr<baselines::DsnProtocol> model)
      : spec_(std::move(spec)), model_(std::move(model)) {}

  BaselineSpec spec_;
  std::unique_ptr<baselines::DsnProtocol> model_;
  std::uint64_t epoch_ = 0;
  /// Per-trial outcomes, in trial order (state_hash input).
  std::vector<baselines::CorruptionOutcome> trials_;
  bool sybil_done_ = false;
  double sybil_loss_ = 0.0;
};

}  // namespace fi

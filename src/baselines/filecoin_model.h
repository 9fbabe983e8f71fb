#pragma once

#include "baselines/common.h"
#include "baselines/shard_placement.h"

/// Filecoin-style model (§II-B): the client buys `replicas` storage deals
/// with distinct miners, chosen at deal time and never relocated. On a
/// sector fault the pledge is *burnt*, not paid to the client (the paper's
/// Table IV footnote: "provides only limited file loss compensation" —
/// modelled as the per-deal collateral fraction flowing back).
namespace fi::baselines {

struct FilecoinConfig {
  std::uint32_t replicas = 3;
  /// Fraction of a lost file's value covered by deal collateral.
  double deal_collateral_fraction = 0.1;
};

class FilecoinModel final : public DsnProtocol {
 public:
  explicit FilecoinModel(FilecoinConfig config = FilecoinConfig()) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "Filecoin"; }

  void setup(std::uint32_t sectors, const std::vector<WorkloadFile>& files,
             std::uint64_t seed) override;

  CorruptionOutcome corrupt_random(double lambda) override;
  CorruptionOutcome sybil_single_disk_failure(
      double identity_fraction) override;

  [[nodiscard]] std::uint32_t min_units() const override {
    return config_.replicas;
  }
  [[nodiscard]] double storage_overhead() const override {
    return placement_.mean_units_per_file();
  }

  [[nodiscard]] bool prevents_sybil() const override { return true; }
  [[nodiscard]] bool provable_robustness() const override { return false; }
  [[nodiscard]] bool full_compensation() const override { return false; }

 private:
  [[nodiscard]] CorruptionOutcome outcome(
      const std::vector<bool>& corrupted) const;

  FilecoinConfig config_;
  ShardPlacement placement_;
  std::uint32_t sectors_ = 0;
  util::Xoshiro256 rng_{0};
};

}  // namespace fi::baselines

#pragma once

#include "baselines/common.h"
#include "baselines/shard_placement.h"

/// Sia-style model (§II-C2): storage contracts with a fixed set of hosts
/// chosen at contract time, with periodic storage proofs but *no*
/// proof-of-replication — so nothing stops one physical machine from
/// fulfilling contracts under many identities (Table IV: does not prevent
/// Sybil attacks). Collateral exists but is not a value-based insurance.
namespace fi::baselines {

struct SiaConfig {
  std::uint32_t replicas = 3;  ///< hosts under contract per file
};

class SiaModel final : public DsnProtocol {
 public:
  explicit SiaModel(SiaConfig config = SiaConfig()) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "Sia"; }

  void setup(std::uint32_t sectors, const std::vector<WorkloadFile>& files,
             std::uint64_t seed) override;

  CorruptionOutcome corrupt_random(double lambda) override;

  /// The attacker's identities all share one disk: they fail *together*.
  CorruptionOutcome sybil_single_disk_failure(
      double identity_fraction) override;

  [[nodiscard]] std::uint32_t min_units() const override {
    return config_.replicas;
  }
  [[nodiscard]] double storage_overhead() const override {
    return placement_.mean_units_per_file();
  }

  [[nodiscard]] bool prevents_sybil() const override { return false; }
  [[nodiscard]] bool provable_robustness() const override { return false; }
  [[nodiscard]] bool full_compensation() const override { return false; }

 private:
  [[nodiscard]] CorruptionOutcome outcome(
      const std::vector<bool>& corrupted) const;

  SiaConfig config_;
  ShardPlacement placement_;
  std::uint32_t sectors_ = 0;
  util::Xoshiro256 rng_{0};
};

}  // namespace fi::baselines

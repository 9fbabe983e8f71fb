#pragma once

#include "baselines/common.h"
#include "baselines/shard_placement.h"

/// Storj-style model (§II-C1): each file is Reed–Solomon coded into
/// `total_shards` erasure shards on distinct nodes, any `data_shards` of
/// which reconstruct it. No insurance: losses are not compensated.
namespace fi::baselines {

struct StorjConfig {
  std::uint32_t data_shards = 29;   // Storj's production defaults
  std::uint32_t total_shards = 80;
};

class StorjModel final : public DsnProtocol {
 public:
  explicit StorjModel(StorjConfig config = StorjConfig()) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "Storj"; }

  void setup(std::uint32_t sectors, const std::vector<WorkloadFile>& files,
             std::uint64_t seed) override;

  CorruptionOutcome corrupt_random(double lambda) override;
  CorruptionOutcome sybil_single_disk_failure(
      double identity_fraction) override;

  [[nodiscard]] std::uint32_t min_units() const override {
    return config_.data_shards;
  }
  /// Each of the n shards is 1/k of the file, so overhead is n/k.
  [[nodiscard]] double storage_overhead() const override {
    return placement_.mean_units_per_file() /
           static_cast<double>(config_.data_shards);
  }

  [[nodiscard]] bool prevents_sybil() const override { return true; }
  [[nodiscard]] bool provable_robustness() const override { return false; }
  [[nodiscard]] bool full_compensation() const override { return false; }

 private:
  [[nodiscard]] CorruptionOutcome outcome(
      const std::vector<bool>& corrupted) const;

  StorjConfig config_;
  ShardPlacement placement_;
  std::uint32_t sectors_ = 0;
  util::Xoshiro256 rng_{0};
};

}  // namespace fi::baselines

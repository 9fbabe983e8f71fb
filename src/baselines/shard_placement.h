#pragma once

#include <cstdint>
#include <vector>

#include "util/prng.h"
#include "util/types.h"

/// Shared placement/loss machinery for the baseline models: every protocol
/// reduces to "file i occupies a set of storage units and survives while at
/// least `threshold` of them survive" (threshold = 1 for replication,
/// = data-shard count for erasure coding).
namespace fi::baselines {

class ShardPlacement {
 public:
  struct FileLayout {
    std::vector<std::uint32_t> units;  ///< storage units holding a shard
    std::uint32_t survive_threshold = 1;
    TokenAmount value = 0;
  };

  void clear() { files_.clear(); total_value_ = 0; }

  void add_file(FileLayout layout);

  [[nodiscard]] TokenAmount total_value() const { return total_value_; }
  /// Mean placed units per file — the replication models' storage
  /// overhead (each unit holds a full copy); erasure models scale it by
  /// their shard size.
  [[nodiscard]] double mean_units_per_file() const {
    if (files_.empty()) return 0.0;
    std::size_t units = 0;
    for (const FileLayout& file : files_) units += file.units.size();
    return static_cast<double>(units) / static_cast<double>(files_.size());
  }

  /// Value of files with fewer than `survive_threshold` shards on live
  /// units.
  [[nodiscard]] TokenAmount lost_value(
      const std::vector<bool>& corrupted) const;

  /// Distinct uniform draw of `count` units from [0, units).
  static std::vector<std::uint32_t> draw_distinct(std::uint32_t units,
                                                  std::uint32_t count,
                                                  util::Xoshiro256& rng);

  /// Random corruption of ⌊λ·units⌋ units.
  static std::vector<bool> corrupt_fraction(std::uint32_t units,
                                            double lambda,
                                            util::Xoshiro256& rng);

 private:
  std::vector<FileLayout> files_;
  TokenAmount total_value_ = 0;
};

}  // namespace fi::baselines

#include "baselines/shard_placement.h"

#include <unordered_set>

#include "util/check.h"
#include "util/checked.h"

namespace fi::baselines {

void ShardPlacement::add_file(FileLayout layout) {
  FI_CHECK(!layout.units.empty());
  FI_CHECK(layout.survive_threshold >= 1);
  FI_CHECK(layout.survive_threshold <= layout.units.size());
  total_value_ = util::checked_add(total_value_, layout.value);
  files_.push_back(std::move(layout));
}

TokenAmount ShardPlacement::lost_value(
    const std::vector<bool>& corrupted) const {
  TokenAmount lost = 0;
  for (const FileLayout& f : files_) {
    std::uint32_t alive = 0;
    for (std::uint32_t u : f.units) {
      if (u < corrupted.size() && !corrupted[u]) ++alive;
    }
    if (alive < f.survive_threshold) {
      lost = util::checked_add(lost, f.value);
    }
  }
  return lost;
}

std::vector<std::uint32_t> ShardPlacement::draw_distinct(
    std::uint32_t units, std::uint32_t count, util::Xoshiro256& rng) {
  FI_CHECK_MSG(count <= units, "cannot draw more distinct units than exist");
  std::unordered_set<std::uint32_t> chosen;
  std::vector<std::uint32_t> out;
  out.reserve(count);
  while (out.size() < count) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_below(units));
    if (chosen.insert(u).second) out.push_back(u);
  }
  return out;
}

std::vector<bool> ShardPlacement::corrupt_fraction(std::uint32_t units,
                                                   double lambda,
                                                   util::Xoshiro256& rng) {
  FI_CHECK(lambda >= 0.0 && lambda <= 1.0);
  const auto budget =
      static_cast<std::uint32_t>(lambda * static_cast<double>(units));
  std::vector<bool> corrupted(units, false);
  std::uint32_t spent = 0;
  while (spent < budget) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_below(units));
    if (!corrupted[u]) {
      corrupted[u] = true;
      ++spent;
    }
  }
  return corrupted;
}

}  // namespace fi::baselines

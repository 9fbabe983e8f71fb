#include "baselines/model.h"

#include <algorithm>

#include "util/check.h"

namespace fi::baselines {

std::uint32_t Protocol::min_units() const {
  return survive > 1 ? survive : std::max<std::uint32_t>(holders, 1);
}

const Protocol* find_protocol(std::string_view key) {
  for (const Protocol& protocol : kProtocols) {
    if (protocol.key == key) return &protocol;
  }
  return nullptr;
}

Model::Model(const Protocol& protocol, std::uint32_t units,
             std::uint64_t files, std::uint64_t seed)
    : protocol_(protocol), units_(units), rng_(seed) {
  FI_CHECK(files > 0);
  FI_CHECK_MSG(units_ >= protocol_.min_units(),
               "too few storage units for the protocol");
  const std::uint32_t count = std::min(protocol_.holders, units_);
  // stamp[u] == f + 1 once unit u holds file f: a redraw, not a duplicate.
  std::vector<std::uint64_t> stamp(count == 0 ? 0 : units_, 0);
  ends_.reserve(files);
  holders_.reserve(files * count);
  for (std::uint64_t f = 0; f < files; ++f) {
    const std::size_t begin = holders_.size();
    if (count == 0) {
      for (std::uint32_t u = 0; u < units_; ++u) {
        if (rng_.uniform_double() < protocol_.storage_fraction) {
          holders_.push_back(u);
        }
      }
      if (holders_.size() == begin) {
        // Proof of Access admits a block only once some miner stores it.
        holders_.push_back(
            static_cast<std::uint32_t>(rng_.uniform_below(units_)));
      }
    } else {
      for (std::uint32_t placed = 0; placed < count;) {
        const auto u = static_cast<std::uint32_t>(rng_.uniform_below(units_));
        if (stamp[u] == f + 1) continue;
        stamp[u] = f + 1;
        holders_.push_back(u);
        ++placed;
      }
    }
    FI_CHECK(holders_.size() - begin >= protocol_.survive);
    ends_.push_back(holders_.size());
  }
}

std::vector<bool> Model::corrupt_fraction(double fraction) {
  FI_CHECK(fraction >= 0.0 && fraction <= 1.0);
  const auto budget =
      static_cast<std::uint32_t>(fraction * static_cast<double>(units_));
  std::vector<bool> corrupted(units_, false);
  for (std::uint32_t spent = 0; spent < budget;) {
    const auto u = static_cast<std::uint32_t>(rng_.uniform_below(units_));
    if (!corrupted[u]) {
      corrupted[u] = true;
      ++spent;
    }
  }
  return corrupted;
}

Outcome Model::outcome(const std::vector<bool>& corrupted) const {
  std::size_t lost = 0;
  std::size_t begin = 0;
  for (const std::size_t end : ends_) {
    std::uint32_t alive = 0;
    for (std::size_t h = begin; h < end; ++h) {
      if (!corrupted[holders_[h]]) ++alive;
    }
    if (alive < protocol_.survive) ++lost;
    begin = end;
  }
  // Files are of equal value, so the lost share of value is the lost share
  // of files.
  Outcome out;
  out.lost_value_fraction =
      static_cast<double>(lost) / static_cast<double>(ends_.size());
  out.compensated_fraction = lost == 0 ? 1.0 : protocol_.payback;
  return out;
}

Outcome Model::corrupt_random(double lambda) {
  return outcome(corrupt_fraction(lambda));
}

Outcome Model::sybil_single_disk_failure(double identity_fraction) {
  if (protocol_.shared_disk) {
    return outcome(corrupt_fraction(identity_fraction));
  }
  std::vector<bool> corrupted(units_, false);
  corrupted[rng_.uniform_below(units_)] = true;
  return outcome(corrupted);
}

double Model::storage_overhead() const {
  return static_cast<double>(holders_.size()) /
         static_cast<double>(ends_.size()) /
         static_cast<double>(protocol_.survive);
}

}  // namespace fi::baselines

#include "traffic/defense.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace fi::traffic {

void PoissonEnvelopeDefense::end_epoch(std::uint64_t epoch) {
  if (!armed_) {
    for (std::size_t i = 0; i < epoch_counts_.size(); ++i) {
      warmup_totals_[i] += epoch_counts_[i];
    }
    if (++epochs_seen_ >= warmup_) {
      // Median of the per-stream warmup means. Even stream counts average
      // the two middle means — still a minority-robust statistic.
      std::vector<double> means;
      means.reserve(warmup_totals_.size());
      for (const std::uint64_t total : warmup_totals_) {
        means.push_back(static_cast<double>(total) /
                        static_cast<double>(warmup_));
      }
      std::sort(means.begin(), means.end());
      const std::size_t n = means.size();
      const double median = (n % 2 == 1)
                                ? means[n / 2]
                                : (means[n / 2 - 1] + means[n / 2]) / 2.0;
      // +3 keeps near-idle baselines (median ~0) from flagging the first
      // legitimate burst.
      envelope_ = median + k_ * std::sqrt(median) + 3.0;
      armed_ = true;
    }
  } else {
    for (std::size_t i = 0; i < epoch_counts_.size(); ++i) {
      if (static_cast<double>(epoch_counts_[i]) > envelope_) {
        if (++streaks_[i] >= violations_ && !flagged(i)) {
          first_flag_epoch_[i] = epoch;
        }
      } else {
        streaks_[i] = 0;
      }
    }
  }
  std::fill(epoch_counts_.begin(), epoch_counts_.end(), 0);
}

std::uint64_t PoissonEnvelopeDefense::allowance() const {
  const std::uint64_t cap = static_cast<std::uint64_t>(envelope_);
  return cap < 1 ? 1 : cap;
}

void PoissonEnvelopeDefense::save_state(util::BinaryWriter& writer) const {
  // Only `observe`, inside the traffic tick, raises a count, and the same
  // tick's `end_epoch` zeroes them all.
  FI_CHECK_MSG(std::ranges::all_of(epoch_counts_,
                                   [](std::uint64_t n) { return n == 0; }),
               "checkpoint inside an open defense epoch");
  util::save_u64_seq(writer, epoch_counts_);
  util::save_u64_seq(writer, warmup_totals_);
  writer.u64(epochs_seen_);
  writer.boolean(armed_);
  writer.f64(envelope_);
  util::save_u64_seq(writer, streaks_);
  writer.u64(first_flag_epoch_.size());
  for (std::size_t i = 0; i < first_flag_epoch_.size(); ++i) {
    writer.u64(flagged(i) ? 1 : 0);
  }
  util::save_u64_seq(writer, first_flag_epoch_);
}

void PoissonEnvelopeDefense::load_state(util::BinaryReader& reader) {
  const std::size_t streams = first_flag_epoch_.size();
  epoch_counts_ = util::load_u64_seq<std::uint64_t>(reader);
  warmup_totals_ = util::load_u64_seq<std::uint64_t>(reader);
  epochs_seen_ = reader.u64();
  armed_ = reader.boolean();
  envelope_ = reader.f64();
  streaks_ = util::load_u64_seq<std::uint64_t>(reader);
  const auto flags = util::load_u64_seq<std::uint64_t>(reader);
  first_flag_epoch_ = util::load_u64_seq<std::uint64_t>(reader);
  // Every per-stream vector must match the spec-constructed stream count;
  // a crafted body with mismatched lengths is rejected, not indexed OOB.
  if (epoch_counts_.size() != streams || warmup_totals_.size() != streams ||
      streaks_.size() != streams || flags.size() != streams ||
      first_flag_epoch_.size() != streams) {
    reader.fail();
    return;
  }
  for (std::size_t i = 0; i < streams; ++i) {
    if (epoch_counts_[i] != 0 || flags[i] != (flagged(i) ? 1 : 0)) {
      reader.fail();
    }
  }
}

}  // namespace fi::traffic

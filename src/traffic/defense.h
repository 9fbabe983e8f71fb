#pragma once

#include <cstdint>
#include <vector>

#include "util/binary_io.h"

/// Statistical abusive-traffic classifier for the retrieval layer.
///
/// The model: an honest client stream is (approximately) a Poisson arrival
/// process, so its per-epoch request count concentrates around its mean
/// with standard deviation sqrt(mean). The defense observes every stream's
/// offered load for a warmup window, fixes a shared *valid-request
/// envelope* at `median + k*sqrt(median) + 3` over the per-stream warmup
/// means — the median-of-means is robust, so a stream that already attacks
/// during warmup cannot inflate its own baseline while the gang holds a
/// minority of streams — and flags any stream that exceeds the envelope
/// for `violations` consecutive epochs. Flagging is sticky: a retrieval
/// gang that backs off after being flagged stays rate-limited and
/// surge-priced for the rest of the run.
///
/// Everything is integer counts plus a handful of IEEE-exact double ops
/// (+, *, /, sqrt are correctly rounded), so classification decisions are
/// bit-identical across platforms.
namespace fi::traffic {

inline constexpr std::uint64_t kNeverFlagged = ~std::uint64_t{0};

class PoissonEnvelopeDefense {
 public:
  PoissonEnvelopeDefense(std::uint64_t streams, std::uint64_t warmup,
                         double k, std::uint64_t violations)
      : warmup_(warmup),
        k_(k),
        violations_(violations),
        epoch_counts_(streams, 0),
        warmup_totals_(streams, 0),
        streaks_(streams, 0),
        first_flag_epoch_(streams, kNeverFlagged) {}

  /// Counts one offered request on `stream` this epoch (before any
  /// rate-limiting — the defense classifies offered load, not admitted
  /// load, so a limited stream cannot launder its way back to normal).
  void observe(std::size_t stream) { ++epoch_counts_[stream]; }

  /// Closes the epoch: accumulates warmup baselines, arms the envelope
  /// once the warmup window completes, then updates violation streaks and
  /// flags. `epoch` stamps `first_flagged_epoch`.
  void end_epoch(std::uint64_t epoch);

  /// The envelope has been fixed (warmup complete). The warmup counter
  /// stops here.
  [[nodiscard]] bool armed() const { return epochs_seen_ >= warmup_; }
  [[nodiscard]] double envelope() const { return envelope_; }
  [[nodiscard]] bool flagged(std::size_t stream) const {
    return first_flag_epoch_[stream] != kNeverFlagged;
  }
  /// Epoch the stream was first flagged, `kNeverFlagged` if never.
  [[nodiscard]] std::uint64_t first_flagged_epoch(std::size_t stream) const {
    return first_flag_epoch_[stream];
  }
  /// Per-epoch request allowance for a flagged stream under rate
  /// limiting: the envelope floor, never below one (a flagged client may
  /// still make sporadic valid requests).
  [[nodiscard]] std::uint64_t allowance() const;

  /// Canonical snapshot encoding / restore (`src/snapshot`). The
  /// configuration (warmup, k, violations) is rebuilt from the spec. A
  /// checkpoint falls between epochs, so the per-epoch counts are zero;
  /// the encoding still carries them, an armed byte and the envelope,
  /// which restate the warmup counter and totals, and a 0/1 flag per
  /// stream that restates its first-flag epoch. `load_state` rejects a
  /// nonzero count, an armed byte or envelope other than the one the
  /// warmup state gives, a warmup counter past `warmup`, a streak or flag
  /// before arming, and an unflagged stream whose streak has reached
  /// `violations`.
  void save_state(util::BinaryWriter& writer) const;
  void load_state(util::BinaryReader& reader);

 private:
  // fi-lint: not-serialized(configuration, rebuilt from the traffic spec
  // when the defense is re-created on resume)
  std::uint64_t warmup_;
  // fi-lint: not-serialized(configuration, rebuilt from the traffic spec)
  double k_;
  // fi-lint: not-serialized(configuration, rebuilt from the traffic spec)
  std::uint64_t violations_;

  /// Offered requests per stream in the open epoch; `end_epoch` zeroes it.
  std::vector<std::uint64_t> epoch_counts_;
  std::vector<std::uint64_t> warmup_totals_;
  /// Warmup epochs closed, at most `warmup_`.
  std::uint64_t epochs_seen_ = 0;
  /// Fixed from the warmup totals on arming; 0 before.
  double envelope_ = 0.0;
  std::vector<std::uint64_t> streaks_;
  /// A stream is flagged iff its entry is not `kNeverFlagged`.
  std::vector<std::uint64_t> first_flag_epoch_;
};

}  // namespace fi::traffic

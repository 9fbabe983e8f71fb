#pragma once

#include <cstdint>
#include <string>

#include "api/comparison.h"
#include "util/status.h"
#include "util/types.h"

/// A Table IV competitor row: one `src/baselines/` model run to completion,
/// so one experiment plan can mix full FileInsurer simulations (its only
/// model: the protocol engine) and baseline models and aggregate them into
/// a single FileInsurer-vs-world table.
///
/// The run places the workload, runs `epochs` λ-capacity corruption trials
/// on that placement, then one Sybil single-disk-failure episode.
/// Everything streams from `seed`, so a baseline row is as replayable as a
/// scenario row.
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

/// Runs `spec` and returns its row for plan node `node`: mean loss and
/// compensation over the trials, the Sybil episode's loss, the storage
/// overhead, the protocol's Table IV columns, and `state_hash`, a SHA-256
/// over the protocol, the spec knobs and every trial's outcome.
[[nodiscard]] util::Result<ComparisonRow> run_baseline(
    const BaselineSpec& spec, const std::string& node);

}  // namespace fi

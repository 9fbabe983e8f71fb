#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/prng.h"
#include "util/types.h"

/// Common interface for the competitor DSN models of Table IV: Filecoin,
/// Arweave, Storj and Sia. FileInsurer's own rows run the protocol engine
/// (scenario nodes in plans/table4.plan). Table IV is qualitative in the
/// paper; these models let the comparison *measure* each competitor cell —
/// loss under a λ-capacity corruption, compensation paid, and the effect of
/// a Sybil attacker backing many identities with one physical disk.
namespace fi::baselines {

struct WorkloadFile {
  ByteCount size = 1024;
  TokenAmount value = 100;
};

/// Result of one corruption episode (placement is kept, corruption is
/// transient so trials are repeatable).
struct CorruptionOutcome {
  double lost_value_fraction = 0.0;  ///< lost value / total stored value
  double compensated_fraction = 0.0; ///< compensation paid / lost value
};

class DsnProtocol {
 public:
  virtual ~DsnProtocol() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Builds a network of `sectors` equal units and places `files`.
  virtual void setup(std::uint32_t sectors,
                     const std::vector<WorkloadFile>& files,
                     std::uint64_t seed) = 0;

  /// Corrupts a uniformly random λ fraction of storage units.
  virtual CorruptionOutcome corrupt_random(double lambda) = 0;

  /// Sybil scenario: an attacker advertises `identity_fraction` of all
  /// storage units but backs them with ONE physical disk, which fails.
  /// Protocols with PoRep force one real replica per unit, so the attacker
  /// can only actually register what it stores — modelled as a single unit
  /// failing. Without PoRep all claimed units vanish together.
  virtual CorruptionOutcome sybil_single_disk_failure(
      double identity_fraction) = 0;

  /// Fewest storage units `setup` can place a file on (the distinct
  /// holders a replication model needs, the shards an erasure code needs
  /// to survive).
  [[nodiscard]] virtual std::uint32_t min_units() const { return 1; }

  /// Bytes stored per byte of user data under the current placement
  /// (replica count for replication, n/k for erasure coding); valid after
  /// `setup`. The comparison table's overhead column.
  [[nodiscard]] virtual double storage_overhead() const = 0;

  // Table IV's static columns.
  [[nodiscard]] virtual bool capacity_scalable() const { return true; }
  [[nodiscard]] virtual bool prevents_sybil() const = 0;
  [[nodiscard]] virtual bool provable_robustness() const = 0;
  [[nodiscard]] virtual bool full_compensation() const = 0;
};

}  // namespace fi::baselines

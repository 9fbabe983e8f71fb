#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/prng.h"

/// The competitor DSN models of Table IV: Filecoin, Arweave, Storj and Sia.
/// FileInsurer's own rows run the protocol engine (scenario nodes in
/// plans/table4.plan). Table IV is qualitative in the paper; this model
/// lets the comparison *measure* each competitor cell — loss under a
/// λ-capacity corruption, compensation paid, and the effect of a Sybil
/// attacker backing many identities with one physical disk.
///
/// Every competitor reduces to one model: each file sits on a set of
/// storage units chosen once and never moved, and survives while at least
/// `survive` of them live. The four protocols differ only in the
/// constants of their row in `kProtocols`.
namespace fi::baselines {

/// One Table IV competitor.
struct Protocol {
  std::string_view key;   ///< plan key (`node.<i>.protocol`)
  std::string_view name;  ///< display name in the comparison table
  /// Distinct units holding each file (replicas, or erasure shards; capped
  /// at the unit count). 0 = each unit holds each file independently with
  /// probability `storage_fraction`, and at least one unit does.
  std::uint32_t holders = 0;
  double storage_fraction = 0.0;
  /// Live holders a file needs: 1 under replication, k for a k-of-n
  /// erasure code.
  std::uint32_t survive = 1;
  /// Share of a lost file's value paid back to its owner.
  double payback = 0.0;
  /// No proof of replication: the Sybil attacker's identities share one
  /// disk and fail together. With it, one disk backs one unit.
  bool shared_disk = false;

  /// Fewest units a placement needs: one per replica, or enough for an
  /// erasure-coded file to survive.
  [[nodiscard]] std::uint32_t min_units() const;
  // Table IV's two columns that differ between competitors; every one is
  // capacity scalable and none has provable robustness.
  [[nodiscard]] bool prevents_sybil() const { return !shared_disk; }
  [[nodiscard]] bool full_compensation() const { return payback >= 1.0; }
};

inline constexpr Protocol kProtocols[] = {
    // Storage deals with 3 distinct miners (§II-B). A faulted sector's
    // pledge is burnt; only the deal collateral flows back (Table IV's
    // "limited file loss compensation").
    {.key = "filecoin", .name = "Filecoin", .holders = 3, .payback = 0.1},
    // Contracts with 3 hosts and storage proofs, but no proof of
    // replication (§II-C2): one machine can answer for many hosts.
    {.key = "sia", .name = "Sia", .holders = 3, .shared_disk = true},
    // Reed–Solomon 29-of-80 shards on distinct nodes (§II-C1), Storj's
    // production defaults.
    {.key = "storj", .name = "Storj", .holders = 80, .survive = 29},
    // Proof of Access pays every miner to store as much of the weave as it
    // can (§II-C3); each holds each file with probability 0.05.
    {.key = "arweave", .name = "Arweave", .storage_fraction = 0.05},
};

/// The row whose `key` is `key`, or nullptr.
[[nodiscard]] const Protocol* find_protocol(std::string_view key);

/// One corruption episode's result.
struct Outcome {
  double lost_value_fraction = 0.0;   ///< lost value / stored value
  double compensated_fraction = 0.0;  ///< paid back / lost value
};

class Model {
 public:
  /// Places `files` (>= 1) files of equal value on `units` equal storage
  /// units. Placement and every later episode draw from one stream seeded
  /// here.
  Model(const Protocol& protocol, std::uint32_t units, std::uint64_t files,
        std::uint64_t seed);

  /// Corrupts ⌊λ·units⌋ distinct uniformly random units. Corruption is
  /// transient (the placement is kept), so trials repeat.
  Outcome corrupt_random(double lambda);

  /// Sybil episode: the attacker advertises `identity_fraction` of all
  /// units but backs them with one physical disk, which fails. Under a
  /// shared disk all those units fail together; otherwise the attacker
  /// could only register what it stores, so one unit fails.
  Outcome sybil_single_disk_failure(double identity_fraction);

  /// Bytes stored per byte of user data: holders per file, each holding
  /// 1/`survive` of it (replica count, or n/k for erasure coding).
  [[nodiscard]] double storage_overhead() const;

 private:
  std::vector<bool> corrupt_fraction(double fraction);
  [[nodiscard]] Outcome outcome(const std::vector<bool>& corrupted) const;

  Protocol protocol_;
  std::uint32_t units_;
  util::Xoshiro256 rng_;
  /// File f sits on holders_[ends_[f - 1] .. ends_[f]) (from 0 for f = 0).
  std::vector<std::uint32_t> holders_;
  std::vector<std::size_t> ends_;
};

}  // namespace fi::baselines

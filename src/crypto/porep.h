#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/merkle.h"
#include "util/types.h"

/// Proof-of-Replication, simulated with real verifiable structure.
///
/// Filecoin's PoRep seals data with a slow sequential encoding and proves the
/// encoding with a SNARK. We reproduce the *shape* that FileInsurer relies
/// on (paper §II-B1, §III-D):
///
///  * the sealed replica is unique per (provider, sector, nonce) — two
///    identities or two sectors cannot share one physical copy (Sybil
///    resistance);
///  * sealing is inherently sequential: block i's pad depends on sealed
///    block i-1, and a `work` factor iterates the pad hash to emulate the
///    paper's "calculation of R_D^ek ... can't be parallelized";
///  * unsealing is parallelizable (all pads derive from the known sealed
///    bytes), which is what makes replica moves cheap — the successor can
///    recover a replica from raw data via `seal` without re-proving;
///  * the "SNARK" is a transparent challenge proof: Merkle openings of
///    random (raw, sealed, previous-sealed) block triples that let the
///    verifier re-check the encoding relation at random positions.
namespace fi::crypto {

/// Identifies one replica slot. `nonce` distinguishes replicas within a
/// sector (`core::replica_nonce` of the file id and replica index).
struct ReplicaId {
  AccountId provider = 0;
  std::uint64_t sector = 0;
  std::uint64_t nonce = 0;

  auto operator<=>(const ReplicaId&) const = default;
};

/// Sealing cost/soundness parameters.
struct SealParams {
  /// Pad-hash iterations per block; scales sequential sealing cost.
  std::uint32_t work = 1;
  /// Number of challenged block triples in the seal proof.
  std::uint32_t challenges = 4;
};

/// Public encryption key `ek` for a replica, derivable by any verifier.
Hash256 derive_seal_key(const ReplicaId& id);

/// Seals raw data into a replica. Sequential in the number of blocks.
std::vector<std::uint8_t> seal(std::span<const std::uint8_t> raw,
                               const ReplicaId& id, const SealParams& params);

/// Recovers raw data from a sealed replica (parallelizable inverse).
std::vector<std::uint8_t> unseal(std::span<const std::uint8_t> sealed,
                                 const ReplicaId& id,
                                 const SealParams& params);

/// Replica commitment CommR = Merkle root over sealed blocks.
Hash256 replica_commitment(std::span<const std::uint8_t> sealed);

/// One challenged position in a seal proof.
struct SealChallengeOpening {
  std::uint64_t index = 0;
  std::vector<std::uint8_t> raw_block;
  std::vector<std::uint8_t> sealed_block;
  std::vector<std::uint8_t> prev_sealed_block;  ///< empty when index == 0
  MerkleProof raw_proof;
  MerkleProof sealed_proof;
  MerkleProof prev_sealed_proof;  ///< unused when index == 0
};

/// The SNARK substitute: binds CommD (raw data root) to CommR (sealed root)
/// under the replica's public key.
struct SealProof {
  ReplicaId id;
  Hash256 comm_d;
  Hash256 comm_r;
  std::vector<SealChallengeOpening> openings;
};

/// Produces a seal proof for a (raw, sealed) pair.
SealProof prove_seal(std::span<const std::uint8_t> raw,
                     std::span<const std::uint8_t> sealed, const ReplicaId& id,
                     const SealParams& params);

/// Verifies a seal proof: challenge derivation, Merkle openings, and the
/// sealing relation at every challenged block.
bool verify_seal(const SealProof& proof, const SealParams& params);

}  // namespace fi::crypto

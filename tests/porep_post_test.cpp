#include <gtest/gtest.h>

#include <vector>

#include "crypto/porep.h"
#include "crypto/post.h"
#include "util/prng.h"

namespace fi::crypto {
namespace {

std::vector<std::uint8_t> random_data(std::size_t size, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  return data;
}

const SealParams kParams{.work = 2, .challenges = 4};

// ---------------------------------------------------------------------------
// Sealing
// ---------------------------------------------------------------------------

TEST(PoRep, SealUnsealRoundTrip) {
  for (std::size_t size : {1u, 63u, 64u, 65u, 1000u, 4096u}) {
    const auto raw = random_data(size, size);
    const ReplicaId id{7, 3, 99};
    const auto sealed = seal(raw, id, kParams);
    ASSERT_EQ(sealed.size(), raw.size());
    EXPECT_EQ(unseal(sealed, id, kParams), raw) << "size=" << size;
  }
}

TEST(PoRep, SealedBytesDifferFromRaw) {
  const auto raw = random_data(1024, 1);
  const auto sealed = seal(raw, ReplicaId{1, 1, 1}, kParams);
  EXPECT_NE(sealed, raw);
}

TEST(PoRep, ReplicasUniquePerProvider) {
  // Sybil resistance: the same file sealed by two providers (or into two
  // sectors) yields different replicas and commitments.
  const auto raw = random_data(1024, 2);
  const auto a = seal(raw, ReplicaId{1, 5, 9}, kParams);
  const auto b = seal(raw, ReplicaId{2, 5, 9}, kParams);
  const auto c = seal(raw, ReplicaId{1, 6, 9}, kParams);
  const auto d = seal(raw, ReplicaId{1, 5, 10}, kParams);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(replica_commitment(a), replica_commitment(b));
}

TEST(PoRep, SealIsDeterministic) {
  const auto raw = random_data(512, 3);
  const ReplicaId id{4, 4, 4};
  EXPECT_EQ(seal(raw, id, kParams), seal(raw, id, kParams));
}

TEST(PoRep, WrongKeyUnsealGarbles) {
  const auto raw = random_data(512, 4);
  const auto sealed = seal(raw, ReplicaId{1, 2, 3}, kParams);
  EXPECT_NE(unseal(sealed, ReplicaId{1, 2, 4}, kParams), raw);
}

// ---------------------------------------------------------------------------
// Seal proofs (the SNARK substitute)
// ---------------------------------------------------------------------------

TEST(PoRep, ValidSealProofVerifies) {
  const auto raw = random_data(4096, 5);
  const ReplicaId id{11, 22, 33};
  const auto sealed = seal(raw, id, kParams);
  const SealProof proof = prove_seal(raw, sealed, id, kParams);
  EXPECT_EQ(proof.comm_d, merkle_root_of_data(raw));
  EXPECT_EQ(proof.comm_r, replica_commitment(sealed));
  EXPECT_TRUE(verify_seal(proof, kParams));
}

TEST(PoRep, ProofForDifferentIdentityFails) {
  // A provider cannot claim another provider's replica as its own.
  const auto raw = random_data(4096, 6);
  const ReplicaId id{11, 22, 33};
  const auto sealed = seal(raw, id, kParams);
  SealProof proof = prove_seal(raw, sealed, id, kParams);
  proof.id.provider = 12;
  EXPECT_FALSE(verify_seal(proof, kParams));
}

TEST(PoRep, UnsealedDataPassedAsReplicaFails) {
  // Storing the raw data and claiming it is a replica must not verify —
  // the encoding relation fails at the challenges.
  const auto raw = random_data(4096, 7);
  const ReplicaId id{1, 2, 3};
  SealProof forged = prove_seal(raw, raw, id, kParams);
  EXPECT_FALSE(verify_seal(forged, kParams));
}

TEST(PoRep, TamperedOpeningFails) {
  const auto raw = random_data(4096, 8);
  const ReplicaId id{1, 2, 3};
  const auto sealed = seal(raw, id, kParams);
  SealProof proof = prove_seal(raw, sealed, id, kParams);
  proof.openings[0].sealed_block[0] ^= 1;
  EXPECT_FALSE(verify_seal(proof, kParams));
}

TEST(PoRep, WrongChallengeIndexFails) {
  const auto raw = random_data(4096, 9);
  const ReplicaId id{1, 2, 3};
  const auto sealed = seal(raw, id, kParams);
  SealProof proof = prove_seal(raw, sealed, id, kParams);
  proof.openings[1].index += 1;
  EXPECT_FALSE(verify_seal(proof, kParams));
}

TEST(PoRep, ChallengeCountMismatchFails) {
  const auto raw = random_data(4096, 10);
  const ReplicaId id{1, 2, 3};
  const auto sealed = seal(raw, id, kParams);
  SealProof proof = prove_seal(raw, sealed, id, kParams);
  proof.openings.pop_back();
  EXPECT_FALSE(verify_seal(proof, kParams));
}

TEST(PoRep, HigherWorkFactorChangesSeal) {
  const auto raw = random_data(512, 11);
  const ReplicaId id{1, 2, 3};
  const SealParams slow{.work = 16, .challenges = 4};
  EXPECT_NE(seal(raw, id, kParams), seal(raw, id, slow));
  // Proof must be verified under the parameters it was produced with.
  const auto sealed = seal(raw, id, slow);
  const SealProof proof = prove_seal(raw, sealed, id, slow);
  EXPECT_TRUE(verify_seal(proof, slow));
  EXPECT_FALSE(verify_seal(proof, kParams));
}

// ---------------------------------------------------------------------------
// WindowPoSt
// ---------------------------------------------------------------------------

TEST(PoSt, ValidWindowProofVerifies) {
  const auto raw = random_data(4096, 20);
  const ReplicaId id{3, 1, 7};
  const auto sealed = seal(raw, id, kParams);
  const Hash256 beacon = hash_u64s("test/beacon", {100});
  const auto proof = prove_window(sealed, id, beacon, 100, 3);
  EXPECT_TRUE(verify_window(proof, replica_commitment(sealed), beacon, 3));
}

TEST(PoSt, StaleBeaconFails) {
  const auto raw = random_data(4096, 21);
  const ReplicaId id{3, 1, 7};
  const auto sealed = seal(raw, id, kParams);
  const Hash256 beacon_old = hash_u64s("test/beacon", {100});
  const Hash256 beacon_new = hash_u64s("test/beacon", {101});
  const auto proof = prove_window(sealed, id, beacon_old, 100, 3);
  // A proof precomputed for an old beacon cannot satisfy a new epoch.
  EXPECT_FALSE(verify_window(proof, replica_commitment(sealed), beacon_new, 3));
}

TEST(PoSt, WrongCommitmentFails) {
  const auto raw = random_data(4096, 22);
  const ReplicaId id{3, 1, 7};
  const auto sealed = seal(raw, id, kParams);
  const Hash256 beacon = hash_u64s("test/beacon", {5});
  const auto proof = prove_window(sealed, id, beacon, 5, 3);
  Hash256 other = replica_commitment(sealed);
  other.bytes[0] ^= 1;
  EXPECT_FALSE(verify_window(proof, other, beacon, 3));
}

TEST(PoSt, ProverWithoutDataCannotAnswer) {
  // Holding only a prefix of the sealed replica fails whenever a challenge
  // lands in the missing suffix; with enough challenges this is near-certain.
  const auto raw = random_data(64 * 64, 23);
  const ReplicaId id{3, 1, 7};
  const auto sealed = seal(raw, id, kParams);
  const Hash256 comm_r = replica_commitment(sealed);
  std::vector<std::uint8_t> truncated(sealed.begin(),
                                      sealed.begin() + 64 * 8);
  bool any_failure = false;
  for (std::uint64_t epoch = 0; epoch < 16 && !any_failure; ++epoch) {
    const Hash256 beacon = hash_u64s("test/beacon", {epoch});
    // The cheating prover substitutes zero blocks for missing ones.
    auto forged = prove_window(truncated, id, beacon, epoch, 4);
    forged.comm_r = comm_r;  // claims the full commitment
    if (!verify_window(forged, comm_r, beacon, 4)) any_failure = true;
  }
  EXPECT_TRUE(any_failure);
}

TEST(PoSt, ChallengesDeterministicAndBeaconSensitive) {
  const Hash256 beacon1 = hash_u64s("b", {1});
  const Hash256 beacon2 = hash_u64s("b", {2});
  const Hash256 comm = hash_u64s("c", {1});
  EXPECT_EQ(window_challenges(beacon1, comm, 8, 1000),
            window_challenges(beacon1, comm, 8, 1000));
  EXPECT_NE(window_challenges(beacon1, comm, 8, 1000),
            window_challenges(beacon2, comm, 8, 1000));
}

}  // namespace
}  // namespace fi::crypto

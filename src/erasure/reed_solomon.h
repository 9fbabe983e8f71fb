#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/status.h"

/// Systematic Reed–Solomon erasure coding over GF(2^8).
///
/// Encoding multiplies the data shards by a systematic generator matrix
/// (identity on top of a Cauchy-derived parity block), so any
/// `data_shards` of the `data_shards + parity_shards` outputs reconstruct
/// the original. No engine path calls it; bench_micro times it at the
/// Storj shape (29 data, 51 parity shards).
namespace fi::erasure {

class ReedSolomon {
 public:
  /// data_shards >= 1, parity_shards >= 0,
  /// data_shards + parity_shards <= 255.
  ReedSolomon(std::size_t data_shards, std::size_t parity_shards);

  [[nodiscard]] std::size_t data_shards() const { return data_; }
  [[nodiscard]] std::size_t parity_shards() const { return parity_; }
  [[nodiscard]] std::size_t total_shards() const { return data_ + parity_; }

  /// Encodes equally sized data shards; returns data + parity shards.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> encode(
      const std::vector<std::vector<std::uint8_t>>& data) const;

  /// Reconstructs the original data shards from any subset of shards.
  /// `shards[i]` is nullopt when shard i is lost. Fails if fewer than
  /// `data_shards` shards survive.
  [[nodiscard]] util::Result<std::vector<std::vector<std::uint8_t>>>
  reconstruct(
      const std::vector<std::optional<std::vector<std::uint8_t>>>& shards)
      const;

  /// Verifies that a full shard set is consistent with the code.
  [[nodiscard]] bool verify(
      const std::vector<std::vector<std::uint8_t>>& shards) const;

 private:
  /// Row `r` of the (total x data) generator matrix.
  [[nodiscard]] const std::vector<std::uint8_t>& row(std::size_t r) const {
    return matrix_[r];
  }

  std::size_t data_;
  std::size_t parity_;
  /// Systematic generator matrix: first `data_` rows are identity.
  std::vector<std::vector<std::uint8_t>> matrix_;
};

/// Splits `data` into `shards` equal parts (zero-padded) for encoding;
/// `joined_size` recovers the original length after reconstruction.
std::vector<std::vector<std::uint8_t>> split_into_shards(
    const std::vector<std::uint8_t>& data, std::size_t shards);

std::vector<std::uint8_t> join_shards(
    const std::vector<std::vector<std::uint8_t>>& shards,
    std::size_t joined_size);

}  // namespace fi::erasure

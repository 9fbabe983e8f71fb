#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

/// SHA-256 (FIPS 180-4), with no external crypto dependency. Everything
/// above (file Merkle roots, CIDs, state hashes and snapshot digests) keys
/// off this one primitive.
///
/// Two compression loops sit behind it: the portable FIPS 180-4 loop, and
/// on x86-64 a loop on the SHA extensions (SHA-NI), chosen once per process
/// from CPUID. Both give bit-identical digests; the portable loop is the
/// only path on other targets and on CPUs without the extensions.
namespace fi::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256();

  /// Absorbs more input.
  Sha256& update(std::span<const std::uint8_t> data);

  /// Finalizes and returns the digest. The hasher must not be reused after
  /// calling `finalize()` without `reset()`.
  Digest finalize();

  /// Restores the initial state.
  void reset();

 private:
  /// Compresses `blocks` consecutive 64-byte blocks into `state_`.
  void process_blocks(const std::uint8_t* data, std::size_t blocks);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience wrapper.
Digest sha256(std::span<const std::uint8_t> data);

/// The compression loops behind `Sha256`, exposed so tests can run both on
/// every host and compare them. Each compresses `blocks` consecutive
/// 64-byte blocks at `data` into `state` (the eight working words a..h).
namespace detail {

using State = std::array<std::uint32_t, 8>;

void compress_portable(State& state, const std::uint8_t* data,
                       std::size_t blocks);

/// True when CPUID reports the SHA extensions and SSE4.1 (always false off
/// x86-64). Detected on the first call and cached.
bool has_sha_ni();

#if defined(__x86_64__)
/// Only valid when `has_sha_ni()`.
void compress_sha_ni(State& state, const std::uint8_t* data,
                     std::size_t blocks);
#endif

}  // namespace detail

}  // namespace fi::crypto

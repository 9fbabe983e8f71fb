#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/sha256.h"

/// Canonical binary framing for snapshots (`src/snapshot`).
///
/// Every multi-byte value is written explicitly little-endian, one byte at
/// a time, so the encoding is identical on every platform regardless of
/// host endianness or struct layout. The writer either buffers the bytes
/// (snapshot bodies, forks) or, in hash-only mode, feeds them to a
/// streaming SHA-256 and keeps nothing, which makes `state_hash()` — the
/// digest of the canonical encoding — available without buffering the
/// whole image. A buffered writer hashes nothing while it encodes; its
/// `digest()` hashes the buffer on demand, so callers that never ask for
/// it (a snapshot file digests spec and body together) pay for no hash.
///
/// The reader is failure-latching: any read past the end (or a malformed
/// value such as a non-0/1 boolean) sets a sticky fail flag and returns a
/// zero value, so deserialization code can be written as straight-line
/// field reads with a single `ok()` check at the end. Length prefixes are
/// validated against the remaining input before any allocation, so a
/// truncated or hostile stream cannot trigger a huge resize.
namespace fi::util {

class BinaryWriter {
 public:
  /// `keep_bytes == false` builds a hash-only writer: bytes are digested
  /// and counted but not stored (for `state_hash()` over large states).
  /// A buffered writer (the default) stores bytes and hashes none.
  explicit BinaryWriter(bool keep_bytes = true) : keep_bytes_(keep_bytes) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// 128-bit value as (low, high) 64-bit halves.
  void u128(unsigned __int128 v);
  void i64(std::int64_t v);
  /// IEEE-754 bit pattern, little-endian (doubles in reports are exact
  /// deterministic computations, so the bit pattern is canonical).
  void f64(double v);
  void boolean(bool v);
  /// Length-prefixed (u64) raw bytes / UTF-8 string.
  void bytes(std::span<const std::uint8_t> data);
  void str(std::string_view s);
  /// Unprefixed raw bytes (fixed-size fields like 32-byte hashes).
  void raw(std::span<const std::uint8_t> data);

  /// Bytes written so far (maintained in hash-only mode too).
  [[nodiscard]] std::uint64_t size() const { return size_; }
  /// The buffered encoding (empty in hash-only mode).
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  /// SHA-256 of everything written so far (does not disturb the stream —
  /// more writes may follow). Buffered mode hashes the whole buffer on each
  /// call; hash-only mode finalizes a copy of the running hasher.
  [[nodiscard]] crypto::Digest digest() const;

 private:
  bool keep_bytes_;
  std::vector<std::uint8_t> buf_;  ///< buffered mode only
  std::uint64_t size_ = 0;
  crypto::Sha256 hasher_;  ///< hash-only mode only
};

class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  unsigned __int128 u128();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::vector<std::uint8_t> bytes();
  std::string str();
  /// Reads a u64 element count and validates `count * min_element_bytes`
  /// against the remaining input, so container loads can `reserve` safely.
  /// Returns 0 (and fails) when the count cannot possibly be satisfied.
  std::uint64_t count(std::size_t min_element_bytes);
  /// Reads exactly `out.size()` raw bytes (no length prefix).
  void raw(std::span<std::uint8_t> out);

  /// No read so far ran past the end or decoded a malformed value.
  [[nodiscard]] bool ok() const { return ok_; }
  /// Latches failure from the caller's own semantic validation (e.g. an
  /// enum byte out of range) so one end-of-load `ok()` check covers both.
  void fail() { ok_ = false; }
  /// All input consumed (trailing garbage detection).
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::uint64_t remaining() const { return data_.size() - pos_; }

 private:
  /// Takes `n` bytes, or latches failure and returns false.
  bool take(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Shared composite framings ---------------------------------------------
//
// Every snapshot encoder uses these for the two recurring shapes — a
// u64-count-prefixed sequence of 64-bit ids/counters and a named-double
// list — so the framing lives in exactly one place and cannot drift
// between call sites.

/// u64 count + one u64 per element (ids, counters).
template <typename T>
void save_u64_seq(BinaryWriter& writer, const std::vector<T>& values) {
  writer.u64(values.size());
  for (const T value : values) writer.u64(static_cast<std::uint64_t>(value));
}

template <typename T>
[[nodiscard]] std::vector<T> load_u64_seq(BinaryReader& reader) {
  std::vector<T> values;
  const std::uint64_t n = reader.count(8);
  values.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<T>(reader.u64()));
  }
  return values;
}

/// u64 count + (string, f64) per element, order preserved (report extras).
void save_named_doubles(
    BinaryWriter& writer,
    const std::vector<std::pair<std::string, double>>& values);
[[nodiscard]] std::vector<std::pair<std::string, double>> load_named_doubles(
    BinaryReader& reader);

}  // namespace fi::util

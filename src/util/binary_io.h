#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/sha256.h"

/// Canonical binary framing for snapshots (`src/snapshot`).
///
/// Every multi-byte value is written little-endian, so the encoding is
/// identical on every platform regardless of host endianness or struct
/// layout: a little-endian host copies a scalar's bytes as they are, any
/// other host assembles them one at a time.
///
/// The writer stages its output in one fixed 4 KiB block. A scalar write is
/// an inline store into that block; only when the block is full does an
/// out-of-line flush hand it to the writer's destination, and a span at
/// least one block long goes straight there after a flush. A buffered
/// writer (snapshot bodies, forks) appends each block to its byte vector;
/// a hash-only writer feeds each block — 64 SHA-256 blocks per update — to
/// a streaming SHA-256 and keeps nothing, which makes `state_hash()`, the
/// digest of the canonical encoding, available without buffering the whole
/// image. A buffered writer hashes nothing while it encodes; its `digest()`
/// hashes the buffer on demand, so callers that never ask for it (a
/// snapshot file digests spec and body together) pay for no hash.
///
/// The reader is failure-latching: any read past the end (or a malformed
/// value such as a non-0/1 boolean) sets a sticky fail flag and returns a
/// zero value, so deserialization code can be written as straight-line
/// field reads with a single `ok()` check at the end. Length prefixes are
/// validated against the remaining input before any allocation, so a
/// truncated or hostile stream cannot trigger a huge resize. Its scalar
/// reads are inline, like the writer's.
namespace fi::util {

class BinaryWriter {
 public:
  /// Bytes staged between flushes: 64 SHA-256 blocks.
  static constexpr std::size_t kStageBytes = 4096;

  /// `keep_bytes == false` builds a hash-only writer: bytes are digested
  /// and counted but not stored (for `state_hash()` over large states).
  /// A buffered writer (the default) stores bytes and hashes none.
  explicit BinaryWriter(bool keep_bytes = true) : keep_bytes_(keep_bytes) {}

  void u8(std::uint8_t v) { put_le(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  /// 128-bit value as (low, high) 64-bit halves.
  void u128(unsigned __int128 v) {
    u64(static_cast<std::uint64_t>(v));
    u64(static_cast<std::uint64_t>(v >> 64));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern, little-endian (doubles in reports are exact
  /// deterministic computations, so the bit pattern is canonical).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed (u64) raw bytes / UTF-8 string.
  void bytes(std::span<const std::uint8_t> data);
  void str(std::string_view s);
  /// Unprefixed raw bytes (fixed-size fields like 32-byte hashes).
  void raw(std::span<const std::uint8_t> data) {
    if (data.size() > kStageBytes - staged_) {
      spill(data);
      return;
    }
    if (!data.empty()) {
      std::memcpy(stage_.data() + staged_, data.data(), data.size());
    }
    staged_ += data.size();
  }

  /// Bytes written so far (maintained in hash-only mode too).
  [[nodiscard]] std::uint64_t size() const { return flushed_ + staged_; }
  /// The buffered encoding, staged tail included (empty in hash-only
  /// mode). The reference stays valid, but shows later writes only after
  /// the next `data()` call. It flushes the stage, so concurrent calls on
  /// one writer race even though it is `const`.
  [[nodiscard]] const std::vector<std::uint8_t>& data() const;
  /// SHA-256 of everything written so far (does not disturb the stream —
  /// more writes may follow). Buffered mode hashes the whole buffer on each
  /// call; hash-only mode finalizes a copy of the running hasher fed the
  /// staged tail.
  [[nodiscard]] crypto::Digest digest() const;
  /// Moves the buffered encoding out, staged tail included, without
  /// copying it (empty in hash-only mode). The writer is spent afterwards.
  [[nodiscard]] std::vector<std::uint8_t> release() &&;

 private:
  template <typename T>
  void put_le(T v) {
    std::uint8_t le[sizeof(T)];
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(le, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        le[i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
    raw(le);
  }

  /// `raw` for a span larger than the stage's free space.
  void spill(std::span<const std::uint8_t> data);
  /// Hands the staged bytes to the destination and empties the stage.
  void flush() const;
  /// Hands `data` to the destination: the buffer, or the hasher.
  void emit(std::span<const std::uint8_t> data) const;

  bool keep_bytes_;
  // `data()` flushes the staged tail into the buffer, so everything the
  // flush touches is mutable; the encoded stream itself never changes.
  mutable std::size_t staged_ = 0;
  mutable std::uint64_t flushed_ = 0;  ///< bytes handed to the destination
  mutable std::vector<std::uint8_t> buf_;  ///< buffered mode only
  mutable crypto::Sha256 hasher_;          ///< hash-only mode only
  std::array<std::uint8_t, kStageBytes> stage_{};
};

class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return get_le<std::uint8_t>(); }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  unsigned __int128 u128() {
    const std::uint64_t lo = u64();
    const std::uint64_t hi = u64();
    return (static_cast<unsigned __int128>(hi) << 64) | lo;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) ok_ = false;
    return v == 1;
  }
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
  bool take(std::size_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename T>
  T get_le() {
    if (!take(sizeof(T))) return 0;
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_.data() + pos_, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
      }
    }
    pos_ += sizeof(T);
    return v;
  }

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

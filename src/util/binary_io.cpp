#include "util/binary_io.h"

#include <bit>
#include <cstring>

namespace fi::util {

void BinaryWriter::u8(std::uint8_t v) {
  raw(std::span<const std::uint8_t>(&v, 1));
}

// Scalars assemble their little-endian bytes on the stack and go through
// raw() so the buffer or the hasher sees one bulk update per value — the
// encoding is u64-dominated, and per-byte SHA-256 updates would make
// hashing a 10^6-file state pay hundreds of millions of update calls.

void BinaryWriter::u16(std::uint16_t v) {
  const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(v),
                                 static_cast<std::uint8_t>(v >> 8)};
  raw(bytes);
}

void BinaryWriter::u32(std::uint32_t v) {
  std::uint8_t bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(bytes);
}

void BinaryWriter::u64(std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(bytes);
}

void BinaryWriter::u128(unsigned __int128 v) {
  u64(static_cast<std::uint64_t>(v));
  u64(static_cast<std::uint64_t>(v >> 64));
}

void BinaryWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void BinaryWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void BinaryWriter::boolean(bool v) { u8(v ? 1 : 0); }

void BinaryWriter::bytes(std::span<const std::uint8_t> data) {
  u64(data.size());
  raw(data);
}

void BinaryWriter::raw(std::span<const std::uint8_t> data) {
  if (keep_bytes_) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  } else {
    hasher_.update(data);
  }
  size_ += data.size();
}

void BinaryWriter::str(std::string_view s) {
  bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

crypto::Digest BinaryWriter::digest() const {
  if (keep_bytes_) return crypto::sha256(buf_);
  crypto::Sha256 copy = hasher_;  // finalize() consumes; hash a copy
  return copy.finalize();
}

bool BinaryReader::take(std::size_t n) {
  if (!ok_ || n > data_.size() - pos_) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t BinaryReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t BinaryReader::u16() {
  if (!take(2)) return 0;
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(data_[pos_++]) << (8 * i)));
  }
  return v;
}

std::uint32_t BinaryReader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t BinaryReader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

unsigned __int128 BinaryReader::u128() {
  const std::uint64_t lo = u64();
  const std::uint64_t hi = u64();
  return (static_cast<unsigned __int128>(hi) << 64) | lo;
}

std::int64_t BinaryReader::i64() { return static_cast<std::int64_t>(u64()); }

double BinaryReader::f64() { return std::bit_cast<double>(u64()); }

bool BinaryReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) ok_ = false;
  return v == 1;
}

std::vector<std::uint8_t> BinaryReader::bytes() {
  const std::uint64_t n = u64();
  if (!take(static_cast<std::size_t>(n))) return {};
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += static_cast<std::size_t>(n);
  return out;
}

std::string BinaryReader::str() {
  const std::vector<std::uint8_t> raw = bytes();
  return std::string(raw.begin(), raw.end());
}

std::uint64_t BinaryReader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = u64();
  if (!ok_) return 0;
  const std::uint64_t min_bytes = min_element_bytes == 0 ? 1 : min_element_bytes;
  if (n > remaining() / min_bytes) {
    ok_ = false;
    return 0;
  }
  return n;
}

void BinaryReader::raw(std::span<std::uint8_t> out) {
  if (out.empty()) return;
  if (!take(out.size())) {
    std::memset(out.data(), 0, out.size());
    return;
  }
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
}

void save_named_doubles(
    BinaryWriter& writer,
    const std::vector<std::pair<std::string, double>>& values) {
  writer.u64(values.size());
  for (const auto& [name, value] : values) {
    writer.str(name);
    writer.f64(value);
  }
}

std::vector<std::pair<std::string, double>> load_named_doubles(
    BinaryReader& reader) {
  std::vector<std::pair<std::string, double>> values;
  const std::uint64_t n = reader.count(16);
  values.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = reader.str();
    const double value = reader.f64();
    values.emplace_back(std::move(name), value);
  }
  return values;
}

}  // namespace fi::util

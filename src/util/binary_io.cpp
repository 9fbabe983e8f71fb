#include "util/binary_io.h"

#include <cstring>

namespace fi::util {

void BinaryWriter::bytes(std::span<const std::uint8_t> data) {
  u64(data.size());
  raw(data);
}

void BinaryWriter::str(std::string_view s) {
  bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void BinaryWriter::spill(std::span<const std::uint8_t> data) {
  if (data.size() >= kStageBytes) {
    flush();
    emit(data);
    return;
  }
  // Top the stage up to a whole block, flush it, and stage the rest.
  const std::size_t head = kStageBytes - staged_;
  std::memcpy(stage_.data() + staged_, data.data(), head);
  staged_ = kStageBytes;
  flush();
  std::memcpy(stage_.data(), data.data() + head, data.size() - head);
  staged_ = data.size() - head;
}

void BinaryWriter::flush() const {
  emit(std::span<const std::uint8_t>(stage_.data(), staged_));
  staged_ = 0;
}

void BinaryWriter::emit(std::span<const std::uint8_t> data) const {
  if (keep_bytes_) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  } else {
    hasher_.update(data);
  }
  flushed_ += data.size();
}

const std::vector<std::uint8_t>& BinaryWriter::data() const {
  if (keep_bytes_) flush();
  return buf_;
}

crypto::Digest BinaryWriter::digest() const {
  if (keep_bytes_) return crypto::sha256(data());
  crypto::Sha256 copy = hasher_;  // finalize() consumes; hash a copy
  copy.update(std::span<const std::uint8_t>(stage_.data(), staged_));
  return copy.finalize();
}

std::vector<std::uint8_t> BinaryWriter::release() && {
  flush();
  return std::move(buf_);
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

#include "snapshot/snapshot.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "crypto/sha256.h"
#include "util/binary_io.h"
#include "util/config.h"
#include "util/hex.h"

namespace fi::snapshot {

namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

crypto::Digest payload_digest(std::span<const std::uint8_t> spec,
                              std::span<const std::uint8_t> body) {
  crypto::Sha256 hasher;
  hasher.update(spec);
  hasher.update(body);
  return hasher.finalize();
}

}  // namespace

std::vector<std::uint8_t> encode_state(const scenario::ScenarioRunner& runner) {
  util::BinaryWriter writer;
  runner.save_state(writer);
  return std::move(writer).release();
}

std::string state_hash(const scenario::ScenarioRunner& runner) {
  util::BinaryWriter writer(/*keep_bytes=*/false);
  runner.save_state(writer);
  const crypto::Digest digest = writer.digest();
  return util::to_hex(digest);
}

util::Status save_to_file(const scenario::ScenarioRunner& runner,
                          const std::string& path) {
  const std::string spec_text = runner.spec().to_config_string();
  const std::vector<std::uint8_t> body = encode_state(runner);
  const crypto::Digest digest = payload_digest(as_bytes(spec_text), body);

  util::BinaryWriter header;
  header.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic)));
  header.u32(kFormatVersion);
  header.str(spec_text);
  header.u64(body.size());
  header.raw(digest);

  // The file is written beside `path` and renamed over it, so a run killed
  // mid-write still leaves the previous checkpoint at `path` whole.
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::err(util::ErrorCode::unavailable,
                     "cannot open snapshot file for writing: " + tmp);
  }
  out.write(reinterpret_cast<const char*>(header.data().data()),
            static_cast<std::streamsize>(header.data().size()));
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  out.close();
  std::error_code ec;
  if (!out.good()) {
    std::filesystem::remove(tmp, ec);
    return util::err(util::ErrorCode::unavailable,
                     "failed to write snapshot file: " + tmp);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const std::string reason = ec.message();
    std::filesystem::remove(tmp, ec);
    return util::err(util::ErrorCode::unavailable,
                     "cannot move snapshot file into place: " + path + ": " +
                         reason);
  }
  return util::Status::ok();
}

util::Result<Snapshot> parse(std::span<const std::uint8_t> raw,
                             const std::string& origin) {
  util::BinaryReader reader(raw);
  std::uint8_t magic[sizeof(kMagic)];
  reader.raw(magic);
  if (!reader.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + " is not a FileInsurer snapshot (bad magic)");
  }
  const std::uint32_t version = reader.u32();
  if (reader.ok() && version != kFormatVersion) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + ": unsupported snapshot format version " +
                         std::to_string(version) + " (this build reads " +
                         std::to_string(kFormatVersion) + ")");
  }
  const std::string spec_text = reader.str();
  const std::uint64_t body_len = reader.u64();
  crypto::Digest stored_digest;
  reader.raw(stored_digest);
  if (!reader.ok() || reader.remaining() != body_len) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + ": truncated or malformed snapshot (body length "
                              "does not match the header)");
  }
  std::vector<std::uint8_t> body(
      raw.end() - static_cast<std::ptrdiff_t>(body_len), raw.end());
  if (payload_digest(as_bytes(spec_text), body) != stored_digest) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + ": snapshot digest mismatch (corrupted file)");
  }

  auto config = util::Config::parse(spec_text);
  if (!config.is_ok()) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + ": embedded spec does not parse: " +
                         config.status().to_string());
  }
  auto spec = scenario::ScenarioSpec::from_config(config.value());
  if (!spec.is_ok()) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + ": embedded spec invalid: " +
                         spec.status().to_string());
  }
  return Snapshot{std::move(spec).value(), std::move(body)};
}

util::Result<Snapshot> read_file(const std::string& path) {
  // Only a regular file is read, in one call, into a buffer sized by the
  // file system. A directory opens as an ifstream too, but reading it fails
  // and its stream offsets are meaningless.
  std::error_code ec;
  const std::filesystem::file_type type =
      std::filesystem::status(path, ec).type();
  if (type == std::filesystem::file_type::not_found) {
    return util::err(util::ErrorCode::not_found,
                     "cannot open snapshot file: " + path);
  }
  if (ec) {
    return util::err(util::ErrorCode::unavailable,
                     "cannot stat snapshot file " + path + ": " + ec.message());
  }
  if (type != std::filesystem::file_type::regular) {
    return util::err(util::ErrorCode::invalid_argument,
                     "snapshot path is not a regular file: " + path);
  }
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    return util::err(util::ErrorCode::unavailable,
                     "cannot size snapshot file " + path + ": " + ec.message());
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::err(util::ErrorCode::not_found,
                     "cannot open snapshot file: " + path);
  }
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size()));
  if (static_cast<std::uintmax_t>(in.gcount()) != size) {
    return util::err(util::ErrorCode::unavailable,
                     "short read of snapshot file " + path + ": " +
                         std::to_string(in.gcount()) + " of " +
                         std::to_string(size) + " bytes");
  }
  return parse(raw, path);
}

}  // namespace fi::snapshot

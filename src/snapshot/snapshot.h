#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/status.h"

/// Versioned checkpoint/restore of a whole scenario run (`fi_sim
/// --save/--load`, the CI golden-hash gate, and every future long-horizon
/// or segmented experiment).
///
/// File layout (all integers little-endian, via `util::BinaryWriter`):
///
///     magic    8 bytes   "FISNAP01"
///     version  u32       kFormatVersion
///     spec     u64 len + bytes   the run's spec, as config text
///     body_len u64
///     digest   32 bytes  SHA-256(spec bytes || body bytes)
///     body     body_len bytes    ScenarioRunner::save_state encoding
///
/// The digest makes truncation and bit corruption detectable before any
/// state is deserialized; the embedded spec makes a snapshot
/// self-describing (`--load` needs no `--scenario`).
///
/// The *body* is the canonical state encoding: deterministic and free of
/// wall-clock values. Its SHA-256 — `state_hash()` — is therefore a
/// replayable fingerprint of the entire simulation: equal specs and equal
/// epochs give equal hashes on every machine and save/load history, which
/// is the invariant the CI golden-hashes job pins
/// (`tests/golden/state_hashes.txt`). Specs written by older builds may
/// carry keys this build ignores (`ScenarioSpec::from_config`'s retired
/// keys, such as `engine.workers`); their snapshots load unchanged.
namespace fi::snapshot {

inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr char kMagic[8] = {'F', 'I', 'S', 'N', 'A', 'P', '0', '1'};

/// The canonical state body (buffered; prefer `state_hash` when only the
/// fingerprint is needed).
[[nodiscard]] std::vector<std::uint8_t> encode_state(
    const scenario::ScenarioRunner& runner);

/// Lower-case hex SHA-256 of the canonical state body, computed
/// streamingly (no full buffering).
[[nodiscard]] std::string state_hash(const scenario::ScenarioRunner& runner);

/// Writes a snapshot file for the runner's current state. The runner must
/// be at a checkpoint-safe point — between proof cycles (after
/// `run_cycles` returned) or after `run()` returned. The body is encoded
/// into a buffered writer, which hashes nothing, and digested once with
/// the spec. The file is written to `<path>.tmp` in the same directory and
/// renamed over `path` once the stream is good, so overwriting a
/// checkpoint (`fi_sim --save-every`) never leaves a torn file at `path`.
/// On failure `path` keeps its old contents, a temporary file this call
/// wrote is removed, and an error status is returned.
util::Status save_to_file(const scenario::ScenarioRunner& runner,
                          const std::string& path);

/// A validated snapshot: spec text already parsed, body digest-verified.
struct Snapshot {
  scenario::ScenarioSpec spec;
  std::vector<std::uint8_t> body;
};

/// Validates an in-memory snapshot image: magic, version, framing lengths,
/// digest, and spec parse. Rejects truncated, corrupted and wrong-version
/// images with a descriptive status; `origin` labels the error messages.
/// This is the whole untrusted-input surface — `read_file` is a thin file
/// loader over it, and tests/fuzz_snapshot_reader.cpp drives it directly.
[[nodiscard]] util::Result<Snapshot> parse(
    std::span<const std::uint8_t> raw, const std::string& origin);

/// Reads and validates a snapshot file: magic, version, framing lengths,
/// digest, and spec parse. Rejects truncated, corrupted and wrong-version
/// files with a descriptive status, as well as a path that is not a
/// regular file (a directory, say). The file is read with one call into a
/// buffer sized by the file system.
[[nodiscard]] util::Result<Snapshot> read_file(const std::string& path);

}  // namespace fi::snapshot

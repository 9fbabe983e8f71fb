// Snapshot/resume coverage: binary framing primitives, snapshot-file
// validation (truncation, corruption, wrong version), and the headline
// invariant — for every shipped config shape, save at an epoch E, load,
// and continue: the final report JSON and the canonical state hash must be
// byte-identical to the uninterrupted run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "adversary/strategy.h"
#include "api/session.h"
#include "crypto/sha256.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "snapshot/snapshot.h"
#include "util/binary_io.h"
#include "util/config.h"
#include "util/hex.h"

namespace fi {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Binary framing
// ---------------------------------------------------------------------------

TEST(BinaryIo, PrimitivesRoundTrip) {
  util::BinaryWriter writer;
  writer.u8(0xab);
  writer.u16(0x1234);
  writer.u32(0xdeadbeef);
  writer.u64(0x0123456789abcdefULL);
  writer.u128((static_cast<unsigned __int128>(7) << 64) | 11u);
  writer.i64(-42);
  writer.f64(0.6180339887498949);
  writer.boolean(true);
  writer.boolean(false);
  writer.str("fileinsurer");
  writer.bytes(std::vector<std::uint8_t>{1, 2, 3});

  util::BinaryReader reader(writer.data());
  EXPECT_EQ(reader.u8(), 0xab);
  EXPECT_EQ(reader.u16(), 0x1234);
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
  const unsigned __int128 wide = reader.u128();
  EXPECT_EQ(static_cast<std::uint64_t>(wide), 11u);
  EXPECT_EQ(static_cast<std::uint64_t>(wide >> 64), 7u);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_EQ(reader.f64(), 0.6180339887498949);
  EXPECT_TRUE(reader.boolean());
  EXPECT_FALSE(reader.boolean());
  EXPECT_EQ(reader.str(), "fileinsurer");
  EXPECT_EQ(reader.bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.exhausted());
}

TEST(BinaryIo, EncodingIsExplicitLittleEndian) {
  util::BinaryWriter writer;
  writer.u32(0x04030201u);
  ASSERT_EQ(writer.data().size(), 4u);
  EXPECT_EQ(writer.data()[0], 0x01);
  EXPECT_EQ(writer.data()[1], 0x02);
  EXPECT_EQ(writer.data()[2], 0x03);
  EXPECT_EQ(writer.data()[3], 0x04);
}

TEST(BinaryIo, ReadPastEndLatchesFailure) {
  util::BinaryWriter writer;
  writer.u32(5);
  util::BinaryReader reader(writer.data());
  (void)reader.u32();
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.u64(), 0u);  // past the end: zero value, sticky failure
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.u8(), 0u);
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryIo, HostileLengthPrefixIsRejectedBeforeAllocation) {
  util::BinaryWriter writer;
  writer.u64(~0ull);  // claims ~2^64 elements
  util::BinaryReader reader(writer.data());
  EXPECT_EQ(reader.count(8), 0u);
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryIo, MalformedBooleanFails) {
  const std::uint8_t raw[1] = {2};
  util::BinaryReader reader(raw);
  (void)reader.boolean();
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryIo, HashOnlyWriterMatchesBufferedDigest) {
  util::BinaryWriter buffered;
  util::BinaryWriter hashing(/*keep_bytes=*/false);
  for (util::BinaryWriter* w : {&buffered, &hashing}) {
    w->u64(123456789);
    w->str("streaming state hash");
    w->f64(2.718281828459045);
  }
  EXPECT_TRUE(hashing.data().empty());
  EXPECT_EQ(hashing.size(), buffered.size());
  EXPECT_EQ(hashing.digest(), buffered.digest());
}

TEST(BinaryIo, StagedWritesMatchAcrossBlockBoundaries) {
  // Raw spans shorter than, equal to and longer than one 4 KiB stage, at
  // odd stage offsets, each followed by a run of scalars long enough to
  // straddle a flush. data() and digest() are called mid-stream, and the
  // writes after them must carry on as if they had not been.
  util::BinaryWriter buffered;
  util::BinaryWriter hashing(/*keep_bytes=*/false);
  std::vector<std::uint8_t> expected;
  const auto expect_le = [&](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      expected.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  std::uint8_t fill = 0;
  for (const std::size_t length :
       {std::size_t{1}, std::size_t{31}, std::size_t{4095}, std::size_t{4096},
        std::size_t{4097}, std::size_t{3 * 4096 + 5}}) {
    std::vector<std::uint8_t> span(length);
    for (std::uint8_t& b : span) b = fill++;
    for (util::BinaryWriter* w : {&buffered, &hashing}) {
      w->u8(0xa5);
      w->u32(static_cast<std::uint32_t>(length));
      w->raw(span);
      for (std::uint64_t i = 0; i < 700; ++i) {
        w->u64(i * 0x0101010101010101ULL + length);
        w->u16(static_cast<std::uint16_t>(i));
      }
    }
    expect_le(0xa5, 1);
    expect_le(length, 4);
    expected.insert(expected.end(), span.begin(), span.end());
    for (std::uint64_t i = 0; i < 700; ++i) {
      expect_le(i * 0x0101010101010101ULL + length, 8);
      expect_le(i, 2);
    }
    ASSERT_EQ(buffered.data(), expected) << "after the " << length
                                         << "-byte span";
    EXPECT_EQ(buffered.size(), expected.size());
    EXPECT_EQ(hashing.size(), buffered.size());
    EXPECT_EQ(buffered.digest(), crypto::sha256(expected));
    EXPECT_EQ(hashing.digest(), crypto::sha256(buffered.data()));
  }
  EXPECT_TRUE(hashing.data().empty());
}

// ---------------------------------------------------------------------------
// Scenario fixtures
// ---------------------------------------------------------------------------

/// Directory holding the shipped configs (set by CMake).
#ifndef FI_CONFIG_DIR
#error "FI_CONFIG_DIR must be defined by the build"
#endif

std::vector<fs::path> shipped_configs() {
  std::vector<fs::path> configs;
  for (const auto& entry : fs::directory_iterator(FI_CONFIG_DIR)) {
    if (entry.path().extension() == ".cfg") configs.push_back(entry.path());
  }
  std::sort(configs.begin(), configs.end());
  return configs;
}

/// A shipped config as written.
scenario::ScenarioSpec shipped_spec(const fs::path& config) {
  auto loaded = util::Config::load(config.string());
  EXPECT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  auto parsed = scenario::ScenarioSpec::from_config(loaded.value());
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  return std::move(parsed).value();
}

/// Scales a shipped config down to unit-test size while keeping its shape:
/// every phase kind, adversary strategy and knob combination survives, so
/// the round-trip suite exercises exactly the structures each config
/// stresses (mid-attack member lists, captivity streaks, audit periods)
/// without CI-scale populations.
scenario::ScenarioSpec shrunk_spec(const fs::path& config) {
  scenario::ScenarioSpec spec = shipped_spec(config);
  spec.sectors = std::min<std::uint64_t>(spec.sectors, 80);
  spec.initial_files = std::min<std::uint64_t>(spec.initial_files, 120);
  for (scenario::PhaseSpec& phase : spec.phases) {
    phase.cycles = std::min<std::uint64_t>(phase.cycles, 6);
    phase.periods = std::min<std::uint64_t>(phase.periods, 1);
    phase.adds_per_cycle = std::min<std::uint64_t>(phase.adds_per_cycle, 8);
    phase.add_sectors = std::min<std::uint64_t>(phase.add_sectors, 10);
  }
  for (adversary::AdversarySpec& adv : spec.adversaries) {
    adv.start_epoch = std::min<std::uint64_t>(adv.start_epoch, 1);
    adv.sectors = std::min<std::uint64_t>(adv.sectors, 6);
    adv.requests_per_epoch =
        std::min<std::uint64_t>(adv.requests_per_epoch, 12);
  }
  if (spec.traffic.enabled) {
    spec.traffic.requests_per_cycle =
        std::min<std::uint64_t>(spec.traffic.requests_per_cycle, 48);
    if (spec.traffic.defense_enabled) {
      spec.traffic.defense_warmup =
          std::min<std::uint64_t>(spec.traffic.defense_warmup, 2);
    }
  }
  return spec;
}

std::uint64_t total_epochs(const scenario::ScenarioSpec& spec) {
  std::uint64_t cycles = 0;
  for (const scenario::PhaseSpec& phase : spec.phases) {
    cycles += phase.kind == scenario::PhaseKind::rent_audit
                  ? phase.periods * spec.params.rent_period_cycles
                  : phase.cycles;
  }
  return cycles;
}

struct RunOutcome {
  std::string report_json;
  std::string state_hash;
};

RunOutcome run_to_completion(scenario::ScenarioSpec spec) {
  scenario::ScenarioRunner runner(std::move(spec));
  const std::string json = runner.run().to_json();
  return {json, snapshot::state_hash(runner)};
}

fs::path temp_snapshot_path(const std::string& tag) {
  return fs::path(::testing::TempDir()) / ("fi_" + tag + ".fisnap");
}

/// The headline invariant: run uninterrupted; run again saving at
/// `save_epoch`; resume from the file and finish. All three reports and
/// both state hashes must match byte for byte.
void expect_save_load_identity(const scenario::ScenarioSpec& spec,
                               std::uint64_t save_epoch,
                               const std::string& tag) {
  const RunOutcome uninterrupted = run_to_completion(spec);

  const fs::path path = temp_snapshot_path(tag);
  {
    scenario::ScenarioRunner saver(spec);
    ASSERT_EQ(saver.run_cycles(save_epoch), save_epoch)
        << tag << ": save_epoch never reached";
    const auto status = snapshot::save_to_file(saver, path.string());
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    // Saving must not perturb the saving run itself.
    EXPECT_EQ(saver.run().to_json(), uninterrupted.report_json) << tag;
  }

  auto resumed = Session::from_snapshot_file(path.string());
  ASSERT_TRUE(resumed.is_ok()) << tag << ": " << resumed.status().to_string();
  Session& session = resumed.value();
  EXPECT_EQ(session.epoch(), save_epoch) << tag;
  EXPECT_EQ(session.report().to_json(), uninterrupted.report_json) << tag;
  EXPECT_EQ(session.state_hash(), uninterrupted.state_hash) << tag;
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Round-trips across every shipped config shape
// ---------------------------------------------------------------------------

TEST(SnapshotRoundTrip, EveryShippedConfigAtSeveralEpochs) {
  const std::vector<fs::path> configs = shipped_configs();
  ASSERT_GE(configs.size(), 13u) << "configs/ directory not found or empty";
  for (const fs::path& config : configs) {
    const scenario::ScenarioSpec spec = shrunk_spec(config);
    const std::uint64_t epochs = total_epochs(spec);
    ASSERT_GE(epochs, 2u) << config;
    const std::string name = config.stem().string();
    // Early (mid-attack for adversary configs: start_epoch is shrunk to
    // ≤1) and late save points.
    expect_save_load_identity(spec, 2, name + "_e2");
    expect_save_load_identity(spec, epochs - 1, name + "_late");
  }
}

TEST(SnapshotRoundTrip, PeriodicCheckpointsAllResume) {
  // checkpoint-every-N flavor: each overwrite is itself a valid resume
  // point; the last one written must resume to the identical report.
  scenario::ScenarioSpec spec =
      shrunk_spec(fs::path(FI_CONFIG_DIR) / "smoke.cfg");
  const RunOutcome uninterrupted = run_to_completion(spec);
  const fs::path path = temp_snapshot_path("periodic");
  std::uint64_t saves = 0;
  {
    scenario::ScenarioRunner saver(spec);
    while (saver.run_cycles(1) == 1) {
      if (saver.epoch() % 2 == 0) {
        ASSERT_TRUE(snapshot::save_to_file(saver, path.string()).is_ok());
        ++saves;
      }
    }
  }
  EXPECT_GE(saves, 2u);
  auto resumed = Session::from_snapshot_file(path.string());
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().report().to_json(), uninterrupted.report_json);
  fs::remove(path);
}

TEST(SnapshotRoundTrip, HighChurnCheckpointsResume) {
  // Near-total discards every cycle: the ids issued far outnumber the files
  // left, so each checkpoint's allocation window starts far past id 1 and
  // has trimmed the ids of the files that left.
  scenario::ScenarioSpec spec =
      shrunk_spec(fs::path(FI_CONFIG_DIR) / "smoke.cfg");
  ASSERT_EQ(spec.phases[0].kind, scenario::PhaseKind::churn);
  constexpr std::uint64_t kChurnCycles = 40;
  spec.phases[0].discard_fraction = 0.9;
  spec.phases[0].cycles = kChurnCycles;
  {
    scenario::ScenarioRunner runner(spec);
    ASSERT_EQ(runner.run_cycles(kChurnCycles), kChurnCycles);
    const core::Network& net = runner.network();
    // Every issued id went to one file_add, so next_file_id - 1 of them.
    EXPECT_GE(net.stats().files_added, 20 * net.file_count());
    EXPECT_LT(20 * net.allocations().window_size(), net.stats().files_added);
  }
  for (const std::uint64_t save_epoch : {8u, 20u, 32u, 40u}) {
    expect_save_load_identity(spec, save_epoch,
                              "high_churn_e" + std::to_string(save_epoch));
  }
}

// ---------------------------------------------------------------------------
// Snapshots written by older builds
// ---------------------------------------------------------------------------

/// A FISNAP01 image framed as `save_to_file` frames one, with the digest
/// computed over the given spec text and body.
std::vector<std::uint8_t> snapshot_image(
    const std::string& spec_text, const std::vector<std::uint8_t>& body) {
  const std::span<const std::uint8_t> spec_bytes(
      reinterpret_cast<const std::uint8_t*>(spec_text.data()),
      spec_text.size());
  crypto::Sha256 digest;
  digest.update(spec_bytes);
  digest.update(body);
  util::BinaryWriter image;
  image.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(snapshot::kMagic),
      sizeof(snapshot::kMagic)));
  image.u32(snapshot::kFormatVersion);
  image.str(spec_text);
  image.u64(body.size());
  image.raw(digest.finalize());
  image.raw(body);
  return image.data();
}

TEST(SnapshotCompat, RetiredEngineWorkersKeyStillResumes) {
  // Snapshots written while the engine had a sweep thread pool embed
  // `engine.workers = <n>` right after `seed` in their spec text. Every
  // one written while the engine simulated proofs embeds
  // `net.verify_proofs = false` and `net.post_challenges = 2` right after
  // `net.admission_rebalance`, and every one written while specs had a
  // capacity-replica size embeds `net.cr_size = 16384` after those. Such
  // an image must still parse and continue byte-identically.
  const scenario::ScenarioSpec spec =
      shrunk_spec(fs::path(FI_CONFIG_DIR) / "smoke.cfg");
  const RunOutcome uninterrupted = run_to_completion(spec);

  std::vector<std::uint8_t> body;
  {
    scenario::ScenarioRunner saver(spec);
    ASSERT_EQ(saver.run_cycles(3), 3u);
    body = snapshot::encode_state(saver);
  }
  ASSERT_FALSE(body.empty());
  std::string spec_text = spec.to_config_string();
  const std::string seed_line = "seed = " + std::to_string(spec.seed) + "\n";
  const std::size_t seed_at = spec_text.find(seed_line);
  ASSERT_NE(seed_at, std::string::npos);
  spec_text.insert(seed_at + seed_line.size(), "engine.workers = 8\n");
  const std::size_t rebalance_at = spec_text.find("net.admission_rebalance = ");
  ASSERT_NE(rebalance_at, std::string::npos);
  spec_text.insert(spec_text.find('\n', rebalance_at) + 1,
                   "net.verify_proofs = false\n"
                   "net.post_challenges = 2\n"
                   "net.cr_size = 16384\n");

  auto parsed = snapshot::parse(snapshot_image(spec_text, body), "old image");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  snapshot::Snapshot snap = std::move(parsed).value();
  // Ignored, and not re-emitted.
  EXPECT_EQ(snap.spec.to_config_string(), spec.to_config_string());
  util::BinaryReader reader(snap.body);
  auto resumed = scenario::ScenarioRunner::resume(std::move(snap.spec), reader);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  scenario::ScenarioRunner& runner = *resumed.value();
  EXPECT_EQ(runner.epoch(), 3u);
  EXPECT_EQ(runner.run().to_json(), uninterrupted.report_json);
  EXPECT_EQ(snapshot::state_hash(runner), uninterrupted.state_hash);
}

TEST(SnapshotCompat, CheckpointFileBytesArePinned) {
  // save_to_file and parse compute the payload digest with one helper, so
  // a change to the framing or the digest that moves both sides together
  // passes every round trip above, yet no snapshot written before it
  // loads any more. Pin the SHA-256 of a whole checkpoint file instead.
  const fs::path path = temp_snapshot_path("pinned_bytes");
  {
    scenario::ScenarioRunner saver(
        shrunk_spec(fs::path(FI_CONFIG_DIR) / "smoke.cfg"));
    ASSERT_EQ(saver.run_cycles(3), 3u);
    ASSERT_TRUE(snapshot::save_to_file(saver, path.string()).is_ok());
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>());
  in.close();
  fs::remove(path);
  EXPECT_EQ(file.size(), 61642u);
  EXPECT_EQ(util::to_hex(crypto::sha256(file)),
            "9f171cefe36f7f720e2aa016996bfed9784a0c1b9c98f8457a22b17a5e172b58");
}

// ---------------------------------------------------------------------------
// Rejection of bad snapshot files
// ---------------------------------------------------------------------------

class SnapshotFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = shrunk_spec(fs::path(FI_CONFIG_DIR) / "smoke.cfg");
    // Per-test path: ctest runs each case as its own process, possibly in
    // parallel, and a shared file would race SetUp against TearDown.
    path_ = temp_snapshot_path(
        std::string("tamper_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    scenario::ScenarioRunner saver(spec_);
    ASSERT_EQ(saver.run_cycles(2), 2u);
    ASSERT_TRUE(snapshot::save_to_file(saver, path_.string()).is_ok());
    ASSERT_TRUE(fs::exists(path_));
    std::ifstream in(path_, std::ios::binary);
    raw_.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }

  void TearDown() override { fs::remove(path_); }

  void write_raw(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  scenario::ScenarioSpec spec_;
  fs::path path_;
  std::vector<char> raw_;
};

TEST_F(SnapshotFileTest, IntactFileResumes) {
  EXPECT_TRUE(Session::from_snapshot_file(path_.string()).is_ok());
}

TEST_F(SnapshotFileTest, FailedOverwriteKeepsThePreviousCheckpoint) {
  // save_to_file writes `<path>.tmp` and renames it over the path, so a
  // save that cannot finish leaves the last good checkpoint whole.
  const fs::path tmp = path_.string() + ".tmp";
  EXPECT_FALSE(fs::exists(tmp)) << "a successful save left its temporary file";
  scenario::ScenarioRunner saver(spec_);
  ASSERT_EQ(saver.run_cycles(3), 3u);
  ASSERT_TRUE(fs::create_directory(tmp));  // the temporary file cannot open
  const util::Status blocked = snapshot::save_to_file(saver, path_.string());
  fs::remove(tmp);
  EXPECT_FALSE(blocked.is_ok());
  std::ifstream in(path_, std::ios::binary);
  const std::vector<char> kept((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
  in.close();
  EXPECT_EQ(kept, raw_);
  auto resumed = Session::from_snapshot_file(path_.string());
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().epoch(), 2u);

  // With the way clear, the overwrite lands and cleans up after itself.
  ASSERT_TRUE(snapshot::save_to_file(saver, path_.string()).is_ok());
  EXPECT_FALSE(fs::exists(tmp));
  auto overwritten = Session::from_snapshot_file(path_.string());
  ASSERT_TRUE(overwritten.is_ok()) << overwritten.status().to_string();
  EXPECT_EQ(overwritten.value().epoch(), 3u);
}

TEST_F(SnapshotFileTest, MissingFileIsRejected) {
  const auto result = Session::from_snapshot_file(path_.string() + ".nope");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), util::ErrorCode::not_found);
}

TEST_F(SnapshotFileTest, DirectoryIsRejected) {
  // A directory opens as an ifstream, but reading it fails; the reader
  // must say so with a status rather than throw or size a buffer from it.
  const fs::path dir = path_.string() + ".d";
  fs::create_directory(dir);
  const auto read = snapshot::read_file(dir.string());
  const auto resumed = Session::from_snapshot_file(dir.string());
  fs::remove(dir);
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.status().code(), util::ErrorCode::invalid_argument);
  EXPECT_NE(read.status().message().find("not a regular file"),
            std::string::npos);
  EXPECT_FALSE(resumed.is_ok());
}

TEST_F(SnapshotFileTest, BadMagicIsRejected) {
  raw_[0] ^= 0x5a;
  write_raw(raw_);
  const auto result = Session::from_snapshot_file(path_.string());
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);
}

TEST_F(SnapshotFileTest, WrongVersionIsRejected) {
  raw_[8] = 99;  // version u32 follows the 8-byte magic
  write_raw(raw_);
  const auto result = Session::from_snapshot_file(path_.string());
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST_F(SnapshotFileTest, TruncationIsRejected) {
  for (const std::size_t keep :
       {raw_.size() - 1, raw_.size() / 2, std::size_t{40}, std::size_t{3}}) {
    std::vector<char> cut(raw_.begin(),
                          raw_.begin() + static_cast<std::ptrdiff_t>(keep));
    write_raw(cut);
    EXPECT_FALSE(Session::from_snapshot_file(path_.string()).is_ok())
        << "accepted a file truncated to " << keep << " bytes";
  }
}

TEST_F(SnapshotFileTest, BodyCorruptionIsRejectedByDigest) {
  // Flip one bit in several body positions: the stored SHA-256 must catch
  // every one before deserialization begins.
  const std::size_t body_start = raw_.size() / 3;
  for (const std::size_t at :
       {body_start, raw_.size() / 2, raw_.size() - 9}) {
    std::vector<char> mutated = raw_;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x01);
    write_raw(mutated);
    const auto result = Session::from_snapshot_file(path_.string());
    EXPECT_FALSE(result.is_ok()) << "bit flip at " << at << " accepted";
  }
}

TEST_F(SnapshotFileTest, SpecTamperingIsRejectedByDigest) {
  // The embedded spec text is covered by the digest too: editing it (to
  // resume under different parameters) must fail loudly.
  const std::string needle = "seed";
  auto it = std::search(raw_.begin(), raw_.end(), needle.begin(), needle.end());
  ASSERT_NE(it, raw_.end());
  *it = 'q';
  write_raw(raw_);
  EXPECT_FALSE(Session::from_snapshot_file(path_.string()).is_ok());
}

// ---------------------------------------------------------------------------
// Runner bodies that save_state cannot produce
// ---------------------------------------------------------------------------

/// A sector id no shipped config's fleet reaches.
constexpr std::uint64_t kFarSector = std::uint64_t{1} << 40;

/// The body of a shipped config's run saved at `epoch`, with the offsets
/// of the sections the crafted bodies below rewrite.
struct SavedBody {
  std::unique_ptr<scenario::ScenarioRunner> runner;
  std::vector<std::uint8_t> bytes;
  /// The transfer count: after the runner's nine leading words, the
  /// ledger and the network.
  std::size_t transfers = 0;
  /// Adversary 0's claimed list and its strategy's section: after the
  /// transfer count, the live files, the adversary count and the
  /// adversary's RNG words and counters. Zero without adversaries.
  std::size_t claimed = 0;
  std::size_t strategy = 0;
};

SavedBody saved_body(const std::string& config, std::uint64_t epoch) {
  SavedBody saved;
  saved.runner = std::make_unique<scenario::ScenarioRunner>(
      shipped_spec(fs::path(FI_CONFIG_DIR) / (config + ".cfg")));
  EXPECT_EQ(saved.runner->run_cycles(epoch), epoch) << config;
  saved.bytes = snapshot::encode_state(*saved.runner);
  util::BinaryWriter engine;
  saved.runner->ledger().save(engine);
  saved.runner->network().save(engine);
  saved.transfers = 9 * 8 + engine.size();
  if (!saved.runner->spec().adversaries.empty()) {
    util::BinaryReader reader(
        std::span(saved.bytes).subspan(saved.transfers + 8));
    (void)util::load_u64_seq<core::FileId>(reader);
    (void)reader.u64();  // the adversary count
    for (int word = 0; word < 4; ++word) (void)reader.u64();
    adversary::AdversaryCounters counters;
    counters.load(reader);
    saved.claimed = saved.bytes.size() - reader.remaining();
    (void)util::load_u64_seq<core::SectorId>(reader);
    saved.strategy = saved.bytes.size() - reader.remaining();
  }
  return saved;
}

std::uint64_t u64_at(std::span<const std::uint8_t> body, std::size_t at) {
  util::BinaryReader reader(body.subspan(at, 8));
  return reader.u64();
}

/// `body` with the u64 at `at` set to `value`.
std::vector<std::uint8_t> with_u64(std::vector<std::uint8_t> body,
                                   std::size_t at, std::uint64_t value) {
  for (std::size_t b = 0; b < 8; ++b) {
    body[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
  return body;
}

/// `body` with the u64s at `a` and `b` swapped.
std::vector<std::uint8_t> swapped(const std::vector<std::uint8_t>& body,
                                  std::size_t a, std::size_t b) {
  return with_u64(with_u64(body, a, u64_at(body, b)), b, u64_at(body, a));
}

bool resumes(const SavedBody& saved, std::span<const std::uint8_t> body) {
  util::BinaryReader reader(body);
  return scenario::ScenarioRunner::resume(saved.runner->spec(), reader)
      .is_ok();
}

TEST(RunnerSnapshot, QueuedTransferIsRejected) {
  // Every transfer request is drained before a save point, so the body's
  // transfer count is 0 and no row follows it.
  const SavedBody saved = saved_body("smoke", 2);
  ASSERT_EQ(u64_at(saved.bytes, saved.transfers), 0u);
  ASSERT_TRUE(resumes(saved, saved.bytes));
  // One 44-byte row in the shape the queue had while it was encoded:
  // file, replica index (u32), source and target sectors, client and
  // deadline.
  const std::span<const std::uint8_t> bytes(saved.bytes);
  util::BinaryWriter crafted;
  crafted.raw(bytes.first(saved.transfers));
  crafted.u64(1);
  crafted.u64(1);
  crafted.u32(0);
  crafted.u64(0);
  crafted.u64(1);
  crafted.u64(saved.runner->client_account());
  crafted.u64(saved.runner->network().now() + 10);
  crafted.raw(bytes.subspan(saved.transfers + 8));
  EXPECT_FALSE(resumes(saved, crafted.data()));
}

TEST(RunnerSnapshot, AdversarySectorPastTheFleetIsRejected) {
  // A claimed or recruited sector id must name a sector of the restored
  // network; one past it used to load, and the resumed run aborted at its
  // first lookup of the id.
  {
    // churn_griefer registers a 25-sector private fleet at epoch 1: ids
    // 150 to 174, after the 150 honest sectors.
    const SavedBody saved = saved_body("churn_griefer", 2);
    ASSERT_EQ(u64_at(saved.bytes, saved.claimed), 25u);
    ASSERT_EQ(u64_at(saved.bytes, saved.claimed + 8), 150u);
    EXPECT_TRUE(resumes(saved, saved.bytes));
    EXPECT_FALSE(
        resumes(saved, with_u64(saved.bytes, saved.claimed + 8, kFarSector)));
  }
  // Each strategy's member list follows its `recruited` flag (and the
  // refusing coalition's `stopped` flag).
  const struct {
    const char* config;
    std::uint64_t epoch;
    std::size_t members;
  } pools[] = {
      {"colluding_pool", 3, 1},
      {"proof_withholder", 3, 1},
      {"refresh_saboteur", 2, 2},
  };
  for (const auto& pool : pools) {
    const SavedBody saved = saved_body(pool.config, pool.epoch);
    const std::size_t list = saved.strategy + pool.members;
    ASSERT_GT(u64_at(saved.bytes, list), 0u) << pool.config;
    ASSERT_LT(u64_at(saved.bytes, list + 8), saved.runner->spec().sectors)
        << pool.config;
    EXPECT_TRUE(resumes(saved, saved.bytes)) << pool.config;
    EXPECT_FALSE(resumes(saved, with_u64(saved.bytes, list + 8, kFarSector)))
        << pool.config;
  }
}

TEST(RunnerSnapshot, ClaimsOtherThanTheClaimedListsImplyAreRejected) {
  // churn_griefer's strategy keeps no state, so its claims section follows
  // the claimed list directly: one (sector, 0) row per claimed sector, in
  // ascending sector order.
  const SavedBody saved = saved_body("churn_griefer", 2);
  const std::size_t claims = saved.strategy;
  ASSERT_EQ(u64_at(saved.bytes, claims), 25u);
  const std::size_t first = claims + 8;
  const std::size_t second = first + 16;
  ASSERT_EQ(u64_at(saved.bytes, first), 150u);
  ASSERT_EQ(u64_at(saved.bytes, second), 151u);
  ASSERT_TRUE(resumes(saved, saved.bytes));
  // The last claims row left out.
  const std::span<const std::uint8_t> bytes(saved.bytes);
  util::BinaryWriter dropped;
  dropped.raw(bytes.first(claims));
  dropped.u64(24);
  dropped.raw(bytes.subspan(first, 24 * 16));
  dropped.raw(bytes.subspan(first + 25 * 16));

  const struct {
    const char* what;
    std::vector<std::uint8_t> bytes;
  } cases[] = {
      {"a sector claimed twice",
       with_u64(saved.bytes, saved.claimed + 16, 150)},
      {"claims rows out of order", swapped(saved.bytes, first, second)},
      {"a claim the claimed lists do not imply",
       with_u64(saved.bytes, first, 3)},
      {"a claims row missing", dropped.data()},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(resumes(saved, c.bytes)) << c.what;
  }
}

TEST(RunnerSnapshot, RefusalAndSuppressedListsMustAscendWithinTheFleet) {
  {
    // refresh_saboteur's refusal list follows the claims section: its
    // members, ascending, while the refusal lasts.
    const SavedBody saved = saved_body("refresh_saboteur", 2);
    const std::size_t members = u64_at(saved.bytes, saved.strategy + 2);
    const std::size_t claims = saved.strategy + 2 + 8 + 8 * members;
    const std::size_t refused = claims + 8 + 16 * u64_at(saved.bytes, claims);
    const std::uint64_t count = u64_at(saved.bytes, refused);
    ASSERT_EQ(count, members);
    ASSERT_TRUE(resumes(saved, saved.bytes));
    EXPECT_FALSE(
        resumes(saved, swapped(saved.bytes, refused + 8, refused + 16)));
    EXPECT_FALSE(
        resumes(saved, with_u64(saved.bytes, refused + 8 * count, kFarSector)));
  }
  {
    // partition_refresh's region-1 outage (its second phase) suppresses
    // that region's proofs. The list precedes the NetModel encoding that
    // closes the body, and without adversaries it names every physically
    // corrupted sector.
    const SavedBody saved = saved_body("partition_refresh", 4);
    util::BinaryWriter model;
    saved.runner->netmodel().save_state(model);
    const core::Network& net = saved.runner->network();
    std::uint64_t count = 0;
    for (core::SectorId s = 0; s < net.sectors().count(); ++s) {
      if (net.is_physically_corrupted(s)) ++count;
    }
    ASSERT_GE(count, 2u);
    const std::size_t suppressed =
        saved.bytes.size() - model.size() - 8 * (count + 1);
    ASSERT_EQ(u64_at(saved.bytes, suppressed), count);
    ASSERT_TRUE(resumes(saved, saved.bytes));
    EXPECT_FALSE(
        resumes(saved, swapped(saved.bytes, suppressed + 8, suppressed + 16)));
    EXPECT_FALSE(resumes(
        saved, with_u64(saved.bytes, suppressed + 8 * count, kFarSector)));
  }
}

TEST(RunnerSnapshot, AdmittedSectorsMustAscendWithinTheFleet) {
  // A 40-sector fleet admits 40 more sectors, ids 40 to 79, at the start
  // of a 3-cycle admit phase, and reports their share of the backups when
  // the phase ends. A resumed run with an admitted id past the fleet would
  // read a count of 0 for it and report a wrong share.
  scenario::ScenarioSpec spec;
  spec.name = "admit";
  spec.seed = 7;
  spec.sectors = 40;
  spec.sector_units = 1;
  spec.initial_files = 300;
  spec.file_size_min = 1024;
  spec.file_size_max = 1024;
  spec.file_value = 10;
  spec.params.min_capacity = 32 * 1024;
  spec.params.min_value = 10;
  spec.params.k = 2;
  spec.params.cap_para = 30.0;
  spec.params.gamma_deposit = 0.2;
  spec.params.admission_rebalance = true;
  spec.phases.push_back(scenario::PhaseSpec::make_admit(40, 3));
  SavedBody saved;
  saved.runner = std::make_unique<scenario::ScenarioRunner>(spec);
  ASSERT_EQ(saved.runner->run_cycles(1), 1u);
  saved.bytes = snapshot::encode_state(*saved.runner);
  ASSERT_TRUE(resumes(saved, saved.bytes));

  // The list as save_state writes it: its count, then the ids.
  std::vector<core::SectorId> admitted(40);
  std::iota(admitted.begin(), admitted.end(), core::SectorId{40});
  util::BinaryWriter list;
  util::save_u64_seq(list, admitted);
  const auto found = std::search(saved.bytes.begin(), saved.bytes.end(),
                                 list.data().begin(), list.data().end());
  ASSERT_NE(found, saved.bytes.end());
  ASSERT_EQ(std::search(found + 1, saved.bytes.end(), list.data().begin(),
                        list.data().end()),
            saved.bytes.end());
  const auto first = static_cast<std::size_t>(found - saved.bytes.begin()) + 8;
  EXPECT_FALSE(resumes(saved, with_u64(saved.bytes, first, kFarSector)));
  // The last id at the sector count, and the first two swapped.
  EXPECT_FALSE(resumes(saved, with_u64(saved.bytes, first + 39 * 8, 80)));
  EXPECT_FALSE(resumes(saved, swapped(saved.bytes, first, first + 8)));
}

}  // namespace
}  // namespace fi

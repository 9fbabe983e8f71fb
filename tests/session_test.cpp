// fi::Session equivalence suite (src/api/session.h): PR 10 carved
// fi_sim's monolithic run loop into a library-level session API, and this
// file is the pin that keeps the refactor honest. Stepping a session one
// epoch at a time, checkpointing it mid-run, resuming at a different
// worker count, and forking it — with or without divergent spec knobs —
// must all be *byte-identical* to the monolithic ScenarioRunner::run()
// they decompose. Any drift here means fi_sim and fi_orchestrate no
// longer agree with the golden hashes.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "snapshot/snapshot.h"
#include "util/check.h"
#include "util/config.h"

namespace fi {
namespace {

namespace fs = std::filesystem;

#ifndef FI_CONFIG_DIR
#error "FI_CONFIG_DIR must be defined by the build"
#endif

/// Same shrinking discipline as snapshot_test.cpp: keep every shipped
/// config's *shape* (phases, adversaries, traffic) but cut the sizes so a
/// full run takes milliseconds.
scenario::ScenarioSpec shrunk_spec(const std::string& name) {
  auto loaded = util::Config::load((fs::path(FI_CONFIG_DIR) / name).string());
  EXPECT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  auto parsed = scenario::ScenarioSpec::from_config(loaded.value());
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  scenario::ScenarioSpec spec = std::move(parsed).value();
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

struct RunOutcome {
  std::string report_json;
  std::string state_hash;
};

/// The ground truth every session decomposition is measured against.
RunOutcome monolithic_run(scenario::ScenarioSpec spec) {
  scenario::ScenarioRunner runner(std::move(spec));
  const std::string json = runner.run().to_json();
  return {json, snapshot::state_hash(runner)};
}

Session open_session(const scenario::ScenarioSpec& spec) {
  auto opened = Session::from_spec(spec);
  EXPECT_TRUE(opened.is_ok()) << opened.status().to_string();
  return std::move(opened).value();
}

fs::path temp_path(const std::string& tag) {
  return fs::path(::testing::TempDir()) / ("fi_session_" + tag + ".fisnap");
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------------
// Stepping == monolithic run
// ---------------------------------------------------------------------------

TEST(SessionStepping, OneEpochAtATimeEqualsMonolithicRun) {
  // Three shapes: plain churn, a targeted adversary, a colluding pool.
  for (const char* name :
       {"smoke.cfg", "targeted_file.cfg", "colluding_pool.cfg"}) {
    const scenario::ScenarioSpec spec = shrunk_spec(name);
    const RunOutcome mono = monolithic_run(spec);

    Session session = open_session(spec);
    std::uint64_t stepped = 0;
    while (!session.finished()) {
      const std::uint64_t ran = session.run_epochs(1);
      stepped += ran;
      if (ran == 0) break;  // trailing zero-cycle phases
      EXPECT_EQ(session.epoch(), stepped) << name;
    }
    EXPECT_TRUE(session.finished()) << name;
    EXPECT_EQ(session.run_epochs(3), 0u) << name << ": ran past the end";

    // Hash before finalization must equal hash after: report() is a
    // projection plus adversary end hooks, both covered by the monolithic
    // baseline's post-run hash.
    EXPECT_EQ(session.report().to_json(), mono.report_json) << name;
    EXPECT_EQ(session.state_hash(), mono.state_hash) << name;
  }
}

/// The pool falls short at the first burst, and the second burst's
/// confiscations settle part of that debt (§IV-B, Theorem 4): 120 sectors
/// hold 900 one-KiB files of value 100 at k = 2, under a deposit ratio of
/// 0.0005.
scenario::ScenarioSpec late_settlement_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "late_settlement";
  spec.seed = 31337;
  spec.sectors = 120;
  spec.sector_units = 1;
  spec.initial_files = 900;
  spec.file_size_min = 1024;
  spec.file_size_max = 1024;
  spec.file_value = 100;
  spec.params.k = 2;
  spec.params.cap_para = 30.0;
  spec.params.gamma_deposit = 0.0005;
  spec.phases.push_back(scenario::PhaseSpec::make_corrupt_burst(0.5, 3));
  spec.phases.push_back(scenario::PhaseSpec::make_corrupt_burst(0.3, 3));
  return spec;
}

TEST(SessionStepping, InsuranceIdentityHoldsAtEveryEpoch) {
  Session session = open_session(late_settlement_spec());
  while (session.run_epochs(1) == 1) {
    const core::Network& net = session.network();
    const core::NetworkStats stats = net.stats();
    EXPECT_EQ(stats.value_lost, stats.value_compensated +
                                    net.deposits().outstanding_liabilities())
        << "epoch " << session.epoch();
  }
  EXPECT_EQ(session.epoch(), 6u);
  const scenario::MetricsReport report = session.report();
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_GT(report.outstanding_liabilities, 0u);
  // What the second burst's confiscations settled is that phase's
  // compensation.
  EXPECT_GT(report.phases[1].delta.value_compensated, 0u);
  EXPECT_EQ(report.totals.value_lost,
            report.totals.value_compensated + report.outstanding_liabilities);
}

TEST(SessionStepping, ArbitraryBatchSizesEqualMonolithicRun) {
  const scenario::ScenarioSpec spec = shrunk_spec("smoke.cfg");
  const RunOutcome mono = monolithic_run(spec);

  Session session = open_session(spec);
  (void)session.run_epochs(2);
  (void)session.run_epochs(5);
  (void)session.run_epochs(scenario::ScenarioRunner::kAllCycles);
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.report().to_json(), mono.report_json);
  EXPECT_EQ(session.state_hash(), mono.state_hash);
}

TEST(SessionStepping, RunToEpochSemantics) {
  Session session = open_session(shrunk_spec("smoke.cfg"));
  ASSERT_TRUE(session.run_to_epoch(3).is_ok());
  EXPECT_EQ(session.epoch(), 3u);

  // Backwards is a caller bug, not a silent no-op.
  const util::Status backwards = session.run_to_epoch(2);
  ASSERT_FALSE(backwards.is_ok());
  EXPECT_EQ(backwards.code(), util::ErrorCode::invalid_argument);

  // Past the end: the run finishes, then reports the shortfall.
  const util::Status overrun = session.run_to_epoch(1000000);
  ASSERT_FALSE(overrun.is_ok());
  EXPECT_EQ(overrun.code(), util::ErrorCode::failed_precondition);
  EXPECT_TRUE(session.finished());
}

TEST(SessionStepping, ReportIsSingleShot) {
  Session session = open_session(shrunk_spec("smoke.cfg"));
  (void)session.report();
  // The underlying runner latches, exactly like double ScenarioRunner::run().
  EXPECT_THROW((void)session.report(), util::InvariantViolation);
}

// ---------------------------------------------------------------------------
// Checkpointing does not depend on how the epochs were stepped
// ---------------------------------------------------------------------------

TEST(SessionCheckpoint, FileBytesMatchMonolithicSaveAt) {
  // A session run to the save epoch in one call must write the same file
  // as a runner stepped there one cycle at a time, which flushes each
  // deferred end-of-phase on the way (smoke's epoch 5 is past its first
  // phase).
  const scenario::ScenarioSpec spec = shrunk_spec("smoke.cfg");
  for (const std::uint64_t save_epoch : {2u, 5u}) {
    const fs::path stepped_path =
        temp_path("stepped_" + std::to_string(save_epoch));
    {
      scenario::ScenarioRunner saver(spec);
      for (std::uint64_t e = 0; e < save_epoch; ++e) {
        ASSERT_EQ(saver.run_cycles(1), 1u);
      }
      ASSERT_TRUE(
          snapshot::save_to_file(saver, stepped_path.string()).is_ok());
    }

    const fs::path mono_path =
        temp_path("mono_" + std::to_string(save_epoch));
    Session session = open_session(spec);
    ASSERT_EQ(session.run_epochs(save_epoch), save_epoch);
    ASSERT_TRUE(session.checkpoint(mono_path.string()).is_ok());

    // Byte identity of the *files*, not just the hashes: the spec text,
    // framing, and digest must agree too.
    EXPECT_EQ(read_bytes(mono_path), read_bytes(stepped_path))
        << "save_epoch " << save_epoch;
    fs::remove(mono_path);
    fs::remove(stepped_path);
  }
}

// ---------------------------------------------------------------------------
// Forks: shared prefix, divergent futures
// ---------------------------------------------------------------------------

TEST(SessionFork, SharedPrefixThenDivergentKnobs) {
  // Fork mid-attack (the targeted adversary locks on at epoch 1), so the
  // two branches still have something to diverge on.
  const scenario::ScenarioSpec spec = shrunk_spec("targeted_file.cfg");
  const RunOutcome mono = monolithic_run(spec);

  Session parent = open_session(spec);
  ASSERT_EQ(parent.run_epochs(1), 1u);
  const std::string prefix_hash = parent.state_hash();

  // Fork A: faithful continuation. Fork B: counterfactual — the same
  // attack prefix, a gentler adversary from here on.
  auto fork_a = parent.fork();
  ASSERT_TRUE(fork_a.is_ok()) << fork_a.status().to_string();
  Session::OpenOptions gentler;
  gentler.overrides.emplace_back("adversary.0.sectors_per_epoch", "1");
  auto fork_b = parent.fork(gentler);
  ASSERT_TRUE(fork_b.is_ok()) << fork_b.status().to_string();

  // Both forks hash identically to the parent at the fork point — spec
  // knobs live in the spec text, never in the state body.
  EXPECT_EQ(fork_a.value().state_hash(), prefix_hash);
  EXPECT_EQ(fork_b.value().state_hash(), prefix_hash);

  // The faithful fork and the parent both land exactly on the monolithic
  // run; the counterfactual provably diverges.
  const std::string report_a = fork_a.value().report().to_json();
  const std::string report_b = fork_b.value().report().to_json();
  EXPECT_EQ(report_a, mono.report_json);
  EXPECT_EQ(fork_a.value().state_hash(), mono.state_hash);
  EXPECT_NE(report_b, mono.report_json);
  EXPECT_NE(fork_b.value().state_hash(), mono.state_hash);

  // Forking is non-destructive: the parent still finishes on the golden
  // trajectory after both forks were taken.
  EXPECT_EQ(parent.report().to_json(), mono.report_json);
  EXPECT_EQ(parent.state_hash(), mono.state_hash);
}

// ---------------------------------------------------------------------------
// Opening: override validation shares the config parser's rules
// ---------------------------------------------------------------------------

TEST(SessionOpen, UnknownOverrideKeyIsRejected) {
  Session::OpenOptions options;
  options.overrides.emplace_back("no.such.key", "1");
  auto opened = Session::from_config_file(
      (fs::path(FI_CONFIG_DIR) / "smoke.cfg").string(), options);
  ASSERT_FALSE(opened.is_ok());
}

TEST(SessionOpen, MalformedOverrideValueIsRejected) {
  Session::OpenOptions options;
  options.overrides.emplace_back("sectors", "banana");
  auto opened = Session::from_config_file(
      (fs::path(FI_CONFIG_DIR) / "smoke.cfg").string(), options);
  ASSERT_FALSE(opened.is_ok());
}

TEST(SessionOpen, LoadSpecAppliesOverridesWithoutBuildingNetwork) {
  Session::OpenOptions options;
  options.overrides.emplace_back("seed", "7");
  auto spec = Session::load_spec(
      (fs::path(FI_CONFIG_DIR) / "smoke.cfg").string(), options);
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
  EXPECT_EQ(spec.value().seed, 7u);
}

}  // namespace
}  // namespace fi

// The exit-code contract of the three shipped binaries, pinned by driving
// them as real subprocesses: 0 = success, 1 = run/input failure (bad
// file, failed node, rent leak), 2 = usage error. Scripts and CI recipes
// branch on these codes, so a change here is a breaking interface change
// — the same bar as a report-schema change.
//
// The binaries come from the build tree via FI_SIM_BIN /
// FI_ORCHESTRATE_BIN / FI_MERKLE_ROOT_BIN (CMake injects
// $<TARGET_FILE:...> and declares the dependency).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.h"

namespace {

namespace fs = std::filesystem;

#if !defined(FI_SIM_BIN) || !defined(FI_ORCHESTRATE_BIN) || \
    !defined(FI_MERKLE_ROOT_BIN) || !defined(FI_CONFIG_DIR) ||  \
    !defined(FI_PLAN_DIR)
#error "FI_SIM_BIN / FI_ORCHESTRATE_BIN / FI_MERKLE_ROOT_BIN / " \
       "FI_CONFIG_DIR / FI_PLAN_DIR must be defined by the build"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string out;  ///< captured stdout
  std::string err;  ///< captured stderr
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Runs `argv_tail` under the given binary with stdout/stderr captured.
CommandResult run(const std::string& binary, const std::string& argv_tail) {
  // ctest runs every case as its own (possibly concurrent) process, so
  // capture files must be unique per process, not just per call.
  static int counter = 0;
  const std::string tag =
      std::to_string(::getpid()) + "_" + std::to_string(counter++);
  const fs::path out_path =
      fs::path(::testing::TempDir()) / ("fi_cli_out_" + tag + ".txt");
  const fs::path err_path =
      fs::path(::testing::TempDir()) / ("fi_cli_err_" + tag + ".txt");

  const std::string command = binary + " " + argv_tail + " > " +
                              out_path.string() + " 2> " + err_path.string();
  const int raw = std::system(command.c_str());
  CommandResult result;
  result.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  result.out = slurp(out_path);
  result.err = slurp(err_path);
  fs::remove(out_path);
  fs::remove(err_path);
  return result;
}

CommandResult fi_sim(const std::string& argv_tail) {
  return run(FI_SIM_BIN, argv_tail);
}
CommandResult fi_orchestrate(const std::string& argv_tail) {
  return run(FI_ORCHESTRATE_BIN, argv_tail);
}
CommandResult fi_merkle_root(const std::string& argv_tail) {
  return run(FI_MERKLE_ROOT_BIN, argv_tail);
}

std::string smoke_cfg() {
  return (fs::path(FI_CONFIG_DIR) / "smoke.cfg").string();
}

fs::path write_temp(const std::string& name, const std::string& text) {
  const fs::path path = fs::path(::testing::TempDir()) / name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------------------
// fi_sim
// ---------------------------------------------------------------------------

TEST(FiSimCli, HelpExitsZeroAndDocumentsFlags) {
  const CommandResult result = fi_sim("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("usage:"), std::string::npos);
  EXPECT_NE(result.out.find("--scenario"), std::string::npos);
  EXPECT_NE(result.out.find("--hash-state"), std::string::npos);
}

TEST(FiSimCli, UsageErrorsExitTwo) {
  // Unknown flag, named in the diagnostic.
  CommandResult result = fi_sim("--scenario x.cfg --frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("--frobnicate"), std::string::npos);

  // Missing operand.
  EXPECT_EQ(fi_sim("--scenario").exit_code, 2);
  // No input at all, and both inputs at once.
  EXPECT_EQ(fi_sim("").exit_code, 2);
  EXPECT_EQ(fi_sim("--scenario a.cfg --load b.fisnap").exit_code, 2);
  // Malformed --set (no '='), malformed numeric operand.
  EXPECT_EQ(fi_sim("--scenario a.cfg --set seed7").exit_code, 2);
  EXPECT_EQ(fi_sim("--scenario a.cfg --hash-state-every lots").exit_code, 2);
  // Checkpoint flags that contradict each other or lack --save.
  EXPECT_EQ(fi_sim("--scenario a.cfg --save-at 3").exit_code, 2);
  EXPECT_EQ(
      fi_sim("--scenario a.cfg --save s --save-at 3 --save-every 2")
          .exit_code,
      2);
  // Reserved zero (0 would silently mean "save at end").
  EXPECT_EQ(fi_sim("--scenario a.cfg --save s --save-at 0").exit_code, 2);
  // --set on a resumed run (the snapshot pins the spec).
  EXPECT_EQ(fi_sim("--load s.fisnap --set seed=1").exit_code, 2);
}

TEST(FiSimCli, InputFailuresExitOne) {
  EXPECT_EQ(fi_sim("--scenario /nonexistent/nope.cfg").exit_code, 1);

  const fs::path garbage =
      write_temp("fi_cli_garbage.fisnap", "not a snapshot");
  EXPECT_EQ(fi_sim("--load " + garbage.string()).exit_code, 1);
  fs::remove(garbage);

  // A directory is not a snapshot: a clean exit 1, not an uncaught stream
  // exception.
  const fs::path dir = fs::path(::testing::TempDir()) / "fi_cli_load_dir";
  fs::create_directories(dir);
  const CommandResult from_dir = fi_sim("--load " + dir.string() + "/");
  fs::remove(dir);
  EXPECT_EQ(from_dir.exit_code, 1);
  EXPECT_NE(from_dir.err.find("not a regular file"), std::string::npos);

  // A save point past the end of the run must not look like success.
  const CommandResult result = fi_sim("--scenario " + smoke_cfg() +
                                      " --out /dev/null --save " +
                                      (fs::path(::testing::TempDir()) /
                                       "fi_cli_never.fisnap")
                                          .string() +
                                      " --save-at 10000");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("never fired"), std::string::npos);

  // Valid specs whose setup funding (deposits, rent, traffic and gas
  // budgets) overflows u64 are bad input: a clean exit 1, not an abort.
  for (const char* set :
       {"net.unit_rent=100000000000000000", "sector_units=100000000000000",
        "net.gas_per_task=10000000000000000000",
        "net.traffic_fee_per_kib=10000000000000000000",
        "net.gamma_deposit=1e17",
        "net.min_transfer_window=18446744073709551615",
        // Rent per cycle 4 × 2^62 and the per-replica fee 2 × 2^63 wrap
        // to 0; cp = 4 × value/minValue exceeds u32 (or wraps to 0).
        "file_size_max=1024 --set net.k=4 "
        "--set net.unit_rent=4611686018427387904",
        "file_size_min=2048 --set file_size_max=2048 "
        "--set net.traffic_fee_per_kib=9223372036854775808",
        "file_value=10737418250 --set net.k=4",
        "file_value=10737418240 --set net.k=4",
        // The planned cycle count 2^40 × 2^24 wraps.
        "phase.2.periods=1099511627776 --set net.rent_period_cycles=16777216"}) {
    const CommandResult overflow = fi_sim("--scenario " + smoke_cfg() +
                                          " --out /dev/null --set " + set);
    EXPECT_EQ(overflow.exit_code, 1) << set;
    EXPECT_NE(overflow.err.find("overflow"), std::string::npos) << set;
  }

  // A degenerate protocol parameter that would otherwise run to a clean
  // exit 0 with no file stored.
  const CommandResult invalid = fi_sim("--scenario " + smoke_cfg() +
                                       " --out /dev/null --set "
                                       "net.max_alloc_resample=0");
  EXPECT_EQ(invalid.exit_code, 1);
  EXPECT_NE(invalid.err.find("at least 1"), std::string::npos);

  // 2^62 traffic streams: the stream table's length is past what a vector
  // can hold, so setup throws before allocating anything. Oversized knobs
  // that do allocate (and fail with bad_alloc) take the same exit.
  const CommandResult oversized =
      fi_sim("--scenario " +
             (fs::path(FI_CONFIG_DIR) / "retrieval_zipf.cfg").string() +
             " --out /dev/null --set traffic.streams=4611686018427387904");
  EXPECT_EQ(oversized.exit_code, 1);
  EXPECT_NE(oversized.err.find("scenario setup too large"), std::string::npos)
      << oversized.err;

  // The odd-sector ask tier, one above the price, would wrap: validation
  // names the key before the run starts.
  const CommandResult price =
      fi_sim("--scenario " +
             (fs::path(FI_CONFIG_DIR) / "retrieval_zipf.cfg").string() +
             " --out /dev/null --set "
             "traffic.price_per_kib=18446744073709551615");
  EXPECT_EQ(price.exit_code, 1);
  EXPECT_NE(price.err.find("traffic.price_per_kib"), std::string::npos)
      << price.err;
}

TEST(FiSimCli, WrappingRentPeriodExitsOne) {
  // rent_period_cycles × proof_cycle = 2^31 × 2^33 wraps to 0, which would
  // reschedule the rent task at `now` forever. Without smoke's rent_audit
  // phase, setup funding does not overflow first, so validation must.
  const std::string smoke = slurp(smoke_cfg());
  const fs::path cfg = write_temp("fi_cli_rent_period.cfg",
                                  smoke.substr(0, smoke.find("phase.2.")));
  const CommandResult result = fi_sim(
      "--scenario " + cfg.string() +
      " --out /dev/null --set net.proof_cycle=8589934592"
      " --set net.proof_due=8589934592 --set net.proof_deadline=8589934593"
      " --set net.rent_period_cycles=2147483648");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("rent period"), std::string::npos) << result.err;
  fs::remove(cfg);
}

TEST(FiSimCli, GoodRunExitsZero) {
  const CommandResult result =
      fi_sim("--scenario " + smoke_cfg() + " --out /dev/null --hash-state");
  EXPECT_EQ(result.exit_code, 0);
  // --hash-state prints exactly one 64-hex line on stdout.
  ASSERT_EQ(result.out.size(), 65u) << result.out;
  EXPECT_EQ(result.out.find_first_not_of("0123456789abcdef"), 64u);
  EXPECT_NE(result.err.find("rent conserved"), std::string::npos);
}

TEST(FiSimCli, HashStateEveryMatchesCheckpointAndResume) {
  const fs::path ck =
      fs::path(::testing::TempDir()) /
      ("fi_cli_hash_every_" + std::to_string(::getpid()) + ".fisnap");
  const CommandResult full =
      fi_sim("--scenario " + smoke_cfg() +
             " --out /dev/null --hash-state-every 1 --save " + ck.string() +
             " --save-at 3");
  ASSERT_EQ(full.exit_code, 0) << full.err;

  // One line per epoch, each the 64-hex state hash at that epoch.
  const std::vector<std::string> lines = lines_of(full.out);
  ASSERT_EQ(lines.size(), 15u) << full.out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string prefix =
        "state-hash epoch=" + std::to_string(i + 1) + " ";
    ASSERT_EQ(lines[i].rfind(prefix, 0), 0u) << lines[i];
    const std::string hex = lines[i].substr(prefix.size());
    EXPECT_EQ(hex.size(), 64u) << lines[i];
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos)
        << lines[i];
  }

  // The epoch-3 line is the hash of the checkpoint saved at epoch 3.
  auto resumed = fi::Session::from_snapshot_file(ck.string());
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(lines[2], "state-hash epoch=3 " + resumed.value().state_hash());

  // The resumed run prints exactly the full run's lines after the save.
  const CommandResult cont =
      fi_sim("--load " + ck.string() + " --out /dev/null --hash-state-every 1");
  ASSERT_EQ(cont.exit_code, 0) << cont.err;
  EXPECT_EQ(lines_of(cont.out),
            std::vector<std::string>(lines.begin() + 3, lines.end()));
  fs::remove(ck);

  // Zero is not an interval.
  EXPECT_EQ(fi_sim("--scenario " + smoke_cfg() + " --hash-state-every 0")
                .exit_code,
            2);
}

// ---------------------------------------------------------------------------
// fi_orchestrate
// ---------------------------------------------------------------------------

TEST(FiOrchestrateCli, HelpExitsZeroAndDocumentsFlags) {
  const CommandResult result = fi_orchestrate("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("usage:"), std::string::npos);
  EXPECT_NE(result.out.find("--plan"), std::string::npos);
  EXPECT_NE(result.out.find("--reuse-checkpoints"), std::string::npos);
}

TEST(FiOrchestrateCli, UsageErrorsExitTwo) {
  EXPECT_EQ(fi_orchestrate("").exit_code, 2);  // --plan is required
  EXPECT_EQ(fi_orchestrate("--frobnicate").exit_code, 2);
  // A parseable plan without --out-dir is still a usage error (unless
  // --validate).
  EXPECT_EQ(fi_orchestrate(std::string("--plan ") + FI_PLAN_DIR +
                           "/long_horizon.plan")
                .exit_code,
            2);
}

TEST(FiOrchestrateCli, ValidateChecksThePlanOnly) {
  const CommandResult good = fi_orchestrate(
      std::string("--plan ") + FI_PLAN_DIR + "/long_horizon.plan --validate");
  EXPECT_EQ(good.exit_code, 0);
  EXPECT_NE(good.out.find("plan ok: long_horizon (2 nodes)"),
            std::string::npos);

  // A bad edge, a scenario root that does not load (missing config,
  // unknown override key), a child whose own override does not apply to
  // its parent's spec, and a malformed parent hash.
  const struct {
    const char* name;
    std::string text;
    const char* error;
  } bad_plans[] = {
      {"fi_cli_bad.plan", "node.0.name = a\nnode.0.parent = ghost\n",
       "ghost"},
      {"fi_cli_missing_cfg.plan",
       "node.0.name = a\nnode.0.scenario = /nonexistent/x.cfg\n",
       "cannot open config file"},
      {"fi_cli_unknown_set.plan",
       "node.0.name = a\nnode.0.scenario = " + smoke_cfg() +
           "\nnode.0.set.sectorz = 3\n",
       "sectorz"},
      {"fi_cli_child_set.plan",
       "node.0.name = a\nnode.0.scenario = " + smoke_cfg() +
           "\nnode.0.epochs = 2\nnode.1.name = b\nnode.1.parent = a\n"
           "node.1.set.sectorz = 3\n",
       "node b: INVALID_ARGUMENT: unknown config keys"},
      {"fi_cli_bad_hash.plan",
       "node.0.name = a\nnode.0.parent_snapshot = x.fisnap\n"
       "node.0.parent_hash = XYZ\n",
       "parent_hash must be a state hash"},
  };
  for (const auto& bad_plan : bad_plans) {
    const fs::path plan = write_temp(bad_plan.name, bad_plan.text);
    const CommandResult bad =
        fi_orchestrate("--plan " + plan.string() + " --validate");
    EXPECT_EQ(bad.exit_code, 1) << bad_plan.name << ": " << bad.out;
    EXPECT_NE(bad.err.find(bad_plan.error), std::string::npos)
        << bad_plan.name << ": " << bad.err;
    fs::remove(plan);
  }

  EXPECT_EQ(fi_orchestrate("--plan /nonexistent.plan --validate").exit_code,
            1);
}

TEST(FiOrchestrateCli, EveryShippedPlanValidates) {
  std::size_t plans = 0;
  for (const auto& entry : fs::directory_iterator(FI_PLAN_DIR)) {
    if (entry.path().extension() != ".plan") continue;
    ++plans;
    const CommandResult result =
        fi_orchestrate("--plan " + entry.path().string() + " --validate");
    EXPECT_EQ(result.exit_code, 0) << entry.path() << ": " << result.err;
    EXPECT_NE(result.out.find("plan ok"), std::string::npos) << result.out;
  }
  EXPECT_GT(plans, 0u);
}

TEST(FiOrchestrateCli, ValidateRejectsABaselineThatCannotRun) {
  // Storj needs 29 units per file: 10 sectors used to validate, then abort.
  const fs::path plan = write_temp("fi_cli_storj.plan",
                                   "node.0.name = s\n"
                                   "node.0.kind = baseline\n"
                                   "node.0.protocol = storj\n"
                                   "node.0.sectors = 10\n");
  const CommandResult result =
      fi_orchestrate("--plan " + plan.string() + " --validate");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("sectors must be >= 29"), std::string::npos)
      << result.err;
  fs::remove(plan);
}

TEST(FiOrchestrateCli, TinyPlanRunsAndEmitsTable) {
  const fs::path plan = write_temp("fi_cli_tiny.plan",
                                   "plan.name = tiny\n"
                                   "node.0.name = genesis\n"
                                   "node.0.scenario = " +
                                       smoke_cfg() +
                                       "\n"
                                       "node.0.epochs = 2\n"
                                       "node.1.name = tail\n"
                                       "node.1.parent = genesis\n");
  const fs::path out_dir = fs::path(::testing::TempDir()) / "fi_cli_tiny_out";
  fs::remove_all(out_dir);

  const CommandResult result = fi_orchestrate(
      "--plan " + plan.string() + " --out-dir " + out_dir.string() +
      " --quiet --print-table");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("comparison table"), std::string::npos);
  EXPECT_TRUE(fs::exists(out_dir / "comparison.json"));
  EXPECT_TRUE(fs::exists(out_dir / "comparison.md"));
  EXPECT_TRUE(fs::exists(out_dir / "tail.report.json"));
  EXPECT_TRUE(fs::exists(out_dir / "genesis.fisnap"));

  // A failing node is exit 1, not 2 (the invocation itself was fine).
  const fs::path broken = write_temp(
      "fi_cli_broken.plan",
      "node.0.name = a\nnode.0.parent_snapshot = /nonexistent/x.fisnap\n");
  const fs::path out2 = fs::path(::testing::TempDir()) / "fi_cli_broken_out";
  const CommandResult failed = fi_orchestrate(
      "--plan " + broken.string() + " --out-dir " + out2.string() +
      " --quiet");
  EXPECT_EQ(failed.exit_code, 1);
  EXPECT_NE(failed.err.find("FAILED"), std::string::npos);

  fs::remove(plan);
  fs::remove(broken);
  fs::remove_all(out_dir);
  fs::remove_all(out2);
}

TEST(FiOrchestrateCli, RunRefusesNodeSpecsThatDoNotBuild) {
  // The plans `--validate` rejects for a spec that does not build are
  // refused by a run too, before any node runs: node a's spec builds, but
  // its checkpoint must not be written when node b's override cannot apply.
  const struct {
    const char* name;
    std::string text;
    const char* error;
  } bad_plans[] = {
      {"fi_cli_run_child_set.plan",
       "node.0.name = a\nnode.0.scenario = " + smoke_cfg() +
           "\nnode.0.epochs = 2\nnode.1.name = b\nnode.1.parent = a\n"
           "node.1.set.sectorz = 3\n",
       "node b: INVALID_ARGUMENT: unknown config keys"},
      {"fi_cli_run_missing_cfg.plan",
       "node.0.name = a\nnode.0.scenario = " + smoke_cfg() +
           "\nnode.0.epochs = 2\nnode.1.name = c\n"
           "node.1.scenario = /nonexistent/x.cfg\n",
       "cannot open config file"},
  };
  for (const auto& bad_plan : bad_plans) {
    const fs::path plan = write_temp(bad_plan.name, bad_plan.text);
    const fs::path out_dir =
        fs::path(::testing::TempDir()) / (std::string(bad_plan.name) + ".out");
    fs::remove_all(out_dir);
    const CommandResult result = fi_orchestrate(
        "--plan " + plan.string() + " --out-dir " + out_dir.string() +
        " --quiet");
    EXPECT_EQ(result.exit_code, 1) << bad_plan.name;
    EXPECT_NE(result.err.find(bad_plan.error), std::string::npos)
        << bad_plan.name << ": " << result.err;
    EXPECT_FALSE(fs::exists(out_dir / "a.fisnap")) << bad_plan.name;
    fs::remove(plan);
    fs::remove_all(out_dir);
  }
}

// ---------------------------------------------------------------------------
// fi_merkle_root
// ---------------------------------------------------------------------------

TEST(FiMerkleRootCli, PrintsTheFileRoot) {
  // 3 * 64 - 5 bytes, byte i = i*7+1: the known-answer root pinned in
  // Merkle.RootMatchesLevelByLevelReference.
  std::string bytes(3 * 64 - 5, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 7 + 1);
  }
  const fs::path path = write_temp("fi_merkle_root_in.bin", bytes);
  const CommandResult result = fi_merkle_root("--file " + path.string());
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_EQ(result.out,
            "4ef88f810815305a03d6d997b5c1c7a26f30f5e0518ac35bb96d0f4ded00139e"
            "\n");
  fs::remove(path);
}

TEST(FiMerkleRootCli, ExitCodes) {
  const CommandResult help = fi_merkle_root("--help");
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.out.find("--file"), std::string::npos);
  EXPECT_EQ(fi_merkle_root("").exit_code, 2);  // --file is required
  EXPECT_EQ(fi_merkle_root("--frobnicate").exit_code, 2);
  const fs::path missing =
      fs::path(::testing::TempDir()) / "fi_merkle_root_missing.bin";
  EXPECT_EQ(fi_merkle_root("--file " + missing.string()).exit_code, 1);
  EXPECT_EQ(fi_merkle_root("--file " + ::testing::TempDir()).exit_code, 1);
}

}  // namespace

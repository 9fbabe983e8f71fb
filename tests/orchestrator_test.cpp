// fi_orchestrate's library layer (src/api/experiment_plan.h,
// src/api/orchestrator.h, src/api/baseline.h) tested in-process:
// plan parsing and validation rejections, DAG execution with parent-hash
// validation, counterfactual fork divergence, failure poisoning of a
// subtree, scheduler determinism across --jobs values, and the baseline
// protocol runs feeding the comparison table.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "api/baseline.h"
#include "api/comparison.h"
#include "api/experiment_plan.h"
#include "api/orchestrator.h"
#include "util/config.h"

namespace fi {
namespace {

namespace fs = std::filesystem;

#ifndef FI_CONFIG_DIR
#error "FI_CONFIG_DIR must be defined by the build"
#endif

util::Result<ExperimentPlan> parse_plan(const std::string& text) {
  auto config = util::Config::parse(text);
  EXPECT_TRUE(config.is_ok()) << config.status().to_string();
  // Scenario paths in the test plans resolve against the config tree.
  return ExperimentPlan::from_config(config.value(), FI_CONFIG_DIR);
}

/// Parse + validate, expecting a failure whose message names `needle`.
void expect_rejected(const std::string& text, const std::string& needle) {
  auto plan = parse_plan(text);
  util::Status status =
      plan.is_ok() ? plan.value().validate() : plan.status();
  ASSERT_FALSE(status.is_ok()) << "expected rejection for: " << needle;
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << "got: " << status.to_string();
}

fs::path fresh_out_dir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fi_orch_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// A 5-node DAG in test size: a segment, a faithful continuation, a
// counterfactual fork, an independent sweep root, and a baseline — every
// node kind the orchestrator schedules.
const char kSmallDag[] = R"(
plan.name = small_dag
node.0.name = genesis
node.0.scenario = smoke.cfg
node.0.epochs = 3
node.1.name = tail
node.1.parent = genesis
node.2.name = fork_b
node.2.parent = genesis
node.2.set.net.avg_refresh = 4
node.3.name = sweep
node.3.scenario = smoke.cfg
node.3.set.seed = 1234
node.4.name = base
node.4.kind = baseline
node.4.protocol = filecoin
node.4.sectors = 400
node.4.files = 2000
node.4.epochs = 2
)";

// ---------------------------------------------------------------------------
// Plan parsing and validation
// ---------------------------------------------------------------------------

TEST(ExperimentPlanParse, SmallDagParses) {
  auto plan = parse_plan(kSmallDag);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  ASSERT_TRUE(plan.value().validate().is_ok());
  ASSERT_EQ(plan.value().nodes.size(), 5u);
  EXPECT_EQ(plan.value().name, "small_dag");
  EXPECT_EQ(plan.value().nodes[2].overrides.size(), 1u);
  EXPECT_EQ(plan.value().nodes[2].overrides[0].first, "net.avg_refresh");
  EXPECT_EQ(plan.value().nodes[4].kind, PlanNode::Kind::baseline);
  EXPECT_EQ(plan.value().nodes[4].baseline.protocol, "filecoin");
  // Root scenario paths resolve against the plan's directory.
  EXPECT_EQ(plan.value().nodes[0].scenario,
            (fs::path(FI_CONFIG_DIR) / "smoke.cfg").string());
}

TEST(ExperimentPlanParse, RejectsMalformedPlans) {
  expect_rejected(
      "node.0.name = a\nnode.0.scenario = smoke.cfg\n"
      "node.1.name = a\nnode.1.scenario = smoke.cfg\n",
      "duplicate");
  expect_rejected("node.0.name = a\nnode.0.parent = ghost\n", "ghost");
  expect_rejected("node.0.name = a\nnode.0.parent = a\n", "own parent");
  expect_rejected(
      "node.0.name = a\nnode.0.parent = b\nnode.1.name = b\n"
      "node.1.parent = a\n",
      "cycle");
  expect_rejected(
      "node.0.name = a\nnode.0.kind = baseline\nnode.0.protocol = sia\n"
      "node.1.name = b\nnode.1.parent = a\n",
      "baseline");
  expect_rejected(
      "node.0.name = a\nnode.0.scenario = smoke.cfg\n"
      "node.0.parent_snapshot = x.fisnap\n",
      "exactly one");
  expect_rejected(
      "node.0.name = a\nnode.0.scenario = smoke.cfg\n"
      "node.0.parent_hash = abc\n",
      "parent_hash");
  expect_rejected(
      "node.0.name = a\nnode.0.scenario = smoke.cfg\nnode.0.bananas = 3\n",
      "unknown plan key");
  // Sparse node indices hide silently-dropped nodes; the parser insists
  // the groups are dense from 0.
  expect_rejected(
      "node.0.name = a\nnode.0.scenario = smoke.cfg\n"
      "node.2.name = c\nnode.2.scenario = smoke.cfg\n",
      "dense");
  expect_rejected("node.0.name = bad/name\nnode.0.scenario = smoke.cfg\n",
                  "[A-Za-z0-9_-]");
  expect_rejected(
      "node.0.name = a\nnode.0.kind = baseline\n"
      "node.0.protocol = twelvechain\n",
      "twelvechain");
}

// ---------------------------------------------------------------------------
// DAG execution
// ---------------------------------------------------------------------------

TEST(Orchestrator, SmallDagRunsAndValidatesParentHashes) {
  auto plan = parse_plan(kSmallDag);
  ASSERT_TRUE(plan.is_ok());

  OrchestrateOptions options;
  options.out_dir = fresh_out_dir("dag").string();
  options.jobs = 3;
  auto outcome = run_plan(plan.value(), options);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  ASSERT_TRUE(outcome.value().all_ok());
  ASSERT_EQ(outcome.value().nodes.size(), 5u);

  const NodeOutcome& genesis = outcome.value().nodes[0];
  const NodeOutcome& tail = outcome.value().nodes[1];
  const NodeOutcome& fork_b = outcome.value().nodes[2];
  const NodeOutcome& sweep = outcome.value().nodes[3];
  const NodeOutcome& base = outcome.value().nodes[4];

  // The segment checkpointed (a child resumes it) and both children
  // validated the resumed state hash against the recorded one.
  EXPECT_TRUE(fs::exists(genesis.checkpoint_path));
  EXPECT_EQ(genesis.end_epoch, 3u);
  EXPECT_TRUE(tail.parent_hash_validated);
  EXPECT_TRUE(fork_b.parent_hash_validated);

  // Shared prefix, divergent futures: the override changes the end state.
  EXPECT_NE(tail.state_hash, fork_b.state_hash);
  EXPECT_NE(tail.state_hash, sweep.state_hash);  // divergent seed too
  EXPECT_FALSE(tail.report_json.empty());

  // Every completed node feeds the table; the baseline carries Table-IV
  // columns.
  EXPECT_EQ(outcome.value().rows().size(), 5u);
  EXPECT_TRUE(base.has_row);
  EXPECT_EQ(base.row.protocol, "Filecoin");
  EXPECT_EQ(base.row.files, 2000u);
  EXPECT_FALSE(base.row.prevents_sybil && base.row.provable_robustness);
}

TEST(Orchestrator, TablesAreByteIdenticalAcrossJobCounts) {
  auto plan = parse_plan(kSmallDag);
  ASSERT_TRUE(plan.is_ok());

  std::vector<std::string> tables;
  for (const std::uint64_t jobs : {1u, 3u}) {
    OrchestrateOptions options;
    options.out_dir =
        fresh_out_dir("jobs" + std::to_string(jobs)).string();
    options.jobs = jobs;
    auto outcome = run_plan(plan.value(), options);
    ASSERT_TRUE(outcome.is_ok());
    ASSERT_TRUE(outcome.value().all_ok());
    tables.push_back(comparison_table_json(outcome.value().plan_name,
                                           outcome.value().rows()));
  }
  EXPECT_EQ(tables[0], tables[1]);
}

TEST(Orchestrator, FailedParentPoisonsSubtreeButSiblingsComplete) {
  // A missing snapshot fails only when its node runs (a missing scenario
  // config would refuse the whole plan up front).
  auto plan = parse_plan(
      "node.0.name = broken\n"
      "node.0.parent_snapshot = /nonexistent/no_such.fisnap\n"
      "node.0.epochs = 2\n"
      "node.1.name = child\nnode.1.parent = broken\n"
      "node.2.name = grandchild\nnode.2.parent = child\n"
      "node.3.name = healthy\nnode.3.scenario = smoke.cfg\n");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();

  OrchestrateOptions options;
  options.out_dir = fresh_out_dir("poison").string();
  options.jobs = 2;
  auto outcome = run_plan(plan.value(), options);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();

  EXPECT_FALSE(outcome.value().all_ok());
  EXPECT_FALSE(outcome.value().nodes[0].status.is_ok());
  EXPECT_TRUE(outcome.value().nodes[1].skipped);
  EXPECT_TRUE(outcome.value().nodes[2].skipped);
  EXPECT_TRUE(outcome.value().nodes[3].status.is_ok());
  EXPECT_TRUE(outcome.value().nodes[3].has_row);
}

TEST(Orchestrator, ExternalParentHashMismatchFailsTheNode) {
  // Stage a real checkpoint, then claim it should hash to something else.
  const fs::path dir = fresh_out_dir("mismatch");
  {
    auto seed_plan = parse_plan(
        "node.0.name = genesis\nnode.0.scenario = smoke.cfg\n"
        "node.0.epochs = 2\nnode.1.name = tail\nnode.1.parent = genesis\n");
    ASSERT_TRUE(seed_plan.is_ok());
    OrchestrateOptions options;
    options.out_dir = dir.string();
    auto seeded = run_plan(seed_plan.value(), options);
    ASSERT_TRUE(seeded.is_ok());
    ASSERT_TRUE(seeded.value().all_ok());
  }

  auto plan = parse_plan(
      "node.0.name = resume\n"
      "node.0.parent_snapshot = " +
      (dir / "genesis.fisnap").string() +
      "\n"
      "node.0.parent_hash = " +
      std::string(64, 'f') + "\n");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  OrchestrateOptions options;
  options.out_dir = fresh_out_dir("mismatch_run").string();
  auto outcome = run_plan(plan.value(), options);
  ASSERT_TRUE(outcome.is_ok());
  const util::Status& status = outcome.value().nodes[0].status;
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("parent state hash mismatch"),
            std::string::npos)
      << status.to_string();
}

// ---------------------------------------------------------------------------
// Baseline runs
// ---------------------------------------------------------------------------

TEST(RunBaseline, DeterministicAcrossRuns) {
  BaselineSpec spec;
  spec.protocol = "sia";
  spec.sectors = 300;
  spec.files = 1500;
  spec.epochs = 3;

  std::vector<std::string> tables;
  for (int run = 0; run < 2; ++run) {
    auto row = run_baseline(spec, "sia_node");
    ASSERT_TRUE(row.is_ok()) << row.status().to_string();
    EXPECT_EQ(row.value().protocol, "Sia");
    EXPECT_EQ(row.value().epochs, 3u);
    EXPECT_TRUE(row.value().has_outcome);
    EXPECT_GE(row.value().sybil_loss_fraction, 0.0);
    EXPECT_EQ(row.value().state_hash.size(), 64u);
    tables.push_back(comparison_table_json("t", {row.value()}));
  }
  EXPECT_EQ(tables[0], tables[1]);
}

TEST(RunBaseline, RejectsUnknownProtocolAndBadKnobs) {
  BaselineSpec spec;
  spec.protocol = "magnetotape";
  EXPECT_FALSE(BaselineSpec(spec).validate().is_ok());
  EXPECT_FALSE(run_baseline(spec, "n").is_ok());
  spec.protocol = "storj";
  spec.lambda = 1.5;
  EXPECT_FALSE(BaselineSpec(spec).validate().is_ok());
  EXPECT_FALSE(run_baseline(spec, "n").is_ok());
}

TEST(RunBaseline, RejectsSpecsItCannotRun) {
  // Each used to pass validation and then abort or misreport: too few
  // units for a file's distinct holders or surviving shards, a workload
  // with nothing to lose or insure, and the retired FileInsurer model.
  const std::pair<BaselineSpec, const char*> cases[] = {
      {{.protocol = "storj", .sectors = 10}, "sectors must be >= 29"},
      {{.protocol = "filecoin", .sectors = 2}, "sectors must be >= 3"},
      {{.protocol = "sia", .sectors = 2}, "sectors must be >= 3"},
      {{.protocol = "sia", .sectors = 3, .file_size = 0}, "file_size"},
      {{.protocol = "sia", .sectors = 3, .file_value = 0}, "file_value"},
      {{.protocol = "fileinsurer"}, "scenario nodes"},
  };
  for (const auto& [spec, needle] : cases) {
    EXPECT_NE(spec.validate().message().find(needle), std::string::npos)
        << spec.validate().to_string();
    EXPECT_FALSE(run_baseline(spec, "n").is_ok()) << needle;
  }
  EXPECT_TRUE((BaselineSpec{.protocol = "sia", .sectors = 3}).validate().is_ok());
  expect_rejected(
      "node.0.name = a\nnode.0.kind = baseline\n"
      "node.0.protocol = fileinsurer\n",
      "plans/table4.plan");
}

}  // namespace
}  // namespace fi

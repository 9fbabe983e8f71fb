#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "api/baseline.h"
#include "api/comparison.h"
#include "api/experiment_plan.h"
#include "api/orchestrator.h"
#include "api/session.h"
#include "baselines/model.h"

#if !defined(FI_CONFIG_DIR) || !defined(FI_PLAN_DIR)
#error "FI_CONFIG_DIR and FI_PLAN_DIR must be defined by the build"
#endif

namespace fi::baselines {
namespace {

const Protocol& row(std::string_view key) {
  const Protocol* protocol = find_protocol(key);
  EXPECT_NE(protocol, nullptr) << key;
  return *protocol;
}

/// FileInsurer's Table IV row: the protocol engine on the shipped
/// half-collapse scenario (λ = 0.5), through the orchestrator's row builder.
ComparisonRow fileinsurer_row() {
  Session session =
      Session::from_config_file(std::string(FI_CONFIG_DIR) + "/attack_half.cfg")
          .value();
  const scenario::MetricsReport report = session.report();
  return row_from_report("fileinsurer", session.spec(), report,
                         session.epoch(), session.state_hash());
}

// ---------------------------------------------------------------------------
// Placement and loss
// ---------------------------------------------------------------------------

TEST(BaselineModelTest, LostValueThreshold) {
  // Every file on all 3 units, needing 2 of them alive.
  Model model({.key = "t", .name = "T", .holders = 3, .survive = 2}, 3, 10, 1);
  const Outcome one_dead = model.corrupt_random(0.34);  // ⌊1.02⌋ units
  EXPECT_DOUBLE_EQ(one_dead.lost_value_fraction, 0.0);  // 2 survive
  EXPECT_DOUBLE_EQ(one_dead.compensated_fraction, 1.0);
  const Outcome two_dead = model.corrupt_random(0.67);  // ⌊2.01⌋ units
  EXPECT_DOUBLE_EQ(two_dead.lost_value_fraction, 1.0);  // only 1 survives
  EXPECT_DOUBLE_EQ(two_dead.compensated_fraction, 0.0);
}

TEST(BaselineModelTest, DrawDistinctHasNoDuplicates) {
  // 50 holders on 50 units, all needed: only distinct draws put every file
  // on every unit, so that losing any one unit loses every file. A file
  // with a repeated unit misses another and survives that unit's loss.
  Model model({.key = "t", .name = "T", .holders = 50, .survive = 50}, 50,
              100, 1);
  for (int trial = 0; trial < 20; ++trial) {
    EXPECT_DOUBLE_EQ(model.corrupt_random(0.02).lost_value_fraction, 1.0);
  }
}

TEST(BaselineModelTest, CorruptFractionExactBudget) {
  // Every file on all 200 units: λ = 0.35 kills exactly 70, so a file
  // needing 130 live holders survives and one needing 131 does not.
  for (const std::uint32_t survive : {130u, 131u}) {
    Model model({.key = "t", .name = "T", .holders = 200, .survive = survive},
                200, 1, 2);
    EXPECT_DOUBLE_EQ(model.corrupt_random(0.35).lost_value_fraction,
                     survive == 130 ? 0.0 : 1.0);
  }
}

// ---------------------------------------------------------------------------
// Per-protocol behaviour
// ---------------------------------------------------------------------------

TEST(FilecoinModelTest, LosesAndBarelyCompensates) {
  Model model(row("filecoin"), 100, 5000, 3);  // 3 replicas, 10% collateral
  const Outcome outcome = model.corrupt_random(0.5);
  EXPECT_NEAR(outcome.lost_value_fraction, 0.125, 0.04);  // ~λ^3 distinct
  EXPECT_DOUBLE_EQ(outcome.compensated_fraction, 0.1);
  EXPECT_FALSE(row("filecoin").full_compensation());
  EXPECT_TRUE(row("filecoin").prevents_sybil());
}

TEST(StorjModelTest, ErasureCodeResistsModerateCorruption) {
  Model model(row("storj"), 1000, 2000, 4);  // 29-of-80
  // Losing a file needs > 51 of 80 shards dead; at λ=0.5 that's a tail
  // event of Binomial(80, 0.5) — rare.
  const Outcome mild = model.corrupt_random(0.5);
  EXPECT_LT(mild.lost_value_fraction, 0.05);
  // At λ=0.8 nearly everything dies (E[alive] = 16 < 29).
  const Outcome severe = model.corrupt_random(0.8);
  EXPECT_GT(severe.lost_value_fraction, 0.9);
  EXPECT_DOUBLE_EQ(severe.compensated_fraction, 0.0);
}

TEST(SiaModelTest, SybilCollapseAmplifiesLoss) {
  Model model(row("sia"), 300, 5000, 5);
  // Without Sybil resistance, an attacker claiming 30% of "hosts" with one
  // disk loses ~α^3 of files on a single failure...
  const Outcome sybil = model.sybil_single_disk_failure(0.3);
  EXPECT_NEAR(sybil.lost_value_fraction, 0.027, 0.012);
  EXPECT_FALSE(row("sia").prevents_sybil());
}

TEST(SybilComparison, PoRepProtocolsUnaffectedBySingleDisk) {
  // The same single-disk Sybil attack against PoRep-based protocols
  // corrupts exactly one unit: losses stay negligible.
  for (const std::string_view key : {"filecoin", "storj"}) {
    Model model(row(key), 300, 3000, 6);
    EXPECT_LT(model.sybil_single_disk_failure(0.3).lost_value_fraction, 0.01)
        << key;
  }
}

TEST(ArweaveModelTest, ReplicationFollowsStorageFraction) {
  Model model(row("arweave"), 200, 3000, 7);
  // Each file held by ~Binomial(200, 0.05) ≈ 10 miners; λ=0.5 loses
  // ~(0.5)^10 ≈ 0.1% of files.
  const Outcome outcome = model.corrupt_random(0.5);
  EXPECT_LT(outcome.lost_value_fraction, 0.01);
  EXPECT_DOUBLE_EQ(outcome.compensated_fraction, 0.0);
  // Thin storage incentive makes losses visible.
  Protocol thin = row("arweave");
  thin.storage_fraction = 0.01;
  Model fragile(thin, 200, 3000, 8);
  EXPECT_GT(fragile.corrupt_random(0.5).lost_value_fraction,
            outcome.lost_value_fraction);
}

// ---------------------------------------------------------------------------
// Table IV
// ---------------------------------------------------------------------------

TEST(TableFour, StaticPropertyMatrixMatchesPaper) {
  // Table IV's qualitative rows: FileInsurer's from its engine row, the
  // competitors' from the rows their models produce.
  const ComparisonRow fileinsurer = fileinsurer_row();
  EXPECT_TRUE(fileinsurer.capacity_scalable);
  EXPECT_TRUE(fileinsurer.prevents_sybil);
  EXPECT_TRUE(fileinsurer.provable_robustness);
  EXPECT_TRUE(fileinsurer.full_compensation);

  for (const Protocol& protocol : kProtocols) {
    const BaselineSpec spec{.protocol = std::string(protocol.key),
                            .sectors = 100,
                            .files = 100,
                            .epochs = 1};
    const ComparisonRow competitor =
        run_baseline(spec, std::string(protocol.key)).value();
    EXPECT_EQ(competitor.protocol, protocol.name);
    EXPECT_TRUE(competitor.capacity_scalable) << protocol.name;
    // Provable robustness and full compensation: FileInsurer only.
    EXPECT_FALSE(competitor.provable_robustness) << protocol.name;
    EXPECT_FALSE(competitor.full_compensation) << protocol.name;
    // Preventing Sybil attacks: all but Sia.
    EXPECT_EQ(competitor.prevents_sybil, protocol.key != "sia")
        << protocol.name;
  }
}

TEST(TableFour, CompensationOrderingUnderHalfCollapse) {
  // FileInsurer compensates fully; Filecoin partially; the rest nothing.
  const ComparisonRow fileinsurer = fileinsurer_row();
  ASSERT_TRUE(fileinsurer.has_outcome);
  Model filecoin(row("filecoin"), 200, 4000, 9);
  Model storj(row("storj"), 200, 4000, 9);
  const double fc_comp = filecoin.corrupt_random(0.5).compensated_fraction;
  const double sj_comp = storj.corrupt_random(0.8).compensated_fraction;
  EXPECT_DOUBLE_EQ(fileinsurer.compensated_fraction, 1.0);
  EXPECT_GT(fileinsurer.compensated_fraction, fc_comp);
  EXPECT_GT(fc_comp, sj_comp);
}

// The eight competitor rows of plans/table4.plan, pinned as comparison.json
// renders them: a change to the baseline model that moves a draw, a loss
// or a row hash fails here, not only in CI's nightly plan run.
TEST(TableFour, CompetitorRowsMatchPinnedText) {
  const char* const kPinned[] = {
      R"({"node": "filecoin_l03", "protocol": "Filecoin", )"
      R"("kind": "baseline", "files": 20000, "epochs": 1, )"
      R"("lost_value_fraction": 0.02655, "compensated_fraction": 0.1, )"
      R"("sybil_loss_fraction": 0, "storage_overhead": 3, )"
      R"("capacity_scalable": true, "prevents_sybil": true, )"
      R"("provable_robustness": false, "full_compensation": false, )"
      R"("state_hash": )"
      R"("c8c38940d86bcc70a263c023eb4a7e27a505ab5ffde5cd2c8ee122dfbba5926b"})",
      R"({"node": "arweave_l03", "protocol": "Arweave", )"
      R"("kind": "baseline", "files": 20000, "epochs": 1, )"
      R"("lost_value_fraction": 0, "compensated_fraction": 1, )"
      R"("sybil_loss_fraction": 0, "storage_overhead": 50.03725, )"
      R"("capacity_scalable": true, "prevents_sybil": true, )"
      R"("provable_robustness": false, "full_compensation": false, )"
      R"("state_hash": )"
      R"("e4c3cd3888533f952619f558782e1ee15eeb37f3f5b5c66d82864779c78b8e84"})",
      R"({"node": "storj_l03", "protocol": "Storj", )"
      R"("kind": "baseline", "files": 20000, "epochs": 1, )"
      R"("lost_value_fraction": 0, "compensated_fraction": 1, )"
      R"("sybil_loss_fraction": 0, )"
      R"("storage_overhead": 2.7586206896551726, )"
      R"("capacity_scalable": true, "prevents_sybil": true, )"
      R"("provable_robustness": false, "full_compensation": false, )"
      R"("state_hash": )"
      R"("585fcb6edc13eaee6b5fd23aa1d26c79a2cb68ddf80cd7bce69ea4bf78cbbe96"})",
      R"({"node": "sia_l03", "protocol": "Sia", "kind": "baseline", )"
      R"("files": 20000, "epochs": 1, "lost_value_fraction": 0.02655, )"
      R"("compensated_fraction": 0, "sybil_loss_fraction": 0.026, )"
      R"("storage_overhead": 3, "capacity_scalable": true, )"
      R"("prevents_sybil": false, "provable_robustness": false, )"
      R"("full_compensation": false, )"
      R"("state_hash": )"
      R"("58f4098cbc1eab586e92417d1cb46b687b2a35c693aac818e4bfc01153bf8e8f"})",
      R"({"node": "filecoin_l05", "protocol": "Filecoin", )"
      R"("kind": "baseline", "files": 20000, "epochs": 1, )"
      R"("lost_value_fraction": 0.12165, "compensated_fraction": 0.1, )"
      R"("sybil_loss_fraction": 0, "storage_overhead": 3, )"
      R"("capacity_scalable": true, "prevents_sybil": true, )"
      R"("provable_robustness": false, "full_compensation": false, )"
      R"("state_hash": )"
      R"("e0dda7c1a7645cb38d103d5251c670aa6c95cd5bca511b5f428589e62ca46ed1"})",
      R"({"node": "arweave_l05", "protocol": "Arweave", )"
      R"("kind": "baseline", "files": 20000, "epochs": 1, )"
      R"("lost_value_fraction": 0, "compensated_fraction": 1, )"
      R"("sybil_loss_fraction": 0, "storage_overhead": 50.03725, )"
      R"("capacity_scalable": true, "prevents_sybil": true, )"
      R"("provable_robustness": false, "full_compensation": false, )"
      R"("state_hash": )"
      R"("720a645edecf05741ee1b98fdb223f31791033cf58450ea99b340853a3e3efb8"})",
      R"({"node": "storj_l05", "protocol": "Storj", )"
      R"("kind": "baseline", "files": 20000, "epochs": 1, )"
      R"("lost_value_fraction": 0.00375, "compensated_fraction": 0, )"
      R"("sybil_loss_fraction": 0, )"
      R"("storage_overhead": 2.7586206896551726, )"
      R"("capacity_scalable": true, "prevents_sybil": true, )"
      R"("provable_robustness": false, "full_compensation": false, )"
      R"("state_hash": )"
      R"("68a007494be6a2529d10aee80a1e27145eff4797ca877ccd564eacd36c075b9f"})",
      R"({"node": "sia_l05", "protocol": "Sia", "kind": "baseline", )"
      R"("files": 20000, "epochs": 1, "lost_value_fraction": 0.12165, )"
      R"("compensated_fraction": 0, "sybil_loss_fraction": 0.02635, )"
      R"("storage_overhead": 3, "capacity_scalable": true, )"
      R"("prevents_sybil": false, "provable_robustness": false, )"
      R"("full_compensation": false, )"
      R"("state_hash": )"
      R"("1ca66272c26eed59de7c96d6f040803ecf13c8cce442c45663adc762eb31b609"})",
  };
  auto parsed = ExperimentPlan::from_file(std::string(FI_PLAN_DIR) +
                                          "/table4.plan");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ExperimentPlan plan = std::move(parsed).value();
  std::erase_if(plan.nodes, [](const PlanNode& node) {
    return node.kind != PlanNode::Kind::baseline;
  });
  ASSERT_EQ(plan.nodes.size(), std::size(kPinned));

  OrchestrateOptions options;
  options.out_dir = ::testing::TempDir();
  auto outcome = run_plan(plan, options);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  ASSERT_TRUE(outcome.value().all_ok());
  const std::vector<ComparisonRow> rows = outcome.value().rows();
  ASSERT_EQ(rows.size(), std::size(kPinned));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(comparison_table_json(plan.name, {rows[i]}),
              "{\n  \"plan\": \"table4\",\n  \"rows\": [\n    " +
                  std::string(kPinned[i]) + "\n  ]\n}\n")
        << plan.nodes[i].name;
  }
}

}  // namespace
}  // namespace fi::baselines

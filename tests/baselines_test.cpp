#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/comparison.h"
#include "api/session.h"
#include "baselines/arweave_model.h"
#include "baselines/filecoin_model.h"
#include "baselines/shard_placement.h"
#include "baselines/sia_model.h"
#include "baselines/storj_model.h"

#ifndef FI_CONFIG_DIR
#error "FI_CONFIG_DIR must be defined by the build"
#endif

namespace fi::baselines {
namespace {

std::vector<WorkloadFile> uniform_workload(std::size_t n) {
  return std::vector<WorkloadFile>(n, WorkloadFile{1024, 100});
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
// ShardPlacement
// ---------------------------------------------------------------------------

TEST(ShardPlacementTest, LostValueThreshold) {
  ShardPlacement placement;
  placement.add_file({{0, 1, 2}, 2, 100});  // needs 2 of 3 survivors
  std::vector<bool> corrupted(4, false);
  EXPECT_EQ(placement.lost_value(corrupted), 0u);
  corrupted[0] = true;
  EXPECT_EQ(placement.lost_value(corrupted), 0u);  // 2 survive
  corrupted[1] = true;
  EXPECT_EQ(placement.lost_value(corrupted), 100u);  // only 1 survives
}

TEST(ShardPlacementTest, DrawDistinctHasNoDuplicates) {
  util::Xoshiro256 rng(1);
  for (int t = 0; t < 100; ++t) {
    auto units = ShardPlacement::draw_distinct(50, 20, rng);
    std::sort(units.begin(), units.end());
    EXPECT_EQ(std::unique(units.begin(), units.end()), units.end());
    EXPECT_EQ(units.size(), 20u);
  }
}

TEST(ShardPlacementTest, CorruptFractionExactBudget) {
  util::Xoshiro256 rng(2);
  const auto corrupted = ShardPlacement::corrupt_fraction(200, 0.35, rng);
  EXPECT_EQ(std::count(corrupted.begin(), corrupted.end(), true), 70);
}

// ---------------------------------------------------------------------------
// Per-protocol behaviour
// ---------------------------------------------------------------------------

TEST(FilecoinModelTest, LosesAndBarelyCompensates) {
  FilecoinModel model;  // 3 replicas, 10% collateral
  model.setup(100, uniform_workload(5000), 3);
  const auto outcome = model.corrupt_random(0.5);
  EXPECT_NEAR(outcome.lost_value_fraction, 0.125, 0.04);  // ~λ^3 distinct
  EXPECT_DOUBLE_EQ(outcome.compensated_fraction, 0.1);
  EXPECT_FALSE(model.full_compensation());
  EXPECT_TRUE(model.prevents_sybil());
}

TEST(StorjModelTest, ErasureCodeResistsModerateCorruption) {
  StorjModel model;  // 29-of-80
  model.setup(1000, uniform_workload(2000), 4);
  // Losing a file needs > 51 of 80 shards dead; at λ=0.5 that's a tail
  // event of Binomial(80, 0.5) — rare.
  const auto mild = model.corrupt_random(0.5);
  EXPECT_LT(mild.lost_value_fraction, 0.05);
  // At λ=0.8 nearly everything dies (E[alive] = 16 < 29).
  const auto severe = model.corrupt_random(0.8);
  EXPECT_GT(severe.lost_value_fraction, 0.9);
  EXPECT_DOUBLE_EQ(severe.compensated_fraction, 0.0);
}

TEST(SiaModelTest, SybilCollapseAmplifiesLoss) {
  SiaModel model;
  model.setup(300, uniform_workload(5000), 5);
  // Without Sybil resistance, an attacker claiming 30% of "hosts" with one
  // disk loses ~α^3 of files on a single failure...
  const auto sybil = model.sybil_single_disk_failure(0.3);
  EXPECT_NEAR(sybil.lost_value_fraction, 0.027, 0.012);
  EXPECT_FALSE(model.prevents_sybil());
}

TEST(SybilComparison, PoRepProtocolsUnaffectedBySingleDisk) {
  // The same single-disk Sybil attack against PoRep-based protocols
  // corrupts exactly one unit: losses stay negligible.
  std::vector<std::unique_ptr<DsnProtocol>> protected_protocols;
  protected_protocols.push_back(std::make_unique<FilecoinModel>());
  protected_protocols.push_back(std::make_unique<StorjModel>());
  for (auto& protocol : protected_protocols) {
    protocol->setup(300, uniform_workload(3000), 6);
    const auto outcome = protocol->sybil_single_disk_failure(0.3);
    EXPECT_LT(outcome.lost_value_fraction, 0.01) << protocol->name();
  }
}

TEST(ArweaveModelTest, ReplicationFollowsStorageFraction) {
  ArweaveConfig config;
  config.storage_fraction = 0.05;
  ArweaveModel model(config);
  model.setup(200, uniform_workload(3000), 7);
  // Each file held by ~Binomial(200, 0.05) ≈ 10 miners; λ=0.5 loses
  // ~(0.5)^10 ≈ 0.1% of files.
  const auto outcome = model.corrupt_random(0.5);
  EXPECT_LT(outcome.lost_value_fraction, 0.01);
  EXPECT_DOUBLE_EQ(outcome.compensated_fraction, 0.0);
  // Thin storage incentive makes losses visible.
  ArweaveConfig thin;
  thin.storage_fraction = 0.01;
  ArweaveModel fragile(thin);
  fragile.setup(200, uniform_workload(3000), 8);
  EXPECT_GT(fragile.corrupt_random(0.5).lost_value_fraction,
            outcome.lost_value_fraction);
}

TEST(TableFour, StaticPropertyMatrixMatchesPaper) {
  // Table IV's qualitative rows: FileInsurer's from its engine row, the
  // competitors' from their models.
  const ComparisonRow fileinsurer = fileinsurer_row();
  EXPECT_TRUE(fileinsurer.capacity_scalable);
  EXPECT_TRUE(fileinsurer.prevents_sybil);
  EXPECT_TRUE(fileinsurer.provable_robustness);
  EXPECT_TRUE(fileinsurer.full_compensation);

  FilecoinModel filecoin;
  ArweaveModel arweave;
  StorjModel storj;
  SiaModel sia;
  const DsnProtocol* protocols[] = {&filecoin, &arweave, &storj, &sia};
  for (const DsnProtocol* p : protocols) {
    EXPECT_TRUE(p->capacity_scalable()) << p->name();
    // Provable robustness and full compensation: FileInsurer only.
    EXPECT_FALSE(p->provable_robustness()) << p->name();
    EXPECT_FALSE(p->full_compensation()) << p->name();
  }
  // Preventing Sybil attacks: all but Sia.
  EXPECT_TRUE(filecoin.prevents_sybil());
  EXPECT_TRUE(arweave.prevents_sybil());
  EXPECT_TRUE(storj.prevents_sybil());
  EXPECT_FALSE(sia.prevents_sybil());
}

TEST(TableFour, CompensationOrderingUnderHalfCollapse) {
  // FileInsurer compensates fully; Filecoin partially; the rest nothing.
  const ComparisonRow fileinsurer = fileinsurer_row();
  ASSERT_TRUE(fileinsurer.has_outcome);
  FilecoinModel filecoin;
  StorjModel storj;
  filecoin.setup(200, uniform_workload(4000), 9);
  storj.setup(200, uniform_workload(4000), 9);
  const double fc_comp = filecoin.corrupt_random(0.5).compensated_fraction;
  const double sj_comp = storj.corrupt_random(0.8).compensated_fraction;
  EXPECT_DOUBLE_EQ(fileinsurer.compensated_fraction, 1.0);
  EXPECT_GT(fileinsurer.compensated_fraction, fc_comp);
  EXPECT_GT(fc_comp, sj_comp);
}

}  // namespace
}  // namespace fi::baselines

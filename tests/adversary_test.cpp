// Adversary engine: adversary.<i>.* spec parsing/rejection/round-trips,
// per-strategy same-seed determinism of the serialized reports,
// per-strategy outcome counters / attribution, and the informed pool's
// span-greedy recruitment.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/spec.h"
#include "adversary/strategy.h"
#include "api/session.h"
#include "scenario/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/config.h"

namespace {

using fi::adversary::AdversarySpec;
using fi::adversary::StrategyKind;
using fi::scenario::AdversaryMetrics;
using fi::scenario::MetricsReport;
using fi::scenario::PhaseSpec;
using fi::scenario::ScenarioRunner;
using fi::scenario::ScenarioSpec;
using fi::util::Config;

// ---- Spec parsing ----------------------------------------------------------

TEST(AdversarySpecTest, StrategyNamesRoundTrip) {
  for (const StrategyKind kind :
       {StrategyKind::targeted_file, StrategyKind::colluding_pool,
        StrategyKind::proof_withholder, StrategyKind::churn_griefer,
        StrategyKind::adaptive_threshold, StrategyKind::refresh_saboteur,
        StrategyKind::informed_pool}) {
    const auto parsed =
        fi::adversary::strategy_kind_from_name(strategy_kind_name(kind));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(fi::adversary::strategy_kind_from_name("meteor").is_ok());
}

ScenarioSpec adversary_base_spec() {
  ScenarioSpec spec;
  spec.name = "adv";
  spec.seed = 71;
  spec.sectors = 60;
  spec.sector_units = 4;
  spec.initial_files = 300;
  spec.file_size_min = 1024;
  spec.file_size_max = 1024;
  spec.file_value = 10;
  spec.params.min_value = 10;
  spec.params.k = 3;
  spec.params.cap_para = 200.0;
  spec.params.gamma_deposit = 0.05;
  spec.params.avg_refresh = 5.0;
  spec.phases.push_back(PhaseSpec::make_idle(6));
  spec.phases.push_back(PhaseSpec::make_rent_audit(1));
  return spec;
}

TEST(AdversarySpecTest, ConfigRoundTripIsLosslessForEveryStrategy) {
  ScenarioSpec spec = adversary_base_spec();
  spec.adversaries.push_back(AdversarySpec::make_targeted_file(2, 40, 1));
  spec.adversaries.push_back(AdversarySpec::make_colluding_pool(0.25, 3, 2));
  spec.adversaries.push_back(
      AdversarySpec::make_proof_withholder(0.125, 100, 1));
  spec.adversaries.push_back(AdversarySpec::make_churn_griefer(5, 2, 1));
  spec.adversaries.push_back(
      AdversarySpec::make_adaptive_threshold(1000, 1, 2, 0));
  spec.adversaries.push_back(AdversarySpec::make_refresh_saboteur(0.5, 4, 1));
  spec.adversaries.back().label = "saboteur-A";

  const std::string text = spec.to_config_string();
  const auto config = Config::parse(text);
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  const auto reparsed = ScenarioSpec::from_config(config.value());
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed.value().to_config_string(), text);
  ASSERT_EQ(reparsed.value().adversaries.size(), 6u);
  EXPECT_EQ(reparsed.value().adversaries[0].kind, StrategyKind::targeted_file);
  EXPECT_EQ(reparsed.value().adversaries[0].budget, 40u);
  EXPECT_DOUBLE_EQ(reparsed.value().adversaries[1].fraction, 0.25);
  EXPECT_EQ(reparsed.value().adversaries[2].saved_per_cycle, 100u);
  EXPECT_EQ(reparsed.value().adversaries[3].period, 2u);
  EXPECT_EQ(reparsed.value().adversaries[4].penalty_budget, 1000u);
  EXPECT_EQ(reparsed.value().adversaries[5].label, "saboteur-A");
}

void expect_rejected(const std::string& text) {
  const auto config = Config::parse(text);
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  EXPECT_FALSE(ScenarioSpec::from_config(config.value()).is_ok())
      << "config unexpectedly accepted:\n"
      << text;
}

TEST(AdversarySpecTest, RejectsMalformedBlocks) {
  const std::string base = "sectors = 10\n";
  // Unknown strategy.
  expect_rejected(base + "adversary.0.strategy = meteor_strike\n");
  // Knob the strategy does not take.
  expect_rejected(base +
                  "adversary.0.strategy = targeted_file\n"
                  "adversary.0.fraction = 0.5\n");
  expect_rejected(base +
                  "adversary.0.strategy = colluding_pool\n"
                  "adversary.0.fraction = 0.5\n"
                  "adversary.0.budget = 3\n");
  // Missing required knobs.
  expect_rejected(base + "adversary.0.strategy = proof_withholder\n"
                         "adversary.0.fraction = 0.5\n");  // no saved_per_cycle
  expect_rejected(base + "adversary.0.strategy = churn_griefer\n");  // sectors
  expect_rejected(base +
                  "adversary.0.strategy = adaptive_threshold\n");  // budget
  // Fractions out of range (including NaN, which passes naive checks).
  expect_rejected(base +
                  "adversary.0.strategy = refresh_saboteur\n"
                  "adversary.0.fraction = 1.5\n");
  expect_rejected(base +
                  "adversary.0.strategy = refresh_saboteur\n"
                  "adversary.0.fraction = nan\n");
  expect_rejected(base +
                  "adversary.0.strategy = colluding_pool\n"
                  "adversary.0.fraction = 0\n");  // zero members: no-op spec
  // Block indices must start at 0 with no gaps (the orphan block is
  // caught by the unknown-key sweep).
  expect_rejected(base + "adversary.1.strategy = targeted_file\n");
  // Type errors inside a known key.
  expect_rejected(base +
                  "adversary.0.strategy = targeted_file\n"
                  "adversary.0.sectors_per_epoch = many\n");
}

TEST(AdversarySpecTest, ValidateRejectsWrongKindKnobsOnInCodeSpecs) {
  // Every adversary key, set off its default, and the strategies that
  // take it.
  struct AdversaryKey {
    const char* name;
    void (*set_off_default)(AdversarySpec&);
    std::vector<StrategyKind> takers;
  };
  const std::vector<StrategyKind> all = {
      StrategyKind::targeted_file,      StrategyKind::colluding_pool,
      StrategyKind::proof_withholder,   StrategyKind::churn_griefer,
      StrategyKind::adaptive_threshold, StrategyKind::refresh_saboteur,
      StrategyKind::retrieval_ddos,     StrategyKind::cartel_starver,
      StrategyKind::informed_pool};
  const AdversaryKey keys[] = {
      {"start_epoch", [](AdversarySpec& a) { a.start_epoch = 2; }, all},
      {"sectors_per_epoch", [](AdversarySpec& a) { a.sectors_per_epoch = 2; },
       {StrategyKind::targeted_file}},
      {"budget", [](AdversarySpec& a) { a.budget = 5; },
       {StrategyKind::targeted_file}},
      {"fraction", [](AdversarySpec& a) { a.fraction = 0.5; },
       {StrategyKind::colluding_pool, StrategyKind::proof_withholder,
        StrategyKind::refresh_saboteur, StrategyKind::cartel_starver,
        StrategyKind::informed_pool}},
      {"window", [](AdversarySpec& a) { a.window = 2; },
       {StrategyKind::colluding_pool, StrategyKind::informed_pool}},
      {"saved_per_cycle", [](AdversarySpec& a) { a.saved_per_cycle = 5; },
       {StrategyKind::proof_withholder}},
      {"max_withhold_streak",
       [](AdversarySpec& a) { a.max_withhold_streak = 2; },
       {StrategyKind::proof_withholder}},
      {"sectors", [](AdversarySpec& a) { a.sectors = 3; },
       {StrategyKind::churn_griefer}},
      {"period", [](AdversarySpec& a) { a.period = 2; },
       {StrategyKind::churn_griefer}},
      {"rate", [](AdversarySpec& a) { a.rate = 2; },
       {StrategyKind::adaptive_threshold}},
      {"penalty_budget", [](AdversarySpec& a) { a.penalty_budget = 100; },
       {StrategyKind::adaptive_threshold}},
      {"escalate_every", [](AdversarySpec& a) { a.escalate_every = 2; },
       {StrategyKind::adaptive_threshold}},
      {"requests_per_epoch", [](AdversarySpec& a) { a.requests_per_epoch = 5; },
       {StrategyKind::retrieval_ddos}},
      {"gang", [](AdversarySpec& a) { a.gang = 2; },
       {StrategyKind::retrieval_ddos}},
      {"duration", [](AdversarySpec& a) { a.duration = 3; },
       {StrategyKind::refresh_saboteur, StrategyKind::retrieval_ddos,
        StrategyKind::cartel_starver}},
  };
  // One valid adversary of each strategy.
  const AdversarySpec adversaries[] = {
      AdversarySpec::make_targeted_file(2),
      AdversarySpec::make_colluding_pool(0.2),
      AdversarySpec::make_proof_withholder(0.2, 10),
      AdversarySpec::make_churn_griefer(5),
      AdversarySpec::make_adaptive_threshold(1000),
      AdversarySpec::make_refresh_saboteur(0.2),
      AdversarySpec::make_retrieval_ddos(10),
      AdversarySpec::make_cartel_starver(0.2),
      AdversarySpec::make_informed_pool(0.2),
  };
  ScenarioSpec base = adversary_base_spec();
  ScenarioSpec griefer = base;
  griefer.adversaries.push_back(AdversarySpec::make_churn_griefer(0));
  EXPECT_FALSE(griefer.validate().is_ok());  // a griefer needs sectors

  base.traffic.enabled = true;  // retrieval_ddos and cartel_starver need it
  base.traffic.requests_per_cycle = 10;

  for (const AdversarySpec& adversary : adversaries) {
    const std::string kind = strategy_kind_name(adversary.kind);
    ScenarioSpec spec = base;
    spec.adversaries = {adversary};
    ASSERT_TRUE(spec.validate().is_ok())
        << kind << ": " << spec.validate().to_string();
    const std::string text = spec.to_config_string();
    for (const AdversaryKey& key : keys) {
      const std::string name = std::string("adversary.0.") + key.name;
      const bool takes = std::find(key.takers.begin(), key.takers.end(),
                                   adversary.kind) != key.takers.end();
      // The strategy's text carries exactly the keys it takes.
      EXPECT_EQ(text.find(name + " = ") != std::string::npos, takes)
          << kind << " / " << key.name;
      if (takes) continue;

      // In code: another strategy's knob off its default fails validate().
      ScenarioSpec in_code = spec;
      key.set_off_default(in_code.adversaries[0]);
      const fi::util::Status status = in_code.validate();
      EXPECT_FALSE(status.is_ok()) << kind << " / " << key.name;
      EXPECT_NE(status.message().find(name + " is not a knob of a " + kind),
                std::string::npos)
          << status.to_string();

      // In config text: the same key is an unknown key.
      const auto config = Config::parse(text + name + " = 1\n");
      ASSERT_TRUE(config.is_ok()) << config.status().to_string();
      const auto parsed = ScenarioSpec::from_config(config.value());
      ASSERT_FALSE(parsed.is_ok()) << kind << " / " << key.name;
      EXPECT_NE(parsed.status().message().find("unknown config keys"),
                std::string::npos)
          << parsed.status().to_string();
      EXPECT_NE(parsed.status().message().find(name), std::string::npos)
          << parsed.status().to_string();
    }
  }
}

// ---- Determinism -----------------------------------------------------------

ScenarioSpec strategy_spec(StrategyKind kind) {
  ScenarioSpec spec = adversary_base_spec();
  switch (kind) {
    case StrategyKind::targeted_file:
      spec.adversaries.push_back(AdversarySpec::make_targeted_file(2, 0, 1));
      break;
    case StrategyKind::colluding_pool:
      spec.adversaries.push_back(
          AdversarySpec::make_colluding_pool(0.2, 2, 1));
      break;
    case StrategyKind::informed_pool:
      spec.adversaries.push_back(AdversarySpec::make_informed_pool(0.2, 2, 1));
      break;
    case StrategyKind::proof_withholder:
      spec.adversaries.push_back(
          AdversarySpec::make_proof_withholder(0.25, 100, 1));
      break;
    case StrategyKind::churn_griefer:
      spec.adversaries.push_back(AdversarySpec::make_churn_griefer(6, 2, 1));
      break;
    case StrategyKind::adaptive_threshold:
      spec.adversaries.push_back(
          AdversarySpec::make_adaptive_threshold(2000, 1, 2, 1));
      break;
    case StrategyKind::refresh_saboteur:
      spec.adversaries.push_back(
          AdversarySpec::make_refresh_saboteur(0.3, 3, 1));
      break;
    case StrategyKind::retrieval_ddos:
      // Exercised in depth by traffic_test.cpp; here just a valid spec.
      spec.traffic.enabled = true;
      spec.traffic.requests_per_cycle = 16;
      spec.traffic.streams = 4;
      spec.adversaries.push_back(AdversarySpec::make_retrieval_ddos(20, 2, 1));
      break;
    case StrategyKind::cartel_starver:
      spec.traffic.enabled = true;
      spec.traffic.requests_per_cycle = 16;
      spec.traffic.streams = 4;
      spec.adversaries.push_back(AdversarySpec::make_cartel_starver(0.3, 0, 1));
      break;
  }
  return spec;
}

TEST(AdversaryDeterminismTest, SameSeedIsByteIdentical) {
  for (const StrategyKind kind :
       {StrategyKind::targeted_file, StrategyKind::colluding_pool,
        StrategyKind::proof_withholder, StrategyKind::churn_griefer,
        StrategyKind::adaptive_threshold, StrategyKind::refresh_saboteur,
        StrategyKind::informed_pool}) {
    ScenarioRunner first(strategy_spec(kind));
    const std::string reference = first.run().to_json(false);
    ASSERT_FALSE(reference.empty());
    EXPECT_NE(reference.find("\"adversaries\""), std::string::npos);
    EXPECT_NE(reference.find("\"rent_conserved\": true"), std::string::npos)
        << strategy_kind_name(kind);

    ScenarioRunner repeat(strategy_spec(kind));
    EXPECT_EQ(reference, repeat.run().to_json(false))
        << "same-seed drift for " << strategy_kind_name(kind);
  }
}

// ---- Outcome counters and attribution --------------------------------------

const AdversaryMetrics& single_adversary(const MetricsReport& report) {
  EXPECT_EQ(report.adversaries.size(), 1u);
  return report.adversaries.front();
}

/// A strategy's report extra, or -1 when it never set it.
double extra(const AdversaryMetrics& adv, const std::string& name) {
  for (const auto& [key, value] : adv.counters.extras) {
    if (key == name) return value;
  }
  return -1.0;
}

TEST(AdversaryCountersTest, TargetedFileAttacksAndAttributes) {
  ScenarioRunner runner(strategy_spec(StrategyKind::targeted_file));
  const MetricsReport report = runner.run();
  const AdversaryMetrics& adv = single_adversary(report);
  EXPECT_EQ(adv.strategy, "targeted_file");
  EXPECT_GT(adv.counters.sectors_corrupted, 0u);
  EXPECT_GT(adv.counters.replicas_attacked, 0u);
  EXPECT_GT(adv.counters.deposits_confiscated, 0u);
  // Every strategy corruption is visible in the engine totals.
  EXPECT_LE(adv.counters.sectors_corrupted, report.totals.sectors_corrupted);
  EXPECT_LE(adv.counters.files_lost, report.totals.files_lost);
  EXPECT_LE(adv.counters.compensation_paid, report.totals.value_compensated);
  // The strategy reports its target.
  EXPECT_GE(extra(adv, "target_file"), 0.0);
}

TEST(AdversaryCountersTest, ProofWithholderPaysPenaltiesButKeepsDeposits) {
  ScenarioRunner runner(strategy_spec(StrategyKind::proof_withholder));
  const MetricsReport report = runner.run();
  const AdversaryMetrics& adv = single_adversary(report);
  EXPECT_GT(adv.counters.proofs_withheld, 0u);
  EXPECT_GT(adv.counters.penalties_paid, 0u);
  // The whole point: it skates below ProofDeadline, so nothing is ever
  // confiscated and no file is lost.
  EXPECT_EQ(adv.counters.deposits_confiscated, 0u);
  EXPECT_EQ(report.totals.sectors_corrupted, 0u);
  EXPECT_EQ(report.totals.files_lost, 0u);
  EXPECT_TRUE(report.rent_conserved);
}

TEST(AdversaryCountersTest, ChurnGrieferCyclesItsFleet) {
  ScenarioRunner runner(strategy_spec(StrategyKind::churn_griefer));
  const MetricsReport report = runner.run();
  const AdversaryMetrics& adv = single_adversary(report);
  EXPECT_GE(adv.counters.sectors_joined, 6u);   // at least the initial fleet
  EXPECT_GT(adv.counters.sectors_exited, 0u);
  EXPECT_EQ(report.totals.files_lost, 0u);  // griefing must not lose data
  EXPECT_TRUE(report.rent_conserved);
}

TEST(AdversaryCountersTest, RefreshSaboteurRefusesAndStops) {
  ScenarioRunner runner(strategy_spec(StrategyKind::refresh_saboteur));
  const MetricsReport report = runner.run();
  const AdversaryMetrics& adv = single_adversary(report);
  EXPECT_GT(adv.counters.transfers_refused, 0u);
  EXPECT_GT(adv.counters.penalties_paid, 0u);
  EXPECT_GT(report.totals.refreshes_failed, 0u);
  EXPECT_EQ(report.totals.files_lost, 0u);  // sabotage delays, never destroys
}

TEST(AdversaryCountersTest, AdaptiveThresholdGoesDormantUnderBudget) {
  ScenarioRunner runner(strategy_spec(StrategyKind::adaptive_threshold));
  const MetricsReport report = runner.run();
  const AdversaryMetrics& adv = single_adversary(report);
  EXPECT_GT(adv.counters.sectors_corrupted, 0u);
  // Budget 2000 vs 1600-token deposits: it must stop after the first few
  // confiscations.
  EXPECT_EQ(extra(adv, "went_dormant"), 1.0);
  EXPECT_GE(adv.counters.deposits_confiscated, 2000u);
}

// ---- informed_pool ---------------------------------------------------------

TEST(InformedPoolTest, RecruitsExactlyItsFractionOfTheLiveFleet) {
  for (const double fraction : {0.1, 0.25, 0.5}) {
    ScenarioSpec spec = adversary_base_spec();  // 60 sectors
    spec.adversaries.push_back(AdversarySpec::make_informed_pool(fraction));
    ScenarioRunner runner(std::move(spec));
    const MetricsReport report = runner.run();
    const AdversaryMetrics& adv = single_adversary(report);
    const auto expected = static_cast<double>(std::llround(fraction * 60.0));
    EXPECT_EQ(extra(adv, "pool_size"), expected) << fraction;
    EXPECT_EQ(static_cast<double>(adv.counters.sectors_corrupted), expected)
        << fraction;
  }
}

TEST(InformedPoolTest, LosesMoreThanTwiceTheFilesOfARandomPool) {
  // With files scarce relative to sectors, knowing the placement lets the
  // pool spend its 60-sector budget on whole replica sets (about 27 of 100
  // files); a random pool of the same size loses about λ^3 ≈ 2.7%.
  const auto files_lost = [](AdversarySpec adversary) {
    ScenarioSpec spec = adversary_base_spec();
    spec.sectors = 200;
    spec.sector_units = 1;
    spec.initial_files = 100;
    spec.adversaries.push_back(std::move(adversary));
    ScenarioRunner runner(std::move(spec));
    return runner.run().totals.files_lost;
  };
  const std::uint64_t informed =
      files_lost(AdversarySpec::make_informed_pool(0.3, 1, 1));
  const std::uint64_t random =
      files_lost(AdversarySpec::make_colluding_pool(0.3, 1, 1));
  EXPECT_GT(informed, 2 * random) << "random pool lost " << random;
}

TEST(InformedPoolTest, ResumeMidWindowIsByteIdentical) {
  // Window 3 from epoch 1: saved after epoch 1's turn, a third of the pool
  // is corrupted and the rest is saved state.
  ScenarioSpec spec = adversary_base_spec();
  spec.adversaries.push_back(AdversarySpec::make_informed_pool(0.3, 3, 1));

  fi::Session whole = fi::Session::from_spec(spec).value();
  const std::string reference = whole.report().to_json(false);

  fi::Session first = fi::Session::from_spec(spec).value();
  ASSERT_EQ(first.run_epochs(2), 2u);
  const std::string path = ::testing::TempDir() + "fi_informed_pool.fisnap";
  ASSERT_TRUE(first.checkpoint(path).is_ok());
  fi::Session resumed = fi::Session::from_snapshot_file(path).value();
  std::filesystem::remove(path);
  EXPECT_EQ(resumed.report().to_json(false), reference);
  EXPECT_EQ(resumed.state_hash(), whole.state_hash());
}

TEST(AdversaryCountersTest, ReportOmitsAdversariesWhenNoneConfigured) {
  ScenarioSpec spec = adversary_base_spec();
  ScenarioRunner runner(std::move(spec));
  const std::string json = runner.run().to_json(false);
  EXPECT_EQ(json.find("\"adversaries\""), std::string::npos);
}

}  // namespace

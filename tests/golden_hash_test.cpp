#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "api/session.h"
#include "crypto/sha256.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "snapshot/snapshot.h"
#include "util/binary_io.h"
#include "util/hex.h"

/// The tier-1 half of the golden-hash contract: every shipped config's
/// end-of-run state hash — what `fi_sim --scenario <cfg> --hash-state`
/// prints — must equal its line in tests/golden/state_hashes.txt, and rent
/// conservation and the insurance identity must hold after every epoch
/// and in its report. The million-file `churn_1m` run is left to the CI
/// golden-hashes job, which regenerates the whole file with
/// scripts/update_golden_hashes.sh.
///
/// The spec text itself is pinned too (`SpecText.*`): checkpoints embed
/// it, and every key's parser and emitter walk one table, so a byte moved
/// by a table edit shows here before it reaches a snapshot.
namespace fi {
namespace {

namespace fs = std::filesystem;

#if !defined(FI_CONFIG_DIR) || !defined(FI_GOLDEN_FILE)
#error "FI_CONFIG_DIR and FI_GOLDEN_FILE must be defined by the build"
#endif

/// Too slow for every test run: about 13 s in a Release build on a
/// 4-core Xeon, where the other fifteen configs take 0.4 s together.
constexpr const char* kCiOnlyConfig = "churn_1m";

/// Stems (file names without `.cfg`) of every shipped config but the
/// CI-only one, sorted.
std::vector<std::string> tier1_config_names() {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(FI_CONFIG_DIR)) {
    const std::string stem = entry.path().stem().string();
    if (entry.path().extension() == ".cfg" && stem != kCiOnlyConfig) {
      names.push_back(stem);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// `<name> <sha256-hex>` lines.
std::map<std::string, std::string> golden_hashes() {
  std::map<std::string, std::string> hashes;
  std::ifstream in(FI_GOLDEN_FILE);
  std::string name;
  std::string hash;
  while (in >> name >> hash) hashes[name] = hash;
  return hashes;
}

class GoldenHash : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenHash, EndStateMatchesGoldenFile) {
  const std::string& name = GetParam();
  const std::map<std::string, std::string> golden = golden_hashes();
  const auto expected = golden.find(name);
  ASSERT_NE(expected, golden.end()) << name << " has no golden hash";

  auto spec =
      Session::load_spec((fs::path(FI_CONFIG_DIR) / (name + ".cfg")).string());
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
  scenario::ScenarioRunner runner(std::move(spec).value());

  // The protocol's two invariants hold after every epoch: rent
  // conservation (§IV-A2) and the insurance identity (§IV-B) — every lost
  // token was either compensated or is still owed.
  while (runner.run_cycles(1) == 1) {
    const core::Network& net = runner.network();
    const core::NetworkStats stats = net.stats();
    EXPECT_EQ(net.total_rent_charged(),
              net.total_rent_paid() +
                  runner.ledger().balance(net.rent_pool_account()))
        << name << " epoch " << runner.epoch();
    EXPECT_EQ(stats.value_lost, stats.value_compensated +
                                    net.deposits().outstanding_liabilities())
        << name << " epoch " << runner.epoch();
  }
  const scenario::MetricsReport report = runner.finalize();
  EXPECT_EQ(snapshot::state_hash(runner), expected->second)
      << name << ": if the behavior change is intended, run "
      << "scripts/update_golden_hashes.sh and commit the result";
  EXPECT_TRUE(report.rent_conserved) << name;
  EXPECT_EQ(report.totals.value_lost,
            report.totals.value_compensated + report.outstanding_liabilities)
      << name;
}

std::string config_label(const ::testing::TestParamInfo<std::string>& param) {
  std::string label = param.param;
  for (char& c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return label;
}

INSTANTIATE_TEST_SUITE_P(ShippedConfigs, GoldenHash,
                         ::testing::ValuesIn(tier1_config_names()),
                         config_label);

// ---- State hash = digest of the encoded body --------------------------------

/// `state_hash` streams the canonical body through a hash-only writer;
/// `encode_state` buffers it. Mid-run, with tasks pending and a phase half
/// done, the two must still be one encoding: the hash is the SHA-256 of
/// the body a checkpoint embeds.
class StateHashEncoding : public ::testing::TestWithParam<std::string> {};

TEST_P(StateHashEncoding, MidRunHashIsTheDigestOfTheEncodedBody) {
  auto spec = Session::load_spec(
      (fs::path(FI_CONFIG_DIR) / (GetParam() + ".cfg")).string());
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
  std::uint64_t epochs = 0;
  for (const scenario::PhaseSpec& phase : spec.value().phases) {
    epochs += phase.kind == scenario::PhaseKind::rent_audit
                  ? phase.periods * spec.value().params.rent_period_cycles
                  : phase.cycles;
  }
  scenario::ScenarioRunner runner(std::move(spec).value());
  ASSERT_EQ(runner.run_cycles(epochs / 2), epochs / 2);
  const std::vector<std::uint8_t> body = snapshot::encode_state(runner);
  EXPECT_GT(body.size(), util::BinaryWriter::kStageBytes);
  EXPECT_EQ(snapshot::state_hash(runner), util::to_hex(crypto::sha256(body)))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ShippedConfigs, StateHashEncoding,
                         ::testing::ValuesIn(tier1_config_names()),
                         config_label);

// ---- Spec text --------------------------------------------------------------

std::string sha256_hex(const std::string& text) {
  return util::to_hex(crypto::sha256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size())));
}

/// SHA-256 of `ScenarioSpec::to_config_string()` (`fi_sim --dump-spec`) of
/// every shipped config, churn_1m included: loading a spec runs nothing.
const std::map<std::string, std::string> kSpecTextPins = {
    {"adaptive_threshold",
     "457e4fee82c0d48918dbd3a80b4dacfabe1ba0c491e6ae0f03d182df0d9fc9ba"},
    {"attack_half",
     "ccadec484cff1b7b100fe38476a547da79a44cf935c110808c855a5549b9b038"},
    {"churn_1m",
     "4a73750d7c3ee0f35215f46d752daf612c320aa6c55d119251acd75044dc26a9"},
    {"churn_griefer",
     "b35ffd6c94729599c779220a0493bc6072b19d559ceacd51c885c3565650ce27"},
    {"colluding_pool",
     "7124355f31292d73ccce83753c0edfa3bf09c9302513a92ecc501fc98f1b68d8"},
    {"crash_restart",
     "0e435d58da9e881754653b77cba309ed071f3cbe8ac5c8461f938f98dfc8eccc"},
    {"flash_crowd",
     "49e6db3cd634ba1164fcaffb06ffb5eb6cf770e960cfbb24bd0178c0cc27a5cc"},
    {"partition_refresh",
     "3cc34d54aebec3e6d240897ea264f13bd69a45fb2f9adf62a33476f20e9ad3bb"},
    {"proof_withholder",
     "566a6f84cafced1889899d765b653105575b5e3182023a7f2decb3e63e736573"},
    {"refresh_saboteur",
     "b1cb5a7f7d0f62638ec5925053421e7cd20195d0a8ddf3aaa31294042496eb81"},
    {"regional_latency",
     "b7704a822c085bc9848a0dad5208ff671b59094eb50519442edd0c11fdc89693"},
    {"retrieval_ddos",
     "fc512521bacf351dc48c51a025de99332c8625f455bfca0c76f0d136cb72654a"},
    {"retrieval_zipf",
     "b27ae1dd8a9405e7da7278571a98552ca995567893cb988dc86e0c711c052289"},
    {"selfish_refresh",
     "b826a576e6090e373d4c863ca5d51e2e83894633509e3e659749c6fc5322c539"},
    {"smoke",
     "ef35e0a621114edf6772a1ec10296c3798267f10def6f4f3bf6094c20892f130"},
    {"targeted_file",
     "fb5afbe08767b3acccb8813c3b6d756235e7a97944af06fa1a9b1462d47ea958"},
};

TEST(SpecText, ShippedConfigsSerializeToPinnedBytes) {
  std::size_t configs = 0;
  for (const auto& entry : fs::directory_iterator(FI_CONFIG_DIR)) {
    if (entry.path().extension() != ".cfg") continue;
    ++configs;
    const std::string name = entry.path().stem().string();
    const auto pin = kSpecTextPins.find(name);
    ASSERT_NE(pin, kSpecTextPins.end()) << name << " has no spec-text pin";
    const auto spec = Session::load_spec(entry.path().string());
    ASSERT_TRUE(spec.is_ok()) << name << ": " << spec.status().to_string();
    EXPECT_EQ(sha256_hex(spec.value().to_config_string()), pin->second)
        << name << ": fi_sim --dump-spec moved; if the config change is "
        << "intended, re-pin it here";
  }
  EXPECT_EQ(configs, kSpecTextPins.size());
}

/// A valid spec that uses every phase kind and every adversary strategy,
/// with every key of every block off its default. No shipped config
/// uses `admit` or `informed_pool`; it lives here, not under configs/,
/// because the golden-hash tests and CI run every config there.
scenario::ScenarioSpec every_knob_spec() {
  using adversary::AdversarySpec;
  using scenario::PhaseSpec;
  scenario::ScenarioSpec spec;
  spec.name = "every_knob";
  spec.seed = 9;
  spec.sectors = 40;
  spec.sector_units = 3;
  spec.initial_files = 50;
  spec.file_size_min = 1000;
  spec.file_size_max = 3000;
  spec.file_value = 200;

  core::Params& net = spec.params;
  net.min_capacity = 32768;
  net.min_value = 50;
  net.k = 2;
  net.cap_para = 12.5;
  net.gamma_deposit = 0.0625;
  net.proof_cycle = 90;
  net.proof_due = 140;
  net.proof_deadline = 280;
  net.avg_refresh = 7.5;
  net.delay_per_kib = 2;
  net.min_transfer_window = 3;
  net.unit_rent = 2;
  net.traffic_fee_per_kib = 3;
  net.gas_per_task = 1;
  net.punish_bp = 150;
  net.rent_period_cycles = 5;
  net.max_alloc_resample = 500;
  net.distinct_sectors = true;
  net.admission_rebalance = true;

  spec.network.enabled = true;
  spec.network.regions = 3;
  spec.network.base_latency = 1;
  spec.network.region_latency = 2;
  spec.network.ticks_per_kib = 1;
  spec.network.jitter = 1;
  spec.network.drop_probability = 0.01;

  traffic::TrafficSpec& traffic = spec.traffic;
  traffic.enabled = true;
  traffic.requests_per_cycle = 30;
  traffic.streams = 4;
  traffic.zipf_s = 1.1;
  traffic.diurnal_period = 6;
  traffic.diurnal_amplitude = 0.25;
  traffic.flash_epoch = 2;
  traffic.flash_duration = 3;
  traffic.flash_multiplier = 3;
  traffic.flash_focus = 0.75;
  traffic.provider_capacity = 32;
  traffic.queue_limit = 128;
  traffic.cache_blocks = 1024;
  traffic.price_per_kib = 2;
  traffic.defense_enabled = true;
  traffic.defense_warmup = 3;
  traffic.defense_k = 3.5;
  traffic.defense_violations = 3;
  traffic.defense_surge = 2;
  traffic.defense_rate_limit = false;

  spec.phases.push_back(PhaseSpec::make_idle(2));
  spec.phases.back().label = "warmup";
  spec.phases.push_back(PhaseSpec::make_churn(3, 10, 0.125, true));
  spec.phases.push_back(PhaseSpec::make_corrupt_burst(0.0625, 2));
  spec.phases.push_back(PhaseSpec::make_selfish_refresh(0.3, 2));
  spec.phases.back().label = "coalition";
  spec.phases.push_back(PhaseSpec::make_rent_audit(2));
  spec.phases.push_back(PhaseSpec::make_admit(4, 2));
  spec.phases.push_back(PhaseSpec::make_partition(1, 2));
  spec.phases.push_back(PhaseSpec::make_outage(2, 1, 2));

  spec.adversaries.push_back(AdversarySpec::make_targeted_file(2, 10, 1));
  spec.adversaries.back().label = "sniper";
  spec.adversaries.push_back(AdversarySpec::make_colluding_pool(0.2, 3, 2));
  spec.adversaries.push_back(
      AdversarySpec::make_proof_withholder(0.1, 5, 1));
  spec.adversaries.back().max_withhold_streak = 2;
  spec.adversaries.push_back(AdversarySpec::make_churn_griefer(4, 2, 1));
  spec.adversaries.push_back(
      AdversarySpec::make_adaptive_threshold(500, 2, 3, 1));
  spec.adversaries.push_back(AdversarySpec::make_refresh_saboteur(0.15, 4, 1));
  spec.adversaries.push_back(AdversarySpec::make_retrieval_ddos(20, 2, 1));
  spec.adversaries.back().duration = 3;
  spec.adversaries.push_back(AdversarySpec::make_cartel_starver(0.05, 2, 1));
  spec.adversaries.push_back(AdversarySpec::make_informed_pool(0.25, 2, 3));
  return spec;
}

TEST(SpecText, EveryKindAndKnobSpecIsPinned) {
  const scenario::ScenarioSpec spec = every_knob_spec();
  ASSERT_TRUE(spec.validate().is_ok()) << spec.validate().to_string();
  const std::string text = spec.to_config_string();
  EXPECT_EQ(sha256_hex(text),
            "a84e138bbba7cb60e1f970fd7bb2fff1f688b3489025bbed91fe3f83dd5d01cd")
      << text;

  const auto config = util::Config::parse(text);
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  const auto reparsed = scenario::ScenarioSpec::from_config(config.value());
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed.value().to_config_string(), text);
}

}  // namespace
}  // namespace fi

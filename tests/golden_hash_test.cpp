#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "api/session.h"

/// The tier-1 half of the golden-hash contract: every shipped config's
/// end-of-run state hash — what `fi_sim --scenario <cfg> --hash-state`
/// prints — must equal its line in tests/golden/state_hashes.txt, and its
/// report must satisfy rent conservation and the insurance identity. The
/// million-file `churn_1m` run is left to the CI golden-hashes job, which
/// regenerates the whole file with scripts/update_golden_hashes.sh.
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

  auto session = Session::from_config_file(
      (fs::path(FI_CONFIG_DIR) / (name + ".cfg")).string());
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  const scenario::MetricsReport report = session.value().report();
  EXPECT_EQ(session.value().state_hash(), expected->second)
      << name << ": if the behavior change is intended, run "
      << "scripts/update_golden_hashes.sh and commit the result";

  // The protocol's two end-of-run invariants: rent conservation (§IV-A2)
  // and the insurance identity (§IV-B) — every lost token was either
  // compensated or is still owed.
  EXPECT_TRUE(report.rent_conserved) << name;
  EXPECT_EQ(report.totals.value_lost,
            report.totals.value_compensated + report.outstanding_liabilities)
      << name;
}

INSTANTIATE_TEST_SUITE_P(
    ShippedConfigs, GoldenHash, ::testing::ValuesIn(tier1_config_names()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string label = param.param;
      for (char& c : label) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
      }
      return label;
    });

}  // namespace
}  // namespace fi

// Fuzz target for the config and plan readers — the text handed to
// `fi_sim --scenario` and `fi_orchestrate --plan` — and for the overrides
// that `fi_sim --set`, plan `set.*` keys and forks layer on a spec
// (`Session::spec_with_overrides`). `util::Config::parse`, then
// `ScenarioSpec::from_config` and `ExperimentPlan::from_config`, must
// answer every text with a Status and never throw, and so must the
// overrides; a spec they accept must emit text (`to_config_string`) that
// parses back to the same text.
//
// An input is a config or plan text, optionally followed by a NUL byte and
// NUL-separated `key=value` override records, each split at its first '='
// as `fi_sim --set` splits its argument.
//
// Two build modes:
//
//   * FI_ENABLE_FUZZERS=ON with Clang: linked against libFuzzer
//     (`-fsanitize=fuzzer,address,undefined`) as the `fuzz_config_reader`
//     binary. Seed its corpus with the shipped configs and plans:
//       mkdir corpus && cp configs/*.cfg plans/*.plan corpus/
//       ./fuzz_config_reader corpus/
//
//   * any other compiler: a plain `main` takes config and plan files, or
//     directories of them, as seeds and replays a deterministic battery
//     over each: every value replaced by hostile tokens, every line
//     dropped in turn, truncations and bit flips, and for each config
//     every emitted key and a few odd ones overridden with the hostile
//     tokens and with values only an override can carry. ctest runs it
//     over configs/ and plans/.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "api/experiment_plan.h"
#include "api/session.h"
#include "scenario/spec.h"
#include "util/config.h"

namespace {

struct Outcome {
  bool spec_accepted = false;
  bool plan_accepted = false;
  /// The input carried overrides and the overridden spec was accepted.
  bool overrides_accepted = false;
  /// False when an accepted spec's emitted text does not read back to
  /// itself.
  bool round_trips = true;
};

fi::util::Result<fi::scenario::ScenarioSpec> read_spec(std::string_view text) {
  auto config = fi::util::Config::parse(text);
  if (!config.is_ok()) return config.status();
  return fi::scenario::ScenarioSpec::from_config(config.value());
}

bool round_trips(const fi::scenario::ScenarioSpec& spec) {
  const std::string emitted = spec.to_config_string();
  auto again = read_spec(emitted);
  return again.is_ok() && again.value().to_config_string() == emitted;
}

/// The NUL-separated `key=value` records of `records`; a record without
/// '=' is a key with an empty value.
fi::Session::OpenOptions overrides_of(std::string_view records) {
  fi::Session::OpenOptions options;
  while (!records.empty()) {
    const std::string_view record = records.substr(0, records.find('\0'));
    records.remove_prefix(std::min(records.size(), record.size() + 1));
    const std::size_t eq = record.find('=');
    options.overrides.emplace_back(
        record.substr(0, eq),
        eq == std::string_view::npos ? "" : record.substr(eq + 1));
  }
  return options;
}

// One fuzz iteration. Each reader parses its own `Config`, which records
// the keys it consumed.
Outcome one_input(std::string_view input) {
  const std::size_t nul = input.find('\0');
  const std::string_view text = input.substr(0, nul);
  Outcome outcome;
  auto spec = read_spec(text);
  if (spec.is_ok()) {
    outcome.spec_accepted = true;
    outcome.round_trips = round_trips(spec.value());
    if (nul != std::string_view::npos) {
      auto overridden = fi::Session::spec_with_overrides(
          spec.value(), overrides_of(input.substr(nul + 1)));
      if (overridden.is_ok()) {
        outcome.overrides_accepted = true;
        outcome.round_trips =
            outcome.round_trips && round_trips(overridden.value());
      }
    }
  }
  if (auto config = fi::util::Config::parse(text); config.is_ok()) {
    outcome.plan_accepted =
        fi::ExperimentPlan::from_config(config.value(), "").is_ok();
  }
  return outcome;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  if (!one_input(text).round_trips) __builtin_trap();
  return 0;
}

#if !defined(FI_HAVE_LIBFUZZER)

#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

namespace {

// Values a config author, or a corrupted file, might write: signs,
// overflow past 2^32 and 2^64, non-finite and out-of-range doubles, other
// radixes, separators, booleans, comment and `=` characters.
constexpr std::string_view kHostileValues[] = {
    "",
    "-1",
    "+1",
    "-0",
    "0",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "1e309",
    "-1e309",
    "1e-400",
    "nan",
    "inf",
    "0x10",
    "1_000",
    "_",
    "0.5",
    "true",
    "yes",
    "a=b",
    "#",
};

// Values only an override carries: the text parser trims each value, ends
// it at a comment and ends its line at a newline, while `--set` splits at
// the first '=' only.
constexpr std::string_view kOverrideOnlyValues[] = {
    " 1", "1 ", "1\n2", "1#2", "1;2", "1=2",
};

// xorshift64: deterministic harness-local noise, so a failure replays.
std::uint64_t next_noise(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

class Battery {
 public:
  /// Runs one input; false (after naming it) when a reader threw or an
  /// accepted spec did not round-trip.
  bool run(const std::string& text, const std::string& what) {
    ++ran_;
    try {
      const Outcome outcome = one_input(text);
      accepted_specs_ += outcome.spec_accepted;
      accepted_plans_ += outcome.plan_accepted;
      accepted_overrides_ += outcome.overrides_accepted;
      if (outcome.round_trips) return true;
      std::cerr << "fuzz_config_reader: " << what
                << ": the accepted spec does not round-trip\n";
    } catch (const std::exception& e) {
      std::cerr << "fuzz_config_reader: " << what << ": threw " << e.what()
                << "\n";
    } catch (...) {
      std::cerr << "fuzz_config_reader: " << what << ": threw\n";
    }
    return false;
  }

  bool seed(const std::string& text, const std::string& name) {
    bool ok = run(text, name);
    const std::vector<std::string> lines = split_lines(text);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string at = name + ":" + std::to_string(i + 1);
      std::vector<std::string> edited = lines;
      edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(i));
      ok &= run(join_lines(edited), at + " dropped");
      const std::size_t eq = lines[i].find('=');
      const std::size_t comment = lines[i].find_first_of("#;");
      if (eq == std::string::npos || comment < eq) continue;
      for (const std::string_view value : kHostileValues) {
        edited = lines;
        edited[i] = lines[i].substr(0, eq + 1) + " " + std::string(value);
        ok &= run(join_lines(edited), at + " = '" + std::string(value) + "'");
      }
    }
    // Truncated at each line end and mid-line.
    std::size_t line_start = 0;
    for (const std::string& line : lines) {
      for (const std::size_t cut :
           {line_start + line.size() / 2, line_start + line.size()}) {
        ok &= run(text.substr(0, cut),
                  name + " cut at byte " + std::to_string(cut));
      }
      line_start += line.size() + 1;
    }
    // Single-bit flips at deterministic positions.
    std::uint64_t noise = 0x9e3779b97f4a7c15ULL ^ text.size();
    for (int flip = 0; flip < 256 && !text.empty(); ++flip) {
      const std::uint64_t r = next_noise(noise);
      const std::size_t byte = r % text.size();
      std::string flipped = text;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << (r >> 61)));
      ok &= run(flipped, name + " bit flip at byte " + std::to_string(byte));
    }
    ok &= overrides(text, name);
    return ok;
  }

  /// Overrides every key a config's spec emits, and keys it cannot take,
  /// with each hostile and override-only value. A plan has no spec.
  bool overrides(const std::string& text, const std::string& name) {
    auto spec = read_spec(text);
    if (!spec.is_ok()) return true;
    // `run(text)` has failed a spec whose emitted text does not parse.
    auto emitted = fi::util::Config::parse(spec.value().to_config_string());
    if (!emitted.is_ok()) return false;
    std::vector<std::string> keys;
    for (const auto& [key, value] : emitted.value().entries()) {
      keys.push_back(key);
    }
    const std::string next_phase =
        "phase." + std::to_string(spec.value().phases.size()) + ".";
    const std::string next_adversary =
        "adversary." + std::to_string(spec.value().adversaries.size()) + ".";
    keys.insert(keys.end(),
                {"", " seed", "seed ", next_phase + "kind",
                 next_phase + "cycles", next_adversary + "strategy",
                 next_adversary + "fraction", "node.0.id", "set.seed",
                 "engine.workers", "net.cr_size"});
    std::vector<std::string_view> values(std::begin(kHostileValues),
                                         std::end(kHostileValues));
    values.insert(values.end(), std::begin(kOverrideOnlyValues),
                  std::end(kOverrideOnlyValues));
    bool ok = true;
    for (const std::string& key : keys) {
      for (const std::string_view value : values) {
        const std::string record = key + "=" + std::string(value);
        ok &= run(text + '\0' + record, name + " --set '" + record + "'");
      }
    }
    return ok;
  }

  void summary(std::size_t seeds) const {
    std::cout << "fuzz_config_reader: replayed " << ran_ << " inputs from "
              << seeds << " seeds; " << accepted_specs_ << " specs, "
              << accepted_plans_ << " plans and " << accepted_overrides_
              << " overridden specs accepted\n";
  }

 private:
  std::size_t ran_ = 0;
  std::size_t accepted_specs_ = 0;
  std::size_t accepted_plans_ = 0;
  std::size_t accepted_overrides_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::vector<fs::path> seeds;
  for (int i = 1; i < argc; ++i) {
    const fs::path path(argv[i]);
    if (fs::is_directory(path)) {
      std::vector<fs::path> files;
      for (const auto& entry : fs::directory_iterator(path)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      std::sort(files.begin(), files.end());
      seeds.insert(seeds.end(), files.begin(), files.end());
    } else {
      seeds.push_back(path);
    }
  }
  if (seeds.empty()) {
    std::cerr << "usage: fuzz_config_reader <config, plan or directory>...\n";
    return 2;
  }
  Battery battery;
  bool ok = true;
  for (const fs::path& path : seeds) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "fuzz_config_reader: cannot read " << path.string()
                << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    ok &= battery.seed(text.str(), path.filename().string());
  }
  battery.summary(seeds.size());
  return ok ? 0 : 1;
}

#endif  // !FI_HAVE_LIBFUZZER

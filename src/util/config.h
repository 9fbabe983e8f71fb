#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// Tiny dependency-free scenario-config parser (`src/scenario` front door).
///
/// A config is a flat string-to-string map parsed from either of two
/// syntaxes, auto-detected from the first non-whitespace character:
///
///  * key=value lines — `#` and `;` start comments, blank lines are
///    skipped, keys may be dotted (`phase.0.kind = churn`);
///  * a flat JSON object of scalars — `{"seed": 42, "phase.0.kind":
///    "churn"}` (strings, numbers, true/false; no nesting, no arrays).
///
/// Typed getters parse values strictly (the whole token must consume, no
/// trailing junk) and report failures as `util::Status`. The object tracks
/// which keys were read so a consumer can reject configs containing
/// unknown keys — the main defense against silently ignored typos.
namespace fi::util {

/// Strict unsigned decimal parse for CLI arguments: digits only (no sign,
/// no trailing junk — `strtoull` alone would wrap negatives and let a
/// typo'd token become 0), overflow rejected. Zero is accepted; callers
/// with positive-only semantics check the value. One definition shared by
/// every tool/bench so the edge cases cannot drift.
[[nodiscard]] bool parse_u64(const char* text, std::uint64_t& out);

class Config {
 public:
  /// Parses config text (auto-detecting key=value vs flat JSON).
  static Result<Config> parse(std::string_view text);
  /// Reads and parses a config file.
  static Result<Config> load(const std::string& path);

  [[nodiscard]] bool contains(const std::string& key) const {
    return values_.contains(key);
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// Raw string value; marks the key as consumed.
  [[nodiscard]] Result<std::string> get_string(const std::string& key) const;
  /// Unsigned integer (decimal, optional underscores as digit separators).
  [[nodiscard]] Result<std::uint64_t> get_u64(const std::string& key) const;
  /// Floating point (also accepts integer literals; rejects nan/inf —
  /// no protocol parameter is meaningfully non-finite, and NaN slips
  /// through naive range checks).
  [[nodiscard]] Result<double> get_double(const std::string& key) const;
  /// Boolean: true/false/1/0/on/off/yes/no (case-sensitive).
  [[nodiscard]] Result<bool> get_bool(const std::string& key) const;

  /// Getter-with-default variants: absent key returns `fallback`; a present
  /// but malformed value is still an error.
  [[nodiscard]] Result<std::string> get_string_or(const std::string& key,
                                                  std::string fallback) const;
  [[nodiscard]] Result<std::uint64_t> get_u64_or(const std::string& key,
                                                 std::uint64_t fallback) const;
  [[nodiscard]] Result<double> get_double_or(const std::string& key,
                                             double fallback) const;
  [[nodiscard]] Result<bool> get_bool_or(const std::string& key,
                                         bool fallback) const;

  /// Inserts or overwrites a key (CLI `--set key=value` overrides).
  void set(std::string key, std::string value);

  /// Keys never read through any getter, in sorted order. A strict
  /// consumer calls this after reading everything it understands and
  /// rejects the config if the list is non-empty.
  [[nodiscard]] std::vector<std::string> unconsumed_keys() const;

  /// All keys in sorted order (round-trip serialization, diagnostics).
  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return values_;
  }

 private:
  [[nodiscard]] Result<std::string> raw(const std::string& key) const;

  std::map<std::string, std::string> values_;
  /// Consumption tracking is observational bookkeeping, not object state:
  /// getters stay const so parsing code can take `const Config&`.
  mutable std::set<std::string> consumed_;
};

/// Shortest decimal rendering that strtod round-trips to the same finite
/// double — shared by spec serialization and JSON reports so the two can
/// never drift.
[[nodiscard]] std::string format_shortest_double(double value);

}  // namespace fi::util

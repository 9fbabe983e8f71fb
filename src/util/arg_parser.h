#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

/// Declarative CLI flag parsing shared by the repo's tools (`fi_sim`,
/// `fi_orchestrate`). Every tool follows the same exit-code contract,
/// pinned by `tests/cli_contract_test.cpp`:
///
///     0  success
///     1  the run itself failed (bad input file, invariant violation,
///        rent leak, snapshot mismatch, ...)
///     2  usage error (unknown flag, malformed value, missing operand)
///
/// Flags are registered with typed sinks; `parse` walks argv, fills the
/// sinks, and rejects unknown flags and malformed values with a
/// descriptive `Status` (the caller prints it plus the generated help and
/// exits 2 — see `usage_error`). `--help` is built in: when present,
/// parsing succeeds, `help_requested()` turns true, and the caller prints
/// `help_text()` to stdout and exits 0.
namespace fi::util {

class ArgParser {
 public:
  /// `prog` is the binary name used in messages; `synopsis` is the
  /// one-line usage tail (e.g. "--scenario <config> [options]").
  ArgParser(std::string prog, std::string synopsis);

  /// Presence flag (no operand); `*out` is set true when seen.
  void add_flag(const std::string& name, bool* out, std::string help);

  /// String-valued flag taking one operand.
  void add_string(const std::string& name, std::string* out,
                  std::string value_name, std::string help);

  /// Unsigned flag with strict `parse_u64` validation. Values below
  /// `min` are rejected with "<name> expects <expects>, got '<value>'";
  /// `expects` defaults to "a number".
  void add_u64(const std::string& name, std::uint64_t* out,
               std::string value_name, std::string help,
               std::uint64_t min = 0, std::string expects = {});

  /// Repeatable `--flag key=value` pairs ('=' required, key non-empty).
  void add_repeated_kv(
      const std::string& name,
      std::vector<std::pair<std::string, std::string>>* out,
      std::string help);

  /// Walks argv; on failure the sinks may be partially filled and the
  /// caller should exit via `usage_error`.
  [[nodiscard]] Status parse(int argc, char** argv);

  /// True when `--help` appeared anywhere in argv.
  [[nodiscard]] bool help_requested() const { return help_requested_; }

  /// True when `name` appeared at least once in the parsed argv.
  [[nodiscard]] bool seen(const std::string& name) const;

  /// Generated usage + per-flag help (registration order).
  [[nodiscard]] std::string help_text() const;

  /// Prints "<prog>: <message>" and the usage line to stderr; returns 2
  /// (the usage exit code) so callers can `return parser.usage_error(st)`.
  [[nodiscard]] int usage_error(const Status& status) const;
  [[nodiscard]] int usage_error(const std::string& message) const;

 private:
  enum class Kind : std::uint8_t { presence, string, u64, kv };

  struct Flag {
    std::string name;
    Kind kind = Kind::presence;
    std::string value_name;
    std::string help;
    std::uint64_t min = 0;
    std::string expects;
    bool seen = false;
    bool* bool_out = nullptr;
    std::string* string_out = nullptr;
    std::uint64_t* u64_out = nullptr;
    std::vector<std::pair<std::string, std::string>>* kv_out = nullptr;
  };

  Flag* find(const std::string& name);
  [[nodiscard]] const Flag* find(const std::string& name) const;

  std::string prog_;
  std::string synopsis_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace fi::util

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/status.h"

/// Tiny dependency-free scenario-config parser (`src/scenario` front door).
///
/// A config is a flat string-to-string map parsed from key=value lines:
/// `#` and `;` start comments, blank lines are skipped, and keys may be
/// dotted (`phase.0.kind = churn`).
///
/// Typed getters parse values strictly (the whole token must consume, no
/// trailing junk) and report failures as `util::Status`. The object tracks
/// which keys were read so a consumer can reject configs containing
/// unknown keys — the main defense against silently ignored typos.
///
/// Spec blocks declare their typed keys once, as a constexpr table of
/// `Key<S>` rows; `read_keys`, `write_keys` and `foreign_knob` below are
/// the parser, the emitter and the wrong-kind check over such a table.
namespace fi::util {

/// Strict unsigned decimal parse for CLI arguments: digits only (no sign,
/// no trailing junk — `strtoull` alone would wrap negatives and let a
/// typo'd token become 0), overflow rejected. Zero is accepted; callers
/// with positive-only semantics check the value. One definition shared by
/// every tool/bench so the edge cases cannot drift.
[[nodiscard]] bool parse_u64(const char* text, std::uint64_t& out);

class Config {
 public:
  /// Parses key=value config text.
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

/// `what must lie in [0, 1]` unless `value` does (NaN included).
[[nodiscard]] Status check_fraction(double value, const std::string& what);

/// String values (names, labels) must survive the key=value syntax: no
/// comment starters, newlines, or leading/trailing whitespace.
[[nodiscard]] Status check_serializable(const std::string& value,
                                        const std::string& what);

// ---- Key tables ------------------------------------------------------------

/// Every kind takes the key.
inline constexpr std::uint32_t kAllKinds = ~std::uint32_t{0};

/// The mask of `kinds` (enum values below 32): one bit per phase kind or
/// adversary strategy.
template <typename... E>
[[nodiscard]] constexpr std::uint32_t kind_bits(E... kinds) {
  return (std::uint32_t{0} | ... |
          (std::uint32_t{1} << static_cast<unsigned>(kinds)));
}

/// One typed config key of a spec block `S`: its name below the block's
/// prefix, the member it sets, and the kinds that take it. The member's
/// initializer is the key's default.
template <typename S>
struct Key {
  const char* name;
  std::variant<std::uint64_t S::*, std::uint32_t S::*, double S::*,
               bool S::*>
      member;
  std::uint32_t kinds = kAllKinds;
};

namespace detail {

template <typename T>
Status read_value(const Config& config, const std::string& key, T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    auto parsed = config.get_bool_or(key, value);
    if (!parsed.is_ok()) return parsed.status();
    value = parsed.value();
  } else if constexpr (std::is_same_v<T, double>) {
    auto parsed = config.get_double_or(key, value);
    if (!parsed.is_ok()) return parsed.status();
    value = parsed.value();
  } else {
    auto parsed = config.get_u64_or(key, value);
    if (!parsed.is_ok()) return parsed.status();
    // u32 members are range-checked, not narrowed: a config either
    // applies exactly or errors.
    if constexpr (std::is_same_v<T, std::uint32_t>) {
      if (parsed.value() > std::numeric_limits<std::uint32_t>::max()) {
        return err(ErrorCode::invalid_argument,
                   "config key '" + key + "': value " +
                       std::to_string(parsed.value()) +
                       " exceeds the 32-bit range");
      }
    }
    value = static_cast<T>(parsed.value());
  }
  return Status::ok();
}

template <typename T>
std::string format_value(T value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    return format_shortest_double(value);
  } else {
    return std::to_string(value);
  }
}

}  // namespace detail

/// Reads each row `kind` takes from `prefix + name`; an absent key keeps
/// the member's value (the default, on a fresh `S`). Rows `kind` does not
/// take stay unread, so the caller's unknown-key sweep rejects them.
template <typename S, std::size_t N>
[[nodiscard]] Status read_keys(const Config& config, const std::string& prefix,
                               const Key<S> (&keys)[N], std::uint32_t kind,
                               S& out) {
  for (const Key<S>& key : keys) {
    if ((key.kinds & kind) == 0) continue;
    const Status status = std::visit(
        [&](auto member) {
          return detail::read_value(config, prefix + key.name, out.*member);
        },
        key.member);
    if (!status.is_ok()) return status;
  }
  return Status::ok();
}

/// Appends a `prefix + name = value` line for each row `kind` takes, in
/// table order: integers in decimal, doubles shortest round-trip
/// (`format_shortest_double`), booleans as true/false.
template <typename S, std::size_t N>
void write_keys(std::string& out, const std::string& prefix,
                const Key<S> (&keys)[N], std::uint32_t kind, const S& in) {
  for (const Key<S>& key : keys) {
    if ((key.kinds & kind) == 0) continue;
    out += prefix;
    out += key.name;
    out += " = ";
    std::visit([&](auto member) { out += detail::format_value(in.*member); },
               key.member);
    out += '\n';
  }
}

/// The first row `kind` does not take whose member differs from
/// `defaults` (the header defaults, `S{}`), or nullptr. In-code specs
/// bypass the unknown-key sweep, so this is what keeps them from carrying
/// another kind's knob (or, with `kind == 0`, any knob of a disabled
/// block).
template <typename S, std::size_t N>
[[nodiscard]] const char* foreign_knob(const Key<S> (&keys)[N],
                                       std::uint32_t kind, const S& in,
                                       const S& defaults) {
  for (const Key<S>& key : keys) {
    if ((key.kinds & kind) != 0) continue;
    const bool off_default = std::visit(
        [&](auto member) { return !(in.*member == defaults.*member); },
        key.member);
    if (off_default) return key.name;
  }
  return nullptr;
}

}  // namespace fi::util

#include "util/config.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace fi::util {

bool parse_u64(const char* text, std::uint64_t& out) {
  if (*text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  out = std::strtoull(text, nullptr, 10);
  return errno == 0;
}

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool valid_key(std::string_view key) {
  if (key.empty()) return false;
  for (const char c : key) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                    c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Status parse_key_values(std::string_view text, Config& out) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return err(ErrorCode::invalid_argument,
                 "config line " + std::to_string(line_no) +
                     ": expected key = value, got '" + std::string(line) +
                     "'");
    }
    const std::string key{trim(line.substr(0, eq))};
    const std::string value{trim(line.substr(eq + 1))};
    if (!valid_key(key)) {
      return err(ErrorCode::invalid_argument,
                 "config line " + std::to_string(line_no) +
                     ": invalid key '" + key + "'");
    }
    if (out.contains(key)) {
      return err(ErrorCode::invalid_argument,
                 "config line " + std::to_string(line_no) +
                     ": duplicate key '" + key + "'");
    }
    out.set(key, value);
  }
  return Status::ok();
}

/// Strips underscore digit separators (1_000_000) for numeric parsing.
std::string strip_separators(const std::string& value) {
  std::string digits;
  digits.reserve(value.size());
  for (const char c : value) {
    if (c != '_') digits.push_back(c);
  }
  return digits;
}

}  // namespace

Result<Config> Config::parse(std::string_view text) {
  Config config;
  if (Status status = parse_key_values(text, config); !status.is_ok()) {
    return status;
  }
  return config;
}

Result<Config> Config::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return err(ErrorCode::not_found, "cannot open config file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

Result<std::string> Config::raw(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return err(ErrorCode::not_found, "missing config key '" + key + "'");
  }
  consumed_.insert(key);
  return it->second;
}

Result<std::string> Config::get_string(const std::string& key) const {
  return raw(key);
}

Result<std::uint64_t> Config::get_u64(const std::string& key) const {
  auto value = raw(key);
  if (!value.is_ok()) return value.status();
  const std::string digits = strip_separators(value.value());
  if (digits.empty() || digits.front() == '-' || digits.front() == '+') {
    return err(ErrorCode::invalid_argument,
               "config key '" + key + "': expected an unsigned integer, got '" +
                   value.value() + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(digits.c_str(), &end, 10);
  if (errno != 0 || end != digits.c_str() + digits.size()) {
    return err(ErrorCode::invalid_argument,
               "config key '" + key + "': expected an unsigned integer, got '" +
                   value.value() + "'");
  }
  return static_cast<std::uint64_t>(parsed);
}

Result<double> Config::get_double(const std::string& key) const {
  auto value = raw(key);
  if (!value.is_ok()) return value.status();
  const std::string digits = strip_separators(value.value());
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(digits.c_str(), &end);
  if (digits.empty() || errno != 0 ||
      end != digits.c_str() + digits.size() || !std::isfinite(parsed)) {
    return err(ErrorCode::invalid_argument,
               "config key '" + key + "': expected a finite number, got '" +
                   value.value() + "'");
  }
  return parsed;
}

Result<bool> Config::get_bool(const std::string& key) const {
  auto value = raw(key);
  if (!value.is_ok()) return value.status();
  const std::string& v = value.value();
  if (v == "true" || v == "1" || v == "on" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "off" || v == "no") return false;
  return err(ErrorCode::invalid_argument,
             "config key '" + key + "': expected a boolean, got '" + v + "'");
}

Result<std::string> Config::get_string_or(const std::string& key,
                                          std::string fallback) const {
  if (!contains(key)) return fallback;
  return get_string(key);
}

Result<std::uint64_t> Config::get_u64_or(const std::string& key,
                                         std::uint64_t fallback) const {
  if (!contains(key)) return fallback;
  return get_u64(key);
}

Result<double> Config::get_double_or(const std::string& key,
                                     double fallback) const {
  if (!contains(key)) return fallback;
  return get_double(key);
}

Result<bool> Config::get_bool_or(const std::string& key, bool fallback) const {
  if (!contains(key)) return fallback;
  return get_bool(key);
}

std::string format_shortest_double(double value) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

Status check_fraction(double value, const std::string& what) {
  // Negated closed-range test so NaN (which fails every comparison) is
  // rejected instead of slipping through `< 0 || > 1`.
  if (!(value >= 0.0 && value <= 1.0)) {
    return err(ErrorCode::invalid_argument,
               what + " must lie in [0, 1], got " +
                   format_shortest_double(value));
  }
  return Status::ok();
}

Status check_serializable(const std::string& value, const std::string& what) {
  if (value.find_first_of("#;\n\r") != std::string::npos ||
      value != trim(value)) {
    return err(ErrorCode::invalid_argument,
               what + " must not contain '#', ';', newlines, or "
                      "leading/trailing whitespace: '" +
                   value + "'");
  }
  return Status::ok();
}

std::vector<std::string> Config::unconsumed_keys() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : values_) {
    if (!consumed_.contains(key)) unread.push_back(key);
  }
  return unread;
}

}  // namespace fi::util

#include "util/arg_parser.h"

#include <cstdio>

#include "util/check.h"
#include "util/config.h"

namespace fi::util {

ArgParser::ArgParser(std::string prog, std::string synopsis)
    : prog_(std::move(prog)), synopsis_(std::move(synopsis)) {}

ArgParser::Flag* ArgParser::find(const std::string& name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

const ArgParser::Flag* ArgParser::find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

void ArgParser::add_flag(const std::string& name, bool* out,
                         std::string help) {
  FI_CHECK_MSG(find(name) == nullptr, "duplicate flag " << name);
  Flag flag;
  flag.name = name;
  flag.kind = Kind::presence;
  flag.help = std::move(help);
  flag.bool_out = out;
  flags_.push_back(std::move(flag));
}

void ArgParser::add_string(const std::string& name, std::string* out,
                           std::string value_name, std::string help) {
  FI_CHECK_MSG(find(name) == nullptr, "duplicate flag " << name);
  Flag flag;
  flag.name = name;
  flag.kind = Kind::string;
  flag.value_name = std::move(value_name);
  flag.help = std::move(help);
  flag.string_out = out;
  flags_.push_back(std::move(flag));
}

void ArgParser::add_u64(const std::string& name, std::uint64_t* out,
                        std::string value_name, std::string help,
                        std::uint64_t min, std::string expects) {
  FI_CHECK_MSG(find(name) == nullptr, "duplicate flag " << name);
  Flag flag;
  flag.name = name;
  flag.kind = Kind::u64;
  flag.value_name = std::move(value_name);
  flag.help = std::move(help);
  flag.min = min;
  flag.expects = expects.empty() ? "a number" : std::move(expects);
  flag.u64_out = out;
  flags_.push_back(std::move(flag));
}

void ArgParser::add_repeated_kv(
    const std::string& name,
    std::vector<std::pair<std::string, std::string>>* out, std::string help) {
  FI_CHECK_MSG(find(name) == nullptr, "duplicate flag " << name);
  Flag flag;
  flag.name = name;
  flag.kind = Kind::kv;
  flag.value_name = "key=value";
  flag.help = std::move(help);
  flag.kv_out = out;
  flags_.push_back(std::move(flag));
}

Status ArgParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      help_requested_ = true;
      continue;
    }
    Flag* flag = find(arg);
    if (flag == nullptr) {
      return err(ErrorCode::invalid_argument,
                 "unknown argument '" + arg + "'");
    }
    flag->seen = true;
    if (flag->kind == Kind::presence) {
      *flag->bool_out = true;
      continue;
    }
    if (i + 1 >= argc) {
      return err(ErrorCode::invalid_argument,
                 arg + " expects a value (" + flag->value_name + ")");
    }
    const std::string value = argv[++i];
    switch (flag->kind) {
      case Kind::string:
        *flag->string_out = value;
        break;
      case Kind::u64: {
        std::uint64_t parsed = 0;
        if (!parse_u64(value.c_str(), parsed) || parsed < flag->min) {
          return err(ErrorCode::invalid_argument,
                     arg + " expects " + flag->expects + ", got '" + value +
                         "'");
        }
        *flag->u64_out = parsed;
        break;
      }
      case Kind::kv: {
        const std::size_t eq = value.find('=');
        if (eq == std::string::npos || eq == 0) {
          return err(ErrorCode::invalid_argument,
                     arg + " expects key=value, got '" + value + "'");
        }
        flag->kv_out->emplace_back(value.substr(0, eq), value.substr(eq + 1));
        break;
      }
      case Kind::presence:
        break;  // handled above
    }
  }
  return Status::ok();
}

bool ArgParser::seen(const std::string& name) const {
  const Flag* flag = find(name);
  return flag != nullptr && flag->seen;
}

std::string ArgParser::help_text() const {
  std::string text = "usage: " + prog_ + " " + synopsis_ + "\n\n";
  for (const Flag& flag : flags_) {
    std::string head = "  " + flag.name;
    if (flag.kind != Kind::presence) head += " <" + flag.value_name + ">";
    text += head;
    // Align help at column 26; spill long heads onto their own line.
    if (head.size() < 25) {
      text.append(26 - head.size(), ' ');
    } else {
      text += "\n";
      text.append(26, ' ');
    }
    // Indent continuation lines of multi-line help strings.
    for (const char c : flag.help) {
      text += c;
      if (c == '\n') text.append(26, ' ');
    }
    text += "\n";
  }
  text += "  --help";
  text.append(26 - 8, ' ');
  text += "print this help and exit\n";
  return text;
}

int ArgParser::usage_error(const Status& status) const {
  return usage_error(status.message());
}

int ArgParser::usage_error(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", prog_.c_str(), message.c_str());
  std::fprintf(stderr, "usage: %s %s\n(run %s --help for the full list)\n",
               prog_.c_str(), synopsis_.c_str(), prog_.c_str());
  return 2;
}

}  // namespace fi::util

#include "util/status.h"

namespace fi::util {

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::ok: return "OK";
    case ErrorCode::invalid_argument: return "INVALID_ARGUMENT";
    case ErrorCode::not_found: return "NOT_FOUND";
    case ErrorCode::already_exists: return "ALREADY_EXISTS";
    case ErrorCode::permission_denied: return "PERMISSION_DENIED";
    case ErrorCode::insufficient_funds: return "INSUFFICIENT_FUNDS";
    case ErrorCode::insufficient_space: return "INSUFFICIENT_SPACE";
    case ErrorCode::failed_precondition: return "FAILED_PRECONDITION";
    case ErrorCode::unavailable: return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  if (is_ok()) return "OK";
  std::string out{error_code_name(code_)};
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace fi::util

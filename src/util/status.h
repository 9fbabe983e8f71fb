#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

/// Lightweight error propagation for *expected* protocol rejections.
///
/// Per the C++ Core Guidelines we reserve exceptions for violated invariants
/// and programming errors (see `util/check.h`); a transaction that is simply
/// rejected by the protocol (insufficient funds, unknown sector, bad proof) is
/// a normal outcome and is reported through `Status` / `Result<T>`.
namespace fi::util {

/// Machine-readable rejection categories mirroring protocol failure modes.
enum class ErrorCode {
  ok = 0,
  invalid_argument,
  not_found,
  already_exists,
  permission_denied,   ///< caller is not the owner of the sector/file
  insufficient_funds,  ///< balance/deposit cannot cover the operation
  insufficient_space,  ///< sector free capacity below requested size
  failed_precondition, ///< entity in the wrong state for this request
  unavailable,         ///< counterparty did not respond in time
};

/// Human-readable name for an `ErrorCode`.
std::string_view error_code_name(ErrorCode code);

/// Outcome of an operation that can fail in expected ways.
class [[nodiscard]] Status {
 public:
  /// Successful status.
  Status() = default;

  /// Failed status with a diagnostic message.
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status{}; }

  [[nodiscard]] bool is_ok() const { return code_ == ErrorCode::ok; }
  explicit operator bool() const { return is_ok(); }

  [[nodiscard]] ErrorCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Full "CODE: message" rendering for logs and test failures.
  [[nodiscard]] std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::ok;
  std::string message_;
};

/// A value or a failure `Status`. Analogous to `std::expected` (C++23).
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Successful result.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Failed result; `status` must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    if (status_.is_ok()) {
      throw std::logic_error("Result constructed from OK status without value");
    }
  }

  [[nodiscard]] bool is_ok() const { return value_.has_value(); }
  explicit operator bool() const { return is_ok(); }

  [[nodiscard]] const Status& status() const { return status_; }

  /// Access the contained value; throws if the result holds an error.
  [[nodiscard]] const T& value() const& {
    require_value();
    return *value_;
  }
  [[nodiscard]] T& value() & {
    require_value();
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    require_value();
    return *std::move(value_);
  }

 private:
  void require_value() const {
    if (!value_.has_value()) {
      throw std::logic_error("Result::value() on error: " + status_.to_string());
    }
  }

  std::optional<T> value_;
  Status status_;
};

/// Convenience factories used across protocol code.
inline Status err(ErrorCode code, std::string message) {
  return Status{code, std::move(message)};
}

}  // namespace fi::util

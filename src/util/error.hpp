// Error handling primitives shared across all MOSAIC modules.
//
// MOSAIC distinguishes two failure classes:
//  - programming errors / violated invariants -> MOSAIC_ASSERT (aborts),
//  - recoverable data errors (corrupt trace, bad file) -> Expected<T>.
//
// Recoverable errors carry a category and a human-readable message so that
// batch drivers can count and report eviction reasons (paper Fig. 3).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace mosaic::util {

/// Broad classification of a recoverable error. Batch pipelines aggregate
/// eviction statistics per category.
enum class ErrorCode : std::uint8_t {
  kInvalidArgument,  ///< caller passed an out-of-domain value
  kParseError,       ///< malformed input text / binary stream
  kCorruptTrace,     ///< trace fails semantic validity checks
  kIoError,          ///< filesystem / OS level failure
  kNotFound,         ///< missing file, key or record
  kOverflow,         ///< numeric overflow while accumulating counters
  kTimeout,          ///< per-file deadline exceeded (read + retries + parse)
  kInternal,         ///< unexpected internal condition
};

/// Number of ErrorCode values; sized for per-code counter arrays.
inline constexpr std::size_t kErrorCodeCount =
    static_cast<std::size_t>(ErrorCode::kInternal) + 1;

/// Human-readable name of an ErrorCode, e.g. "corrupt-trace".
[[nodiscard]] std::string_view error_code_name(ErrorCode code) noexcept;

/// The ErrorCode error_code_name() calls `name`, or nullopt.
[[nodiscard]] std::optional<ErrorCode> error_code_from_name(
    std::string_view name) noexcept;

/// A recoverable error: a code plus a contextual message.
struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  Error() = default;
  Error(ErrorCode c, std::string msg) : code(c), message(std::move(msg)) {}

  /// "<code-name>: <message>" — suitable for logs.
  [[nodiscard]] std::string to_string() const;
};

/// Minimal expected/outcome type (libstdc++ 12 lacks std::expected).
/// Holds either a value of type T or an Error. Access without checking is a
/// programming error and aborts.
template <typename T>
class Expected {
 public:
  /* implicit */ Expected(T value) : state_(std::move(value)) {}
  /* implicit */ Expected(Error error) : state_(std::move(error)) {}

  [[nodiscard]] bool has_value() const noexcept {
    return std::holds_alternative<T>(state_);
  }
  explicit operator bool() const noexcept { return has_value(); }

  /// The held value. Precondition: has_value().
  [[nodiscard]] T& value() & { return std::get<T>(state_); }
  [[nodiscard]] const T& value() const& { return std::get<T>(state_); }
  [[nodiscard]] T&& value() && { return std::get<T>(std::move(state_)); }

  /// The held error. Precondition: !has_value().
  [[nodiscard]] const Error& error() const& { return std::get<Error>(state_); }
  [[nodiscard]] Error&& error() && { return std::get<Error>(std::move(state_)); }

  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }

  /// Returns the value or `fallback` when an error is held.
  [[nodiscard]] T value_or(T fallback) const& {
    return has_value() ? std::get<T>(state_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> state_;
};

/// Expected<void> analogue: success or an Error.
class Status {
 public:
  Status() = default;  // success
  /* implicit */ Status(Error error) : error_(std::move(error)) {}

  [[nodiscard]] bool ok() const noexcept { return !error_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  /// Precondition: !ok().
  [[nodiscard]] const Error& error() const { return *error_; }

  /// Success singleton for readability.
  [[nodiscard]] static Status success() { return Status{}; }

 private:
  std::optional<Error> error_;
};

namespace detail {
[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const char* func);
}  // namespace detail

}  // namespace mosaic::util

/// Invariant check that stays enabled in release builds. Violations indicate
/// a bug in MOSAIC itself, never bad user data, so we abort loudly.
#define MOSAIC_ASSERT(expr)                                                 \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::mosaic::util::detail::assert_fail(#expr, __FILE__, __LINE__,        \
                                          static_cast<const char*>(__func__)); \
    }                                                                       \
  } while (false)

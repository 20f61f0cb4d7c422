#include "util/error.hpp"

namespace mosaic::util {

std::string_view error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kInvalidArgument: return "invalid-argument";
    case ErrorCode::kParseError: return "parse-error";
    case ErrorCode::kCorruptTrace: return "corrupt-trace";
    case ErrorCode::kIoError: return "io-error";
    case ErrorCode::kNotFound: return "not-found";
    case ErrorCode::kOverflow: return "overflow";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

std::optional<ErrorCode> error_code_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kErrorCodeCount; ++i) {
    const auto code = static_cast<ErrorCode>(i);
    if (error_code_name(code) == name) return code;
  }
  return std::nullopt;
}

std::string Error::to_string() const {
  std::string out{error_code_name(code)};
  out += ": ";
  out += message;
  return out;
}

namespace detail {

void assert_fail(const char* expr, const char* file, int line,
                 const char* func) {
  std::fprintf(stderr, "MOSAIC_ASSERT failed: %s at %s:%d in %s\n", expr, file,
               line, func);
  std::abort();
}

}  // namespace detail
}  // namespace mosaic::util

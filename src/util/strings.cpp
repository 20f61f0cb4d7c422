#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace mosaic::util {

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      fields.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::optional<std::int64_t> parse_int(std::string_view text) noexcept {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_uint(std::string_view text) noexcept {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view text) noexcept {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

std::string format_bytes(double bytes) {
  static constexpr const char* kUnits[] = {"B",   "KiB", "MiB", "GiB",
                                           "TiB", "PiB", "EiB"};
  double value = bytes;
  std::size_t unit = 0;
  while (std::abs(value) >= 1024.0 && unit + 1 < std::size(kUnits)) {
    value /= 1024.0;
    ++unit;
  }
  char buffer[48];
  if (unit == 0) {
    std::snprintf(buffer, sizeof buffer, "%.0f %s", value, kUnits[unit]);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.2f %s", value, kUnits[unit]);
  }
  return buffer;
}

std::string format_duration(double seconds) {
  char buffer[64];
  if (seconds < 1.0) {
    std::snprintf(buffer, sizeof buffer, "%.0f ms", seconds * 1000.0);
  } else if (seconds < 60.0) {
    std::snprintf(buffer, sizeof buffer, "%.1f s", seconds);
  } else if (seconds < 3600.0) {
    const int mins = static_cast<int>(seconds / 60.0);
    const int secs = static_cast<int>(seconds) % 60;
    std::snprintf(buffer, sizeof buffer, "%dm %02ds", mins, secs);
  } else {
    const int hours = static_cast<int>(seconds / 3600.0);
    const int mins = (static_cast<int>(seconds) % 3600) / 60;
    std::snprintf(buffer, sizeof buffer, "%dh %02dm", hours, mins);
  }
  return buffer;
}

std::string format_percent(double ratio) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.1f%%", ratio * 100.0);
  return buffer;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace mosaic::util

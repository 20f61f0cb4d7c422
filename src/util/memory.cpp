#include "util/memory.hpp"

#include <cstdio>
#include <cstring>

namespace mosaic::util {

namespace {

/// Reads a "<Key>:  <kB> kB" line from /proc/self/status.
std::uint64_t read_status_kb(const char* key) noexcept {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      unsigned long long value = 0;
      if (std::sscanf(line + key_len + 1, " %llu", &value) == 1) {
        kb = value;
      }
      break;
    }
  }
  std::fclose(file);
  return kb;
}

}  // namespace

std::uint64_t peak_rss_bytes() noexcept {
  return read_status_kb("VmHWM") * 1024;
}

}  // namespace mosaic::util

#include "util/memory.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mosaic::util {
namespace {

TEST(Memory, ReportsPlausibleValues) {
  const std::uint64_t peak = peak_rss_bytes();
  // Zero where the platform does not expose it (non-Linux).
  if (peak == 0) GTEST_SKIP() << "no /proc/self/status";
  EXPECT_GT(peak, 1u << 20);  // a gtest binary occupies > 1 MiB
}

TEST(Memory, PeakGrowsWithAllocation) {
  const std::uint64_t before = peak_rss_bytes();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status";
  // Touch 64 MiB so it becomes resident.
  std::vector<char> block(64u << 20);
  for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
  const std::uint64_t after = peak_rss_bytes();
  EXPECT_GE(after, before + (32u << 20));
}

}  // namespace
}  // namespace mosaic::util

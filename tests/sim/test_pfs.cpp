#include "sim/pfs.hpp"

#include <gtest/gtest.h>

namespace mosaic::sim {
namespace {

TEST(PfsModel, BandwidthScalesWithStripes) {
  const PfsModel pfs;
  const double narrow = pfs.effective_bandwidth(1, 1);
  const double wide = pfs.effective_bandwidth(1, 8);
  EXPECT_GT(wide, narrow);
  EXPECT_NEAR(wide / narrow, 8.0, 0.01);  // one rank: no contention change
}

TEST(PfsModel, ContentionDegradesPerRankBandwidth) {
  const PfsModel pfs;
  const double few = pfs.effective_bandwidth(4, 4);
  const double many = pfs.effective_bandwidth(1024, 4);
  EXPECT_GT(few, many);
}

TEST(PfsModel, StripesCappedAtOstCount) {
  PfsConfig config;
  config.ost_count = 8;
  const PfsModel pfs(config);
  EXPECT_DOUBLE_EQ(pfs.effective_bandwidth(1, 8),
                   pfs.effective_bandwidth(1, 100));
}

TEST(PfsModel, ZeroStripesMeansDefault) {
  const PfsModel pfs;
  EXPECT_DOUBLE_EQ(
      pfs.effective_bandwidth(16, 0),
      pfs.effective_bandwidth(16, pfs.config().default_stripe_count));
}

TEST(PfsModel, TransferTimeIncludesLatencyFloor) {
  const PfsModel pfs;
  EXPECT_GE(pfs.transfer_seconds(0, 1), pfs.config().op_latency);
}

TEST(PfsModel, TransferTimeMonotoneInBytes) {
  const PfsModel pfs;
  double previous = 0.0;
  for (std::uint64_t bytes = 1 << 20; bytes <= 1ull << 40; bytes <<= 4) {
    const double seconds = pfs.transfer_seconds(bytes, 64);
    EXPECT_GT(seconds, previous);
    previous = seconds;
  }
}

TEST(PfsModel, RealisticCheckpointDuration) {
  // A 1 GiB shared checkpoint over default striping should land in the
  // 0.1 s .. 60 s range on a Blue Waters-like system — sanity, not precision.
  const PfsModel pfs;
  const double seconds = pfs.transfer_seconds(1ull << 30, 512);
  EXPECT_GT(seconds, 0.1);
  EXPECT_LT(seconds, 60.0);
}

}  // namespace
}  // namespace mosaic::sim

#include "core/metadata.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace mosaic::core {
namespace {

using trace::MetaEvent;

std::vector<MetaEvent> spikes(std::size_t count, double spacing,
                              std::uint64_t requests, double start = 10.0) {
  std::vector<MetaEvent> events;
  for (std::size_t i = 0; i < count; ++i) {
    events.push_back({start + static_cast<double>(i) * spacing, requests});
  }
  return events;
}

TEST(Metadata, InsignificantWhenFewerRequestsThanRanks) {
  // Paper §III-A: fewer metadata operations than ranks -> insignificant.
  const auto events = spikes(1, 0.0, 30);
  const MetadataResult result = classify_metadata(events, 1000.0, 64, {});
  EXPECT_TRUE(result.insignificant);
  EXPECT_FALSE(result.high_spike);
  EXPECT_FALSE(result.multiple_spikes);
  EXPECT_FALSE(result.high_density);
  EXPECT_EQ(result.total_requests, 30u);
}

TEST(Metadata, SignificantAtExactlyRankCount) {
  const auto events = spikes(1, 0.0, 64);
  const MetadataResult result = classify_metadata(events, 1000.0, 64, {});
  EXPECT_FALSE(result.insignificant);
}

TEST(Metadata, HighSpikeAt250PerSecond) {
  const auto events = spikes(1, 0.0, 250);
  const MetadataResult result = classify_metadata(events, 1000.0, 4, {});
  EXPECT_TRUE(result.high_spike);
  EXPECT_DOUBLE_EQ(result.max_requests_per_second, 250.0);
}

TEST(Metadata, NoHighSpikeBelowThreshold) {
  const auto events = spikes(1, 0.0, 249);
  const MetadataResult result = classify_metadata(events, 1000.0, 4, {});
  EXPECT_FALSE(result.high_spike);
}

TEST(Metadata, SpreadRequestsDoNotSpike) {
  // Same request count spread over many seconds: no single-second burst.
  const auto events = spikes(250, 2.0, 1);
  const MetadataResult result = classify_metadata(events, 1000.0, 4, {});
  EXPECT_FALSE(result.high_spike);
  EXPECT_EQ(result.total_requests, 250u);
}

TEST(Metadata, MultipleSpikesNeedsFive) {
  const auto four = spikes(4, 10.0, 60);
  EXPECT_FALSE(classify_metadata(four, 1000.0, 4, {}).multiple_spikes);
  const auto five = spikes(5, 10.0, 60);
  EXPECT_TRUE(classify_metadata(five, 1000.0, 4, {}).multiple_spikes);
}

TEST(Metadata, SpikesBelow50DoNotCount) {
  const auto events = spikes(10, 10.0, 49);
  const MetadataResult result = classify_metadata(events, 1000.0, 4, {});
  EXPECT_FALSE(result.multiple_spikes);
  EXPECT_EQ(result.spike_seconds, 0u);
}

TEST(Metadata, HighDensityNeedsSpikesAndMeanRate) {
  // 20 spikes of 600 requests over a 200s run: mean 60 req/s >= 50 and
  // >= 5 spike seconds -> high density.
  const auto events = spikes(20, 10.0, 600, 5.0);
  const MetadataResult result = classify_metadata(events, 200.0, 4, {});
  EXPECT_TRUE(result.multiple_spikes);
  EXPECT_TRUE(result.high_density);
  EXPECT_NEAR(result.mean_requests_per_second, 60.0, 1e-9);
}

TEST(Metadata, SpikesWithoutSustainedMeanAreNotDense) {
  // 6 spikes of 100 over an hour: spikes yes, density no (mean ~0.17/s).
  const auto events = spikes(6, 60.0, 100);
  const MetadataResult result = classify_metadata(events, 3600.0, 4, {});
  EXPECT_TRUE(result.multiple_spikes);
  EXPECT_FALSE(result.high_density);
}

TEST(Metadata, SameSecondEventsAccumulate) {
  // Two events in the same second jointly cross the spike threshold.
  std::vector<MetaEvent> events{{100.2, 150}, {100.7, 150}};
  const MetadataResult result = classify_metadata(events, 1000.0, 4, {});
  EXPECT_TRUE(result.high_spike);
  EXPECT_DOUBLE_EQ(result.max_requests_per_second, 300.0);
}

TEST(Metadata, EmptyTimeline) {
  const MetadataResult result = classify_metadata({}, 100.0, 8, {});
  EXPECT_TRUE(result.insignificant);
  EXPECT_EQ(result.total_requests, 0u);
  EXPECT_DOUBLE_EQ(result.mean_requests_per_second, 0.0);
}

TEST(Metadata, ShortRuntimeSingleBin) {
  const std::vector<MetaEvent> events{{0.1, 300}};
  const MetadataResult result = classify_metadata(events, 0.5, 2, {});
  EXPECT_TRUE(result.high_spike);
}

TEST(Metadata, ThresholdsConfigurable) {
  Thresholds lax;
  lax.high_spike_requests = 10.0;
  lax.spike_requests = 5.0;
  lax.multiple_spike_count = 2;
  const auto events = spikes(2, 10.0, 6);
  const MetadataResult result = classify_metadata(events, 100.0, 2, lax);
  EXPECT_FALSE(result.high_spike);  // 6 < 10
  EXPECT_TRUE(result.multiple_spikes);
}

TEST(Metadata, EventsOutsideRuntimeClampIntoEdges) {
  const std::vector<MetaEvent> events{{-5.0, 100}, {2000.0, 200}};
  const MetadataResult result = classify_metadata(events, 100.0, 2, {});
  EXPECT_EQ(result.total_requests, 300u);
  EXPECT_DOUBLE_EQ(result.max_requests_per_second, 200.0);
}

TEST(SimdMaxCount, EmptyIsMinusInfinityZero) {
  std::size_t count = 42;
  const double max = max_and_count_ge(std::span<const double>{}, 1.0, count);
  EXPECT_EQ(max, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(count, 0u);
}

TEST(SimdMaxCount, ThresholdIsInclusive) {
  const std::vector<double> values{1.0, 2.0, 2.0, 3.0};
  std::size_t count = 0;
  const double max = max_and_count_ge(values, 2.0, count);
  EXPECT_EQ(max, 3.0);
  EXPECT_EQ(count, 3u);  // the two 2.0s and the 3.0
}

// Parameterized sweep of the spike-count boundary.
class SpikeCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpikeCountTest, BoundaryAtConfiguredCount) {
  const std::size_t count = GetParam();
  const auto events = spikes(count, 10.0, 80);
  const MetadataResult result = classify_metadata(events, 1000.0, 2, {});
  EXPECT_EQ(result.multiple_spikes, count >= 5);
  EXPECT_EQ(result.spike_seconds, count);
}

INSTANTIATE_TEST_SUITE_P(AroundThreshold, SpikeCountTest,
                         ::testing::Values(1u, 3u, 4u, 5u, 6u, 10u));

}  // namespace
}  // namespace mosaic::core

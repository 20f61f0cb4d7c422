#include "cluster/meanshift.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "util/rng.hpp"

namespace mosaic::cluster {
namespace {

PointSet points_from(std::initializer_list<std::array<double, 2>> rows) {
  PointSet points(2);
  for (const auto& row : rows) points.add(row);
  return points;
}

TEST(PointSet, StoresAndRetrieves) {
  PointSet points(3);
  const std::array<double, 3> p{1.0, 2.0, 3.0};
  points.add(p);
  EXPECT_EQ(points.size(), 1u);
  EXPECT_EQ(points.dim(), 3u);
  EXPECT_DOUBLE_EQ(points.point(0)[2], 3.0);
}

TEST(SquaredDistance, Computes) {
  const std::array<double, 2> a{0.0, 0.0};
  const std::array<double, 2> b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
}

TEST(MinMaxScale, MapsToUnitBox) {
  const PointSet points =
      points_from({{0.0, 100.0}, {10.0, 200.0}, {5.0, 150.0}});
  const PointSet scaled = min_max_scale(points);
  EXPECT_DOUBLE_EQ(scaled.point(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(scaled.point(1)[0], 1.0);
  EXPECT_DOUBLE_EQ(scaled.point(2)[0], 0.5);
  EXPECT_DOUBLE_EQ(scaled.point(0)[1], 0.0);
  EXPECT_DOUBLE_EQ(scaled.point(1)[1], 1.0);
}

TEST(MinMaxScale, ConstantColumnMapsToZero) {
  const PointSet points = points_from({{5.0, 1.0}, {5.0, 2.0}});
  const PointSet scaled = min_max_scale(points);
  EXPECT_DOUBLE_EQ(scaled.point(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(scaled.point(1)[0], 0.0);
}

TEST(MinMaxScale, ScalesAnyNumberOfColumns) {
  // Embeddings wider than the two Mean-Shift features (the auto-category
  // bench scales 14) go through the same per-column pass.
  PointSet points(14);
  std::array<double, 14> row{};
  for (int i = 0; i < 3; ++i) {
    for (std::size_t d = 0; d < row.size(); ++d) {
      row[d] = static_cast<double>(i * (d + 1));
    }
    points.add(row);
  }
  const PointSet scaled = min_max_scale(points);
  ASSERT_EQ(scaled.dim(), 14u);
  for (std::size_t d = 0; d < row.size(); ++d) {
    EXPECT_DOUBLE_EQ(scaled.point(0)[d], 0.0);
    EXPECT_DOUBLE_EQ(scaled.point(1)[d], 0.5);
    EXPECT_DOUBLE_EQ(scaled.point(2)[d], 1.0);
  }
}

TEST(MeanShift, EmptyInput) {
  const PointSet points(2);
  const MeanShiftResult result = mean_shift(points, 0.12);
  EXPECT_TRUE(result.labels.empty());
  EXPECT_TRUE(result.modes.empty());
}

TEST(MeanShift, SinglePointIsItsOwnCluster) {
  const PointSet points = points_from({{0.5, 0.5}});
  const MeanShiftResult result = mean_shift(points, 0.12);
  ASSERT_EQ(result.labels.size(), 1u);
  EXPECT_EQ(result.labels[0], 0u);
  ASSERT_EQ(result.cluster_sizes.size(), 1u);
  EXPECT_EQ(result.cluster_sizes[0], 1u);
}

TEST(MeanShift, TwoTightClustersSeparate) {
  const double bandwidth = 0.15;
  const PointSet points = points_from({{0.0, 0.0},
                                       {0.02, 0.01},
                                       {0.01, 0.03},
                                       {0.9, 0.9},
                                       {0.92, 0.91},
                                       {0.91, 0.88}});
  const MeanShiftResult result = mean_shift(points, bandwidth);
  ASSERT_EQ(result.labels.size(), 6u);
  EXPECT_EQ(result.modes.size(), 2u);
  EXPECT_EQ(result.labels[0], result.labels[1]);
  EXPECT_EQ(result.labels[0], result.labels[2]);
  EXPECT_EQ(result.labels[3], result.labels[4]);
  EXPECT_EQ(result.labels[3], result.labels[5]);
  EXPECT_NE(result.labels[0], result.labels[3]);
}

TEST(MeanShift, LargeBandwidthMergesEverything) {
  const double bandwidth = 2.0;
  const PointSet points =
      points_from({{0.0, 0.0}, {0.5, 0.5}, {1.0, 1.0}, {0.2, 0.8}});
  const MeanShiftResult result = mean_shift(points, bandwidth);
  EXPECT_EQ(result.modes.size(), 1u);
  EXPECT_EQ(result.cluster_sizes[0], 4u);
}

TEST(MeanShift, ClustersOrderedBySizeDescending) {
  const double bandwidth = 0.1;
  const PointSet points = points_from({{0.0, 0.0},
                                       {0.01, 0.0},
                                       {0.0, 0.01},
                                       {0.02, 0.02},
                                       {0.5, 0.5},   // singleton
                                       {0.9, 0.9},
                                       {0.91, 0.9}});
  const MeanShiftResult result = mean_shift(points, bandwidth);
  ASSERT_GE(result.cluster_sizes.size(), 3u);
  for (std::size_t i = 1; i < result.cluster_sizes.size(); ++i) {
    EXPECT_LE(result.cluster_sizes[i], result.cluster_sizes[i - 1]);
  }
  EXPECT_EQ(result.cluster_sizes[0], 4u);
}

TEST(MeanShift, EqualSizedClustersKeepFirstSeenOrder) {
  // Ties in cluster size are numbered in the order their first point
  // appears, whichever cluster that is.
  const PointSet points = points_from(
      {{0.9, 0.9}, {0.0, 0.0}, {0.91, 0.9}, {0.01, 0.0}, {0.5, 0.5}});
  const MeanShiftResult result = mean_shift(points, 0.1);
  ASSERT_EQ(result.cluster_sizes, (std::vector<std::size_t>{2, 2, 1}));
  EXPECT_EQ(result.labels, (std::vector<std::size_t>{0, 1, 0, 1, 2}));
}

TEST(MeanShift, ModeNearClusterCenter) {
  const double bandwidth = 0.2;
  util::Rng rng(3);
  PointSet points(2);
  for (int i = 0; i < 60; ++i) {
    const std::array<double, 2> p{0.5 + rng.normal(0.0, 0.02),
                                  0.5 + rng.normal(0.0, 0.02)};
    points.add(p);
  }
  const MeanShiftResult result = mean_shift(points, bandwidth);
  ASSERT_EQ(result.modes.size(), 1u);
  EXPECT_NEAR(result.modes[0][0], 0.5, 0.02);
  EXPECT_NEAR(result.modes[0][1], 0.5, 0.02);
}

TEST(MeanShift, PermutationInvariantPartition) {
  const double bandwidth = 0.15;
  util::Rng rng(11);
  std::vector<std::array<double, 2>> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({rng.normal(0.2, 0.02), rng.normal(0.2, 0.02)});
    rows.push_back({rng.normal(0.8, 0.02), rng.normal(0.8, 0.02)});
  }
  PointSet forward(2);
  for (const auto& row : rows) forward.add(row);
  PointSet backward(2);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) backward.add(*it);

  const MeanShiftResult a = mean_shift(forward, bandwidth);
  const MeanShiftResult b = mean_shift(backward, bandwidth);
  ASSERT_EQ(a.modes.size(), b.modes.size());
  // Same partition: labels of reversed input, reversed, must be a relabeling
  // of the forward labels.
  const std::size_t n = rows.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool same_a = a.labels[i] == a.labels[j];
      const bool same_b = b.labels[n - 1 - i] == b.labels[n - 1 - j];
      EXPECT_EQ(same_a, same_b);
    }
  }
}

TEST(MeanShift, LabelsConsistentWithSizes) {
  const double bandwidth = 0.1;
  util::Rng rng(17);
  PointSet points(2);
  for (int i = 0; i < 50; ++i) {
    const std::array<double, 2> p{rng.uniform(), rng.uniform()};
    points.add(p);
  }
  const MeanShiftResult result = mean_shift(points, bandwidth);
  std::vector<std::size_t> recount(result.modes.size(), 0);
  for (const std::size_t label : result.labels) {
    ASSERT_LT(label, result.modes.size());
    ++recount[label];
  }
  EXPECT_EQ(recount, result.cluster_sizes);
}

TEST(MeanShift, NegativeCoordinateClustersMatchShiftedCopy) {
  // Translating the whole point cloud must not change the partition: the
  // kernel and mode merging are both translation-invariant, and the
  // negative quadrant must behave exactly like the positive one.
  util::Rng rng(9);
  PointSet positive(2);
  PointSet negative(2);
  for (int i = 0; i < 40; ++i) {
    // Unequal cluster sizes so the size-descending numbering is unambiguous.
    const double cx = (i % 3 == 0) ? 0.2 : 0.8;
    const std::array<double, 2> p{cx + 0.02 * rng.normal(),
                                  0.5 + 0.02 * rng.normal()};
    positive.add(p);
    const std::array<double, 2> shifted{p[0] - 10.0, p[1] - 10.0};
    negative.add(shifted);
  }
  const double bandwidth = 0.15;
  const MeanShiftResult a = mean_shift(positive, bandwidth);
  const MeanShiftResult b = mean_shift(negative, bandwidth);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.cluster_sizes, b.cluster_sizes);
}

}  // namespace
}  // namespace mosaic::cluster

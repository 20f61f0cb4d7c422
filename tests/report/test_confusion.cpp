// Accuracy drill-down: provenance records joined against sim ground truth
// with no re-analysis — per-axis accuracy, per-category confusion,
// margin histograms, and the ranked straddling list.
#include "report/confusion.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mosaic;

namespace {

obs::TraceProvenance make_record(const std::string& app_key,
                                 std::uint64_t job_id,
                                 std::vector<std::string> categories) {
  obs::TraceProvenance record;
  record.app_key = app_key;
  record.job_id = job_id;
  record.categories = std::move(categories);
  record.read.temporality.confidence = 0.9;
  record.write.temporality.confidence = 0.9;
  record.read.periodicity.confidence = 0.9;
  record.write.periodicity.confidence = 0.9;
  record.metadata.confidence = 0.9;
  return record;
}

sim::TruthRecord make_truth(const std::string& app_key, std::uint64_t job_id,
                            std::vector<std::string> categories,
                            bool ambiguous = false) {
  sim::TruthRecord truth;
  truth.app_key = app_key;
  truth.job_id = job_id;
  truth.ambiguous = ambiguous;
  truth.categories = std::move(categories);
  return truth;
}

const std::vector<std::string> kBaseline = {
    "read_on_start", "write_insignificant", "metadata_insignificant_load"};

TEST(Confusion, JoinsByJobIdAndCountsMissingTruth) {
  const std::vector<obs::TraceProvenance> records = {
      make_record("a/app", 1, kBaseline),
      make_record("a/app", 2, kBaseline),
      make_record("z/orphan", 99, kBaseline),  // no truth entry
  };
  const std::vector<sim::TruthRecord> truths = {
      make_truth("a/app", 1, kBaseline),
      make_truth("a/app", 2, kBaseline),
  };
  const report::ConfusionReport drill = report::build_confusion(records, truths);
  EXPECT_EQ(drill.joined, 2u);
  EXPECT_EQ(drill.missing_truth, 1u);
  EXPECT_EQ(drill.overall.correct, 2u);
  EXPECT_EQ(drill.overall.total, 2u);
}

TEST(Confusion, MismatchedAxisTalliesConfusionCells) {
  // Job 2 predicts read_steady where the truth planted read_on_start; its
  // read-temporality margin is nearly zero, so it must rank first in the
  // straddling list with a mismatch verdict.
  obs::TraceProvenance wrong = make_record(
      "a/app", 2,
      {"read_steady", "write_insignificant", "metadata_insignificant_load"});
  wrong.read.temporality.confidence = 0.02;
  const std::vector<obs::TraceProvenance> records = {
      make_record("a/app", 1, kBaseline), std::move(wrong)};
  const std::vector<sim::TruthRecord> truths = {
      make_truth("a/app", 1, kBaseline),
      make_truth("a/app", 2, kBaseline, /*ambiguous=*/true),
  };
  const report::ConfusionReport drill = report::build_confusion(records, truths);

  EXPECT_EQ(drill.read_temporality.correct, 1u);
  EXPECT_EQ(drill.read_temporality.total, 2u);
  EXPECT_EQ(drill.write_temporality.correct, 2u);
  EXPECT_EQ(drill.metadata.correct, 2u);
  EXPECT_EQ(drill.overall.correct, 1u);

  // Per-category cells: read_on_start was planted twice, predicted once.
  bool saw_on_start = false;
  bool saw_steady = false;
  for (const report::CategoryConfusion& cell : drill.categories) {
    if (cell.category == "read_on_start") {
      saw_on_start = true;
      EXPECT_EQ(cell.true_positive, 1u);
      EXPECT_EQ(cell.false_negative, 1u);
      EXPECT_EQ(cell.false_positive, 0u);
    }
    if (cell.category == "read_steady") {
      saw_steady = true;
      EXPECT_EQ(cell.false_positive, 1u);
      EXPECT_EQ(cell.true_positive, 0u);
    }
  }
  EXPECT_TRUE(saw_on_start);
  EXPECT_TRUE(saw_steady);

  ASSERT_FALSE(drill.straddling.empty());
  const report::StraddlingCase& worst = drill.straddling.front();
  EXPECT_EQ(worst.job_id, 2u);
  EXPECT_EQ(worst.axis, "read_temporality");
  EXPECT_TRUE(worst.mismatched);
  EXPECT_TRUE(worst.truth_ambiguous);
  EXPECT_NEAR(worst.confidence, 0.02, 1e-9);
}

TEST(Confusion, ConfidenceHistogramsBucketEveryJoinedTrace) {
  const std::vector<obs::TraceProvenance> records = {
      make_record("a/app", 1, kBaseline), make_record("a/app", 2, kBaseline)};
  const std::vector<sim::TruthRecord> truths = {
      make_truth("a/app", 1, kBaseline), make_truth("a/app", 2, kBaseline)};
  const report::ConfusionReport drill = report::build_confusion(records, truths);

  ASSERT_EQ(drill.confidence.size(), 5u);
  for (const report::AxisConfidence& axis : drill.confidence) {
    EXPECT_EQ(axis.count, 2u);
    EXPECT_NEAR(axis.mean(), 0.9, 1e-9);
    EXPECT_EQ(axis.buckets.size(), axis.bounds.size() + 1);
    std::uint64_t bucketed = 0;
    for (const std::uint64_t count : axis.buckets) bucketed += count;
    EXPECT_EQ(bucketed, axis.count);
  }
  EXPECT_EQ(drill.confidence[0].axis, "read_temporality");
  EXPECT_EQ(drill.confidence[4].axis, "metadata");
}

TEST(Confusion, StraddlingListHonorsCap) {
  std::vector<obs::TraceProvenance> records;
  std::vector<sim::TruthRecord> truths;
  for (std::uint64_t job = 0; job < 10; ++job) {
    records.push_back(make_record("a/app", job, kBaseline));
    truths.push_back(make_truth("a/app", job, kBaseline));
  }
  const report::ConfusionReport drill =
      report::build_confusion(records, truths, /*max_straddling=*/3);
  EXPECT_EQ(drill.straddling.size(), 3u);
}

TEST(Confusion, RenderCarriesTheDrillDown) {
  const std::vector<obs::TraceProvenance> records = {
      make_record("a/app", 1, kBaseline)};
  const std::vector<sim::TruthRecord> truths = {make_truth("a/app", 1, kBaseline)};
  const report::ConfusionReport drill = report::build_confusion(records, truths);

  const std::string md = report::render_confusion(drill);
  EXPECT_NE(md.find("Per-axis accuracy"), std::string::npos);
  EXPECT_NE(md.find("Per-category confusion"), std::string::npos);
  EXPECT_NE(md.find("straddling"), std::string::npos);
}

}  // namespace

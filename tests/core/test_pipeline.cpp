#include "core/pipeline.hpp"

#include <gtest/gtest.h>

namespace mosaic::core {
namespace {

constexpr std::uint64_t GiB = 1ull << 30;

/// Builds a trace with a read burst at start, periodic fresh-file writes,
/// and a metadata profile with one large spike.
trace::Trace make_rich_trace(std::uint64_t job_id = 1) {
  trace::Trace t;
  t.meta.job_id = job_id;
  t.meta.app_name = "rich";
  t.meta.user = "u1";
  t.meta.nprocs = 128;
  t.meta.run_time = 7200.0;

  // Input read: 4 GiB in the first minute.
  trace::FileRecord input;
  input.file_id = 1;
  input.bytes_read = 4 * GiB;
  input.reads = 1000;
  input.opens = 128;
  input.closes = 128;
  input.seeks = 200;
  input.open_ts = 0.5;
  input.close_ts = 70.0;
  input.first_read_ts = 1.0;
  input.last_read_ts = 60.0;
  t.files.push_back(input);

  // Periodic checkpoints: fresh file every 600 s.
  for (int i = 0; i < 11; ++i) {
    trace::FileRecord ckpt;
    ckpt.file_id = 100u + static_cast<unsigned>(i);
    ckpt.bytes_written = 2 * GiB;
    ckpt.writes = 500;
    ckpt.opens = 128;
    ckpt.closes = 128;
    ckpt.seeks = 100;
    const double start = 300.0 + i * 600.0;
    ckpt.open_ts = start - 0.2;
    ckpt.close_ts = start + 8.0;
    ckpt.first_write_ts = start;
    ckpt.last_write_ts = start + 6.0;
    t.files.push_back(ckpt);
  }
  return t;
}

trace::Trace make_quiet_trace(std::uint64_t job_id, const std::string& user) {
  trace::Trace t;
  t.meta.job_id = job_id;
  t.meta.app_name = "quiet";
  t.meta.user = user;
  t.meta.nprocs = 64;
  t.meta.run_time = 600.0;
  trace::FileRecord lib;
  lib.file_id = 5;
  lib.bytes_read = 1 << 20;
  lib.reads = 2;
  lib.opens = 2;
  lib.closes = 2;
  lib.open_ts = 0.1;
  lib.close_ts = 1.0;
  lib.first_read_ts = 0.2;
  lib.last_read_ts = 0.8;
  t.files.push_back(lib);
  return t;
}

TEST(Analyzer, RichTraceFullCategorization) {
  const Analyzer analyzer;
  const TraceResult result = analyzer.analyze(make_rich_trace());

  EXPECT_EQ(result.app_key, "u1/rich");
  EXPECT_EQ(result.read.temporality.label, Temporality::kOnStart);
  ASSERT_TRUE(result.write.periodicity.periodic);
  EXPECT_NEAR(result.write.periodicity.dominant().period_seconds, 600.0, 5.0);
  EXPECT_EQ(result.write.periodicity.dominant().magnitude,
            PeriodMagnitude::kMinute);

  EXPECT_TRUE(result.categories.contains(Category::kReadOnStart));
  EXPECT_TRUE(result.categories.contains(Category::kWritePeriodic));
  EXPECT_TRUE(result.categories.contains(Category::kWritePeriodicMinute));
  EXPECT_TRUE(result.categories.contains(Category::kWritePeriodicLowBusyTime));
  // Evenly spread checkpoints -> steady write temporality.
  EXPECT_TRUE(result.categories.contains(Category::kWriteSteady));
  // 128 opens + 200 seeks land within one second at t=0.5 -> high spike;
  // 11 checkpoint spikes of 228 requests -> multiple spikes.
  EXPECT_TRUE(result.categories.contains(Category::kMetadataHighSpike));
  EXPECT_TRUE(result.categories.contains(Category::kMetadataMultipleSpikes));
  EXPECT_FALSE(
      result.categories.contains(Category::kMetadataInsignificantLoad));
}

TEST(Analyzer, QuietTraceInsignificantEverywhere) {
  const Analyzer analyzer;
  const TraceResult result = analyzer.analyze(make_quiet_trace(1, "u9"));
  EXPECT_TRUE(result.categories.contains(Category::kReadInsignificant));
  EXPECT_TRUE(result.categories.contains(Category::kWriteInsignificant));
  EXPECT_TRUE(
      result.categories.contains(Category::kMetadataInsignificantLoad));
  EXPECT_FALSE(result.categories.contains(Category::kReadPeriodic));
}

TEST(Analyzer, InsignificantKindCarriesNoPeriodicity) {
  // Periodic but tiny writes: volume below 100 MB keeps the kind
  // insignificant, and the paper excludes such traces from characterization.
  trace::Trace t;
  t.meta.job_id = 3;
  t.meta.app_name = "tiny_ckpt";
  t.meta.user = "u2";
  t.meta.nprocs = 4;
  t.meta.run_time = 3600.0;
  for (int i = 0; i < 10; ++i) {
    trace::FileRecord ckpt;
    ckpt.file_id = static_cast<unsigned>(i);
    ckpt.bytes_written = 1 << 20;  // 1 MiB per burst
    ckpt.writes = 1;
    ckpt.opens = 1;
    ckpt.closes = 1;
    const double start = 100.0 + i * 300.0;
    ckpt.open_ts = start;
    ckpt.close_ts = start + 1.0;
    ckpt.first_write_ts = start;
    ckpt.last_write_ts = start + 0.5;
    t.files.push_back(ckpt);
  }
  const Analyzer analyzer;
  const TraceResult result = analyzer.analyze(t);
  EXPECT_TRUE(result.categories.contains(Category::kWriteInsignificant));
  EXPECT_FALSE(result.categories.contains(Category::kWritePeriodic));
  // The detector itself still saw the repetition; only the flattening gates.
  EXPECT_TRUE(result.write.periodicity.periodic);
}

TEST(FlattenCategories, MetadataFlagsMapped) {
  KindAnalysis quiet_kind;
  quiet_kind.temporality.label = Temporality::kInsignificant;
  MetadataResult metadata;
  metadata.insignificant = false;
  metadata.high_spike = true;
  metadata.multiple_spikes = true;
  metadata.high_density = false;
  const CategorySet set =
      flatten_categories(quiet_kind, quiet_kind, metadata);
  EXPECT_TRUE(set.contains(Category::kMetadataHighSpike));
  EXPECT_TRUE(set.contains(Category::kMetadataMultipleSpikes));
  EXPECT_FALSE(set.contains(Category::kMetadataHighDensity));
  EXPECT_FALSE(set.contains(Category::kMetadataInsignificantLoad));
}

TEST(FlattenCategories, BusyTimeSplitUsesThresholds) {
  KindAnalysis write_kind;
  write_kind.temporality.label = Temporality::kSteady;
  write_kind.periodicity.periodic = true;
  PeriodicGroup group;
  group.period_seconds = 100.0;
  group.busy_ratio = 0.4;
  group.occurrences = 5;
  group.magnitude = PeriodMagnitude::kMinute;
  write_kind.periodicity.groups.push_back(group);

  KindAnalysis read_kind;
  read_kind.temporality.label = Temporality::kInsignificant;

  const CategorySet default_set =
      flatten_categories(read_kind, write_kind, MetadataResult{});
  EXPECT_TRUE(default_set.contains(Category::kWritePeriodicHighBusyTime));

  Thresholds high_split;
  high_split.busy_ratio_split = 0.5;
  const CategorySet strict_set =
      flatten_categories(read_kind, write_kind, MetadataResult{}, high_split);
  EXPECT_TRUE(strict_set.contains(Category::kWritePeriodicLowBusyTime));
}

TEST(AnalyzePopulation, SerialAndParallelAgree) {
  std::vector<trace::Trace> traces;
  for (int i = 0; i < 20; ++i) {
    traces.push_back(make_rich_trace(static_cast<std::uint64_t>(i)));
    traces.back().meta.user = "u" + std::to_string(i % 4);
    traces.push_back(make_quiet_trace(100 + static_cast<std::uint64_t>(i),
                                      "q" + std::to_string(i % 3)));
  }
  const BatchResult serial = analyze_population(traces);
  parallel::ThreadPool pool(4);
  const BatchResult threaded = analyze_population(traces, {}, &pool);

  ASSERT_EQ(serial.results.size(), threaded.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].job_id, threaded.results[i].job_id);
    EXPECT_EQ(serial.results[i].categories, threaded.results[i].categories);
  }
  EXPECT_EQ(serial.preprocess.retained, threaded.preprocess.retained);
}

TEST(AnalyzePopulation, FunnelAndResultsAligned) {
  std::vector<trace::Trace> traces;
  traces.push_back(make_rich_trace(1));
  traces.push_back(make_quiet_trace(2, "u5"));
  trace::Trace corrupt = make_quiet_trace(3, "u6");
  corrupt.meta.run_time = 0.0;
  traces.push_back(std::move(corrupt));

  const BatchResult batch = analyze_population(traces);
  EXPECT_EQ(batch.preprocess.input_traces, 3u);
  EXPECT_EQ(batch.preprocess.corrupted, 1u);
  EXPECT_EQ(batch.results.size(), 2u);
  EXPECT_EQ(batch.runs_per_app.size(), 2u);
}

}  // namespace
}  // namespace mosaic::core

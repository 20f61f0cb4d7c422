// Funnel metrics vs a resumed `--shards N` run: the --metrics acceptance
// contract.
//
// The per-ErrorCode eviction counters are bumped at the same sites as the
// PreprocessStats breakdown maps, and a shard kept from an earlier run's
// partial adds its funnel to the same series. Two consequences are pinned
// here: (1) the funnel subset of the metrics dump is byte-identical between
// an uninterrupted run and a killed-then-resumed one over the same corpus,
// and (2) the labeled counters agree exactly with the eviction breakdown
// the batch summary prints.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "darshan/binary_format.hpp"
#include "darshan/text_format.hpp"
#include "ingest/ingest.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "parallel/thread_pool.hpp"
#include "report/partial.hpp"

namespace mosaic::obs {
namespace {

namespace fs = std::filesystem;

trace::Trace make_trace(const std::string& user, const std::string& app,
                        std::uint64_t job_id, std::uint64_t bytes) {
  trace::Trace t;
  t.meta.job_id = job_id;
  t.meta.app_name = app;
  t.meta.user = user;
  t.meta.nprocs = 8;
  t.meta.run_time = 200.0;
  trace::FileRecord file;
  file.file_id = job_id;
  file.file_name = "/data/out.dat";
  file.bytes_written = bytes;
  file.writes = 4;
  file.opens = 1;
  file.closes = 1;
  file.open_ts = 1.0;
  file.close_ts = 190.0;
  file.first_write_ts = 2.0;
  file.last_write_ts = 180.0;
  t.files.push_back(file);
  return t;
}

class ObsResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    dir_ = fs::temp_directory_path() /
           (std::string("mosaic_obs_resume_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Mixed corpus: two dedup runs, a binary trace, a validity eviction, a
  /// torn binary, garbage, and a missing file.
  std::vector<std::string> seed_corpus() {
    EXPECT_TRUE(darshan::write_text_file(make_trace("u1", "alpha", 1, 1 << 20),
                                         path("alpha_run1.txt"))
                    .ok());
    EXPECT_TRUE(darshan::write_text_file(make_trace("u1", "alpha", 2, 4 << 20),
                                         path("alpha_run2.txt"))
                    .ok());
    EXPECT_TRUE(darshan::write_mbt_file(make_trace("u2", "beta", 3, 2 << 20),
                                        path("beta.mbt"))
                    .ok());
    trace::Trace corrupt = make_trace("u3", "gamma", 4, 1 << 20);
    corrupt.files[0].close_ts = corrupt.meta.run_time + 500.0;
    EXPECT_TRUE(
        darshan::write_text_file(corrupt, path("corrupt_validity.txt")).ok());
    const auto bytes = darshan::to_mbt(make_trace("u4", "delta", 5, 1 << 20));
    {
      std::ofstream torn(path("truncated.mbt"), std::ios::binary);
      torn.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size() / 2));
    }
    {
      std::ofstream garbage(path("garbage.txt"));
      garbage << "this is not a darshan trace\n";
    }
    return {path("alpha_run1.txt"), path("alpha_run2.txt"), path("beta.mbt"),
            path("corrupt_validity.txt"), path("truncated.mbt"),
            path("garbage.txt"), path("missing.txt")};
  }

  /// The resume-invariant subset of the registry: every mosaic_funnel_*
  /// counter, rendered one per line for byte comparison.
  static std::string funnel_metrics_text() {
    std::string out;
    for (const CounterSample& sample : Registry::global().snapshot().counters) {
      if (sample.name.rfind("mosaic_funnel_", 0) != 0) continue;
      out += sample.name + " " + std::to_string(sample.value) + "\n";
    }
    return out;
  }

  fs::path dir_;
};

TEST_F(ObsResumeTest, FunnelMetricsByteStableAcrossResume) {
  const auto paths = seed_corpus();
  parallel::ThreadPool pool(2);
  ingest::IngestOptions options;
  options.max_retries = 0;
  const std::string partials = path("partials");

  // The same --shards 3 pass as `mosaic batch` runs it: each shard through
  // run_shards, then the reduce.
  const auto shards_pass = [&](bool resume) {
    std::size_t kept = 0;
    auto artifacts = report::run_shards(
        paths, options, 3, partials, resume, pool,
        [&](const report::ShardRun& run) { kept += run.kept ? 1 : 0; });
    EXPECT_TRUE(artifacts.has_value());
    if (artifacts.has_value()) {
      EXPECT_TRUE(
          report::reduce_partials(*artifacts, options, {}, pool).has_value());
    }
    return kept;
  };

  // Uninterrupted reference run.
  Registry::global().reset();
  EXPECT_EQ(shards_pass(false), 0u);
  const std::string uninterrupted = funnel_metrics_text();
  ASSERT_FALSE(uninterrupted.empty());

  // A killed run leaves whole partials or none: shard 1's is gone. The
  // resume in a "new process" (fresh registry) keeps shards 0 and 2 and
  // adds their funnels to the series.
  ASSERT_TRUE(fs::remove(partials + "/" + ingest::partial_filename(1)));
  Registry::global().reset();
  EXPECT_EQ(shards_pass(true), 2u);
  EXPECT_EQ(uninterrupted, funnel_metrics_text());

  // A resume that keeps every shard folds nothing and still counts it all.
  Registry::global().reset();
  EXPECT_EQ(shards_pass(true), 3u);
  EXPECT_EQ(uninterrupted, funnel_metrics_text());
}

TEST_F(ObsResumeTest, EvictionCountersMatchFunnelBreakdownExactly) {
  const auto paths = seed_corpus();
  parallel::ThreadPool pool(2);
  Registry::global().reset();
  ingest::IngestOptions options;
  options.max_retries = 0;
  const auto result = ingest::ingest_paths(paths, options, pool);
  ASSERT_TRUE(result.has_value());
  const auto& stats = result->pre.stats;
  ASSERT_FALSE(stats.eviction_breakdown.empty());

  // Each breakdown entry has a counter series with the identical count...
  for (const auto& [code, count] : stats.eviction_breakdown) {
    const std::uint64_t metric =
        Registry::global()
            .counter(labeled(names::kFunnelEvictions, "code", code))
            .value();
    EXPECT_EQ(metric, count) << "code=" << code;
  }
  // ...and no eviction series exists beyond the breakdown map.
  std::size_t eviction_series = 0;
  for (const CounterSample& sample : Registry::global().snapshot().counters) {
    if (sample.name.rfind(std::string(names::kFunnelEvictions) + "{", 0) ==
        0) {
      ++eviction_series;
    }
  }
  EXPECT_EQ(eviction_series, stats.eviction_breakdown.size());

  // The corruption series likewise mirrors its breakdown map.
  for (const auto& [kind, count] : stats.corruption_breakdown) {
    const std::uint64_t metric =
        Registry::global()
            .counter(labeled(names::kFunnelCorruption, "kind", kind))
            .value();
    EXPECT_EQ(metric, count) << "kind=" << kind;
  }
  EXPECT_EQ(Registry::global().counter(names::kFunnelValid).value(),
            stats.valid);
}

}  // namespace
}  // namespace mosaic::obs

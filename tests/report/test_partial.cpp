// Mergeable partial artifacts (report/partial.hpp): serialization round
// trips exactly, the reduce validates its partition, and — the acceptance
// criterion for sharded execution — reducing 1, 2 or 8 shard folds
// reproduces the single-shot batch JSON byte for byte, including when one
// application's runs straddle shards and cross-shard dedup must re-choose
// the winner, and when a winner changes between its shard's fold and the
// reduce's re-read. A resumed `--shards N` run keeps only the partials that
// pass the keep rule (keep_partial), so a trace added since runs its shard
// again.
#include "report/partial.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "darshan/binary_format.hpp"
#include "ingest/ingest.hpp"
#include "ingest/shard.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"
#include "report/json_output.hpp"
#include "sim/population.hpp"
#include "util/fs.hpp"

namespace mosaic::report {
namespace {

namespace fs = std::filesystem;

class PartialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("mosaic_partial_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Writes a seeded synthetic population (valid + corrupted traces, many
  /// multi-run applications, so dedup straddles shards) and returns the
  /// trace paths.
  std::vector<std::string> seed_population(std::size_t traces,
                                           std::uint64_t seed) {
    sim::PopulationConfig config;
    config.target_traces = traces;
    config.seed = seed;
    const sim::Population population = sim::generate_population(config);
    std::vector<std::string> paths;
    paths.reserve(population.traces.size());
    for (const auto& entry : population.traces) {
      const std::string file =
          path("job_" + std::to_string(entry.trace.meta.job_id) + ".mbt");
      EXPECT_TRUE(darshan::write_mbt_file(entry.trace, file).ok());
      paths.push_back(file);
    }
    return paths;
  }

  /// One shard (or the whole corpus with the default spec) through
  /// report::run_shard, which the CLI and the dispatch workers run.
  PartialArtifact run_shard(const std::vector<std::string>& paths,
                            const ingest::ShardSpec& spec,
                            ingest::IngestOptions options = {}) {
    options.shard = spec;
    return report::run_shard(paths, options, pool_);
  }

  /// The single-shot reference output the reduce must reproduce.
  std::string single_shot_json(const std::vector<std::string>& paths,
                               const ingest::IngestOptions& options = {}) {
    auto ingested = ingest::ingest_paths(paths, options, pool_);
    EXPECT_TRUE(ingested.has_value());
    const core::BatchResult batch =
        core::analyze_preprocessed(std::move(ingested->pre), {}, &pool_);
    return json::serialize(batch_to_json(batch, /*include_traces=*/true));
  }

  /// Shards the corpus N ways, writes every partial to disk, reduces the
  /// files, and serializes like the single shot.
  std::string sharded_json(const std::vector<std::string>& paths,
                           std::size_t count,
                           const ingest::IngestOptions& options = {}) {
    std::vector<std::string> artifacts;
    for (std::size_t k = 0; k < count; ++k) {
      artifacts.push_back(path(ingest::partial_filename(k)));
      EXPECT_TRUE(write_partial(run_shard(paths, {k, count}, options),
                                artifacts.back())
                      .ok());
    }
    auto merged = reduce_partials(artifacts, options, {}, pool_);
    EXPECT_TRUE(merged.has_value()) << merged.error().to_string();
    return json::serialize(
        batch_to_json(merged->batch, /*include_traces=*/true));
  }

  /// The reduce of `partials`, each written to its own file first.
  util::Expected<MergedPartials> reduce(
      const std::vector<PartialArtifact>& partials) {
    std::vector<std::string> artifacts;
    for (const PartialArtifact& partial : partials) {
      artifacts.push_back(path("in-" + std::to_string(artifacts.size())));
      EXPECT_TRUE(write_partial(partial, artifacts.back()).ok());
    }
    return reduce_partials(artifacts, {}, {}, pool_);
  }

  fs::path dir_;
  parallel::ThreadPool pool_{2};
};

TEST_F(PartialTest, ArtifactRoundTripsThroughJson) {
  const auto paths = seed_population(40, 20190410);
  ingest::ShardSpec spec;
  spec.index = 1;
  spec.count = 2;
  const PartialArtifact partial = run_shard(paths, spec);
  ASSERT_FALSE(partial.fold.apps.empty());

  const std::string serialized = json::serialize(partial_to_json(partial));
  auto parsed = json::parse(serialized);
  ASSERT_TRUE(parsed.has_value());
  auto restored = partial_from_json(*parsed);
  ASSERT_TRUE(restored.has_value()) << restored.error().to_string();

  // Byte-identical re-serialization is the strongest round-trip statement.
  EXPECT_EQ(json::serialize(partial_to_json(*restored)), serialized);
  EXPECT_EQ(restored->shard_index, 1U);
  EXPECT_EQ(restored->shard_count, 2U);
  ASSERT_EQ(restored->fold.apps.size(), partial.fold.apps.size());
  for (const auto& [key, app] : partial.fold.apps) {
    const core::AppFold& back = restored->fold.apps.at(key);
    EXPECT_EQ(back.runs, app.runs) << key;
    EXPECT_EQ(back.path, app.path) << key;
    EXPECT_EQ(back.total_bytes, app.total_bytes) << key;
    EXPECT_EQ(back.job_id, app.job_id) << key;
  }
  EXPECT_EQ(restored->fold.stats.valid, partial.fold.stats.valid);
  EXPECT_EQ(restored->fold.stats.eviction_breakdown,
            partial.fold.stats.eviction_breakdown);
}

TEST_F(PartialTest, MergeOfOneTwoAndEightShardsMatchesSingleShotByteForByte) {
  const auto paths = seed_population(60, 20190410);
  const std::string reference = single_shot_json(paths);
  EXPECT_EQ(sharded_json(paths, 1), reference);
  EXPECT_EQ(sharded_json(paths, 2), reference);
  EXPECT_EQ(sharded_json(paths, 8), reference);
}

TEST_F(PartialTest, MergeReplaysCrossShardDedup) {
  // Two runs of one application, forced into different shards by file name;
  // the merge must retain the heavier run exactly as a single-shot batch
  // would, and the runs_per_app weight must sum across shards.
  trace::Trace light;
  light.meta.job_id = 11;
  light.meta.app_name = "solver";
  light.meta.user = "u1";
  light.meta.nprocs = 4;
  light.meta.run_time = 100.0;
  trace::FileRecord file;
  file.file_id = 1;
  file.bytes_written = 1 << 20;
  file.writes = 4;
  file.opens = 1;
  file.closes = 1;
  file.open_ts = 1.0;
  file.close_ts = 90.0;
  file.first_write_ts = 2.0;
  file.last_write_ts = 80.0;
  light.files.push_back(file);
  trace::Trace heavy = light;
  heavy.meta.job_id = 12;
  heavy.files[0].bytes_written = 8 << 20;

  // Find names that shard apart under N=2.
  std::string light_name;
  std::string heavy_name;
  for (int i = 0; light_name.empty() || heavy_name.empty(); ++i) {
    const std::string name = "run_" + std::to_string(i) + ".mbt";
    if (ingest::shard_of(name, 2) == 0 && light_name.empty()) {
      light_name = name;
    } else if (ingest::shard_of(name, 2) == 1 && heavy_name.empty()) {
      heavy_name = name;
    }
  }
  ASSERT_TRUE(darshan::write_mbt_file(light, path(light_name)).ok());
  ASSERT_TRUE(darshan::write_mbt_file(heavy, path(heavy_name)).ok());
  const std::vector<std::string> paths = {path(light_name), path(heavy_name)};

  ingest::ShardSpec shard0;
  shard0.index = 0;
  shard0.count = 2;
  ingest::ShardSpec shard1;
  shard1.index = 1;
  shard1.count = 2;
  const std::vector<PartialArtifact> partials = {run_shard(paths, shard0),
                                                 run_shard(paths, shard1)};
  ASSERT_EQ(partials[0].fold.apps.size(), 1U);
  ASSERT_EQ(partials[1].fold.apps.size(), 1U);

  auto merged = reduce(partials);
  ASSERT_TRUE(merged.has_value()) << merged.error().to_string();
  ASSERT_EQ(merged->batch.results.size(), 1U);
  EXPECT_EQ(merged->batch.results[0].job_id, 12U);  // heavier run won
  EXPECT_EQ(merged->batch.preprocess.valid, 2U);
  EXPECT_EQ(merged->batch.preprocess.retained, 1U);
  EXPECT_EQ(merged->batch.runs_per_app.at("u1/solver"), 2U);
}

TEST_F(PartialTest, MergeRejectsIncompleteOrInconsistentPartitions) {
  const auto paths = seed_population(20, 7);
  ingest::ShardSpec spec0;
  spec0.index = 0;
  spec0.count = 2;
  ingest::ShardSpec spec1;
  spec1.index = 1;
  spec1.count = 2;
  const PartialArtifact p0 = run_shard(paths, spec0);
  const PartialArtifact p1 = run_shard(paths, spec1);

  EXPECT_FALSE(reduce({}).has_value());

  // Missing shard 1 of 2.
  EXPECT_FALSE(reduce({p0}).has_value());

  // Duplicate shard 0.
  EXPECT_FALSE(reduce({p0, p0}).has_value());

  // Disagreeing shard counts.
  PartialArtifact wrong_count = p1;
  wrong_count.shard_count = 3;
  EXPECT_FALSE(reduce({p0, wrong_count}).has_value());

  // The complete partition reduces.
  EXPECT_TRUE(reduce({p0, p1}).has_value());
}

TEST_F(PartialTest, MergeReportsEveryPartitionProblemAtOnce) {
  const auto paths = seed_population(20, 7);
  ingest::ShardSpec spec0;
  spec0.index = 0;
  spec0.count = 4;
  const PartialArtifact p0 = run_shard(paths, spec0);

  // Shard 0 duplicated, shard 2's count disagrees, shards 1 and 3 missing:
  // one merge attempt must name all four problems, not just the first.
  PartialArtifact dup = p0;
  PartialArtifact wrong_count = p0;
  wrong_count.shard_index = 2;
  wrong_count.shard_count = 5;
  auto merged = reduce({p0, dup, wrong_count});
  ASSERT_FALSE(merged.has_value());
  EXPECT_EQ(merged.error().code, util::ErrorCode::kInvalidArgument);
  const std::string& message = merged.error().message;
  EXPECT_NE(message.find("shard 0 appears 2 times"), std::string::npos)
      << message;
  EXPECT_NE(message.find("shard 2 declares a 5-way partition"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("shard 1 is missing"), std::string::npos) << message;
  EXPECT_NE(message.find("shard 3 is missing"), std::string::npos) << message;
}

TEST_F(PartialTest, ReadPartialRejectsOtherSchemas) {
  ASSERT_TRUE(
      util::write_file_atomic(path("bogus.json"), "{\"schema\": \"nope\"}")
          .ok());
  const auto loaded = read_partial(path("bogus.json"));
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, util::ErrorCode::kParseError);
  EXPECT_FALSE(read_partial(path("missing.json")).has_value());

  // A v1 artifact carried analyzed results, not a fold, and a v2 one no
  // inputs: either must be re-run.
  json::Value v1 = partial_to_json(PartialArtifact{});
  v1.as_object().set("schema", "mosaic-partial-v1");
  ASSERT_TRUE(
      util::write_file_atomic(path("v1.json"), json::serialize(v1)).ok());
  const auto old = read_partial(path("v1.json"));
  ASSERT_FALSE(old.has_value());
  EXPECT_NE(old.error().message.find(kPartialSchema), std::string::npos)
      << old.error().message;
}

TEST_F(PartialTest, ExpandPartialPathsScansDirectories) {
  const auto paths = seed_population(20, 9);
  ingest::ShardSpec spec;
  spec.index = 0;
  spec.count = 1;
  const PartialArtifact partial = run_shard(paths, spec);
  const fs::path parts = dir_ / "parts";
  fs::create_directories(parts);
  ASSERT_TRUE(
      write_partial(partial, (parts / "results.shard-0.json").string()).ok());

  auto expanded = expand_partial_paths({parts.string()});
  ASSERT_TRUE(expanded.has_value());
  ASSERT_EQ(expanded->size(), 1U);

  // A directory without artifacts is an error, not an empty merge.
  const fs::path empty = dir_ / "empty";
  fs::create_directories(empty);
  EXPECT_FALSE(expand_partial_paths({empty.string()}).has_value());
}

TEST_F(PartialTest, ReduceFailsWhenEveryWinnerMovedAndDemotesAFewMissing) {
  // The population moves between the shards' fold and the reduce: no
  // winner is where its shard read it, so the reduce fails naming the
  // first winner (by application key) instead of summarizing zero
  // applications. With only that winner missing, it is demoted as
  // single-shot demotes a vanished winner, and the rest reduce.
  const auto paths = seed_population(60, 20190410);
  std::vector<PartialArtifact> partials;
  for (std::size_t k = 0; k < 2; ++k) {
    partials.push_back(run_shard(paths, {k, 2}));
  }
  // One shard of one folds the whole corpus: the global winners.
  const core::FoldState whole = run_shard(paths, {0, 1}).fold;
  const std::size_t winners = whole.apps.size();
  ASSERT_GT(winners, 1U);
  const std::string first = whole.apps.begin()->second.path;

  const fs::path moved = dir_ / "moved";
  fs::create_directories(moved);
  for (const std::string& file : paths) {
    fs::rename(file, moved / fs::path(file).filename());
  }
  auto everywhere_missing = reduce(partials);
  ASSERT_FALSE(everywhere_missing.has_value());
  EXPECT_EQ(everywhere_missing.error().code, util::ErrorCode::kNotFound);
  EXPECT_EQ(everywhere_missing.error().message.rfind(first + " ", 0), 0U)
      << everywhere_missing.error().message;
  EXPECT_NE(everywhere_missing.error().message.find(
                std::to_string(winners) + " dedup winner(s)"),
            std::string::npos)
      << everywhere_missing.error().message;

  for (const std::string& file : paths) {
    if (file != first) fs::rename(moved / fs::path(file).filename(), file);
  }
  auto one_missing = reduce(partials);
  ASSERT_TRUE(one_missing.has_value()) << one_missing.error().to_string();
  EXPECT_EQ(one_missing->batch.preprocess.retained, winners - 1);
  EXPECT_EQ(one_missing->batch.preprocess.eviction_breakdown.at("not-found"),
            1U);
}

/// Serves `target`'s file on its first read and `replacement`'s bytes on
/// every later one: a dedup winner rewritten after its fold.
class RewrittenAfterFirstRead final : public ingest::FileReader {
 public:
  RewrittenAfterFirstRead(std::string target, std::string replacement)
      : target_(std::move(target)), replacement_(std::move(replacement)) {}

  util::Expected<std::vector<std::byte>> read(const std::string& path,
                                              int attempt) override {
    if (path == target_ && reads_.fetch_add(1) > 0) {
      return ingest::system_reader().read(replacement_, attempt);
    }
    return ingest::system_reader().read(path, attempt);
  }

 private:
  std::string target_;
  std::string replacement_;
  std::atomic<int> reads_{0};
};

TEST_F(PartialTest, WinnerRewrittenAfterItsShardFoldedIsDemotedAsInSingleShot) {
  // Two runs of one application in different shards of two. The heavier
  // run's file changes between its shard's fold and the reduce's re-read:
  // single-shot demotes the application (no other run takes the winner's
  // place), and so must the reduce — a shard that analyzed its own winner
  // would demote it there and let the other shard's run through.
  trace::Trace light;
  light.meta.job_id = 21;
  light.meta.app_name = "solver";
  light.meta.user = "u1";
  light.meta.nprocs = 4;
  light.meta.run_time = 100.0;
  trace::FileRecord file;
  file.file_id = 1;
  file.bytes_written = 1 << 20;
  file.writes = 4;
  file.opens = 1;
  file.closes = 1;
  file.open_ts = 1.0;
  file.close_ts = 90.0;
  file.first_write_ts = 2.0;
  file.last_write_ts = 80.0;
  light.files.push_back(file);
  trace::Trace heavy = light;
  heavy.meta.job_id = 22;
  heavy.files[0].bytes_written = 8 << 20;
  trace::Trace rewritten = heavy;
  rewritten.files[0].bytes_written = 2 << 20;

  std::string light_name;
  std::string heavy_name;
  for (int i = 0; light_name.empty() || heavy_name.empty(); ++i) {
    const std::string name = "run_" + std::to_string(i) + ".mbt";
    if (ingest::shard_of(name, 2) == 0 && light_name.empty()) {
      light_name = name;
    } else if (ingest::shard_of(name, 2) == 1 && heavy_name.empty()) {
      heavy_name = name;
    }
  }
  ASSERT_TRUE(darshan::write_mbt_file(light, path(light_name)).ok());
  ASSERT_TRUE(darshan::write_mbt_file(heavy, path(heavy_name)).ok());
  ASSERT_TRUE(darshan::write_mbt_file(rewritten, path("rewritten.mbt")).ok());
  const std::vector<std::string> paths = {path(light_name), path(heavy_name)};

  RewrittenAfterFirstRead single_reader(path(heavy_name),
                                        path("rewritten.mbt"));
  ingest::IngestOptions single;
  single.reader = &single_reader;
  const std::string reference = single_shot_json(paths, single);

  RewrittenAfterFirstRead sharded_reader(path(heavy_name),
                                         path("rewritten.mbt"));
  ingest::IngestOptions sharded;
  sharded.reader = &sharded_reader;
  EXPECT_EQ(sharded_json(paths, 2, sharded), reference);

  const auto summary = json::parse(reference);
  ASSERT_TRUE(summary.has_value());
  const json::Object& funnel =
      summary->as_object().find("preprocessing")->as_object();
  EXPECT_EQ(funnel.find("retained")->as_number(), 0.0);
  EXPECT_EQ(funnel.find("valid")->as_number(), 1.0);
  EXPECT_EQ(funnel.find("eviction_breakdown")
                ->as_object()
                .find("not-found")
                ->as_number(),
            1.0);
}

TEST_F(PartialTest, KeepRuleKeepsOnlyTheSameShardOverTheSameInputs) {
  const auto paths = seed_population(40, 7);
  const ingest::ShardSpec spec{1, 3};
  const PartialArtifact partial = run_shard(paths, spec);
  const std::string file = path(ingest::partial_filename(1));
  ASSERT_TRUE(write_partial(partial, file).ok());

  std::vector<std::string> owned;
  for (const std::string& p : paths) {
    if (ingest::shard_owns(spec, p)) owned.push_back(p);
  }
  ASSERT_GT(owned.size(), 1U);
  const ShardInputs inputs = shard_inputs(owned);
  EXPECT_EQ(partial.inputs, inputs);
  EXPECT_EQ(inputs.paths, owned.size());

  const auto kept = keep_partial(file, spec, inputs);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(json::serialize(partial_to_json(*kept)),
            json::serialize(partial_to_json(partial)));
  // The digest does not depend on the order the paths come in.
  std::vector<std::string> reversed(owned.rbegin(), owned.rend());
  EXPECT_TRUE(keep_partial(file, spec, shard_inputs(reversed)).has_value());

  // Another shard, another partition, another corpus: run it again.
  EXPECT_FALSE(keep_partial(file, {0, 3}, inputs).has_value());
  EXPECT_FALSE(keep_partial(file, {1, 4}, inputs).has_value());
  std::vector<std::string> grown = owned;
  grown.push_back(path("added.mbt"));
  EXPECT_FALSE(keep_partial(file, spec, shard_inputs(grown)).has_value());
  std::vector<std::string> renamed = owned;
  renamed.back() += ".moved";
  EXPECT_FALSE(keep_partial(file, spec, shard_inputs(renamed)).has_value());

  // No file, or a torn one.
  EXPECT_FALSE(keep_partial(path("absent.json"), spec, inputs).has_value());
  fs::resize_file(file, fs::file_size(file) / 2);
  EXPECT_FALSE(keep_partial(file, spec, inputs).has_value());
}

TEST_F(PartialTest, ResumeRerunsTheShardOfATraceAddedToTheCorpus) {
  // A finished --shards 4 run, then a trace lands in the corpus. The
  // resumed run must fold the shard that owns the new file again, or the
  // summary silently misses it.
  auto paths = seed_population(80, 31);
  const std::string dir = path("partials");
  ASSERT_TRUE(run_shards(paths, {}, 4, dir, false, pool_).has_value());

  trace::Trace added;
  added.meta.job_id = 777;
  added.meta.app_name = "late";
  added.meta.user = "u9";
  added.meta.nprocs = 4;
  added.meta.run_time = 100.0;
  trace::FileRecord file;
  file.file_id = 1;
  file.bytes_written = 1 << 20;
  file.writes = 4;
  file.opens = 1;
  file.closes = 1;
  file.open_ts = 1.0;
  file.close_ts = 90.0;
  file.first_write_ts = 2.0;
  file.last_write_ts = 80.0;
  added.files.push_back(file);
  paths.push_back(path("job_777.mbt"));
  ASSERT_TRUE(darshan::write_mbt_file(added, paths.back()).ok());

  std::vector<std::size_t> rerun;
  auto artifacts = run_shards(paths, {}, 4, dir, true, pool_,
                              [&](const ShardRun& run) {
                                if (!run.kept) rerun.push_back(run.spec.index);
                              });
  ASSERT_TRUE(artifacts.has_value()) << artifacts.error().to_string();
  EXPECT_EQ(rerun, std::vector<std::size_t>{
                       ingest::shard_of(paths.back(), 4)});
  auto merged = reduce_partials(*artifacts, {}, {}, pool_);
  ASSERT_TRUE(merged.has_value()) << merged.error().to_string();
  const std::string resumed =
      json::serialize(batch_to_json(merged->batch, /*include_traces=*/true));
  EXPECT_EQ(resumed, single_shot_json(paths));
  EXPECT_NE(resumed.find("\"u9/late\""), std::string::npos);
}

}  // namespace
}  // namespace mosaic::report

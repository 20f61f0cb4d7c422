// Fault-tolerant ingestion: the acceptance tests for the streaming loader.
//
// A seeded corpus mixes valid traces (several runs per application), a
// semantically corrupt trace, a truncated binary, unparseable garbage and a
// missing path; the funnel must classify every one of them. On top of that,
// the fault-injection harness proves transient I/O errors heal through the
// retry loop, and a `--shards N` run resumed from the partials a killed run
// leaves behind reproduces a byte-identical JSON summary.
#include "ingest/ingest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "darshan/binary_format.hpp"
#include "darshan/io.hpp"
#include "darshan/text_format.hpp"
#include "ingest/reader.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "report/json_output.hpp"
#include "report/partial.hpp"
#include "sim/population.hpp"
#include "util/fs.hpp"

namespace mosaic::ingest {
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The batch summary of a funnel, traces included.
std::string summary_json(core::PreprocessResult pre,
                         parallel::ThreadPool& pool) {
  return json::serialize(report::batch_to_json(
      core::analyze_preprocessed(std::move(pre), {}, &pool),
      /*include_traces=*/true));
}

/// A `--shards count` run over `paths` into `dir`, killed and resumed: the
/// first run finishes, shard 0's partial is deleted and shard 1's torn in
/// half (what a kill leaves, since each partial is renamed into place
/// whole), then a resumed run keeps the other shards and runs those two.
/// Returns the reduce's summary and how many shards the resume kept.
struct Resumed {
  std::string json;
  std::size_t kept = 0;
};
Resumed shards_resumed_after_a_kill(const std::vector<std::string>& paths,
                                    const IngestOptions& options,
                                    std::size_t count, const std::string& dir,
                                    parallel::ThreadPool& pool) {
  Resumed out;
  if (!report::run_shards(paths, options, count, dir, false, pool)
           .has_value()) {
    ADD_FAILURE() << "fresh --shards run failed";
    return out;
  }
  const std::string lost = dir + "/" + partial_filename(0);
  const std::string torn = dir + "/" + partial_filename(1);
  fs::remove(lost);
  const std::string bytes = slurp(torn);
  EXPECT_TRUE(
      util::write_file_atomic(torn, bytes.substr(0, bytes.size() / 2)).ok());
  auto artifacts = report::run_shards(
      paths, options, count, dir, true, pool,
      [&](const report::ShardRun& run) { out.kept += run.kept ? 1 : 0; });
  if (!artifacts.has_value()) {
    ADD_FAILURE() << artifacts.error().to_string();
    return out;
  }
  auto merged = report::reduce_partials(*artifacts, options, {}, pool);
  if (!merged.has_value()) {
    ADD_FAILURE() << merged.error().to_string();
    return out;
  }
  out.json = json::serialize(report::batch_to_json(merged->batch, true));
  return out;
}

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("mosaic_ingest_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Writes the standard mixed corpus and returns its paths in scan order.
  std::vector<std::string> seed_corpus() {
    std::vector<std::string> paths;
    // Two runs of u1/alpha: run 2 is heavier and must win dedup.
    EXPECT_TRUE(darshan::write_text_file(make_trace("u1", "alpha", 1, 1 << 20),
                                         path("alpha_run1.txt"))
                    .ok());
    EXPECT_TRUE(darshan::write_text_file(make_trace("u1", "alpha", 2, 4 << 20),
                                         path("alpha_run2.txt"))
                    .ok());
    // One binary trace of u2/beta.
    EXPECT_TRUE(darshan::write_mbt_file(make_trace("u2", "beta", 3, 2 << 20),
                                        path("beta.mbt"))
                    .ok());
    // Parseable but semantically corrupt: file closed long after job end.
    trace::Trace corrupt = make_trace("u3", "gamma", 4, 1 << 20);
    corrupt.files[0].close_ts = corrupt.meta.run_time + 500.0;
    EXPECT_TRUE(
        darshan::write_text_file(corrupt, path("corrupt_validity.txt")).ok());
    // Torn binary: a valid MBT cut mid-record (checksum cannot match).
    const auto bytes = darshan::to_mbt(make_trace("u4", "delta", 5, 1 << 20));
    {
      std::ofstream torn(path("truncated.mbt"), std::ios::binary);
      torn.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size() / 2));
    }
    // Not a trace at all.
    {
      std::ofstream garbage(path("garbage.txt"));
      garbage << "this is not a darshan trace\n";
    }
    paths.push_back(path("alpha_run1.txt"));
    paths.push_back(path("alpha_run2.txt"));
    paths.push_back(path("beta.mbt"));
    paths.push_back(path("corrupt_validity.txt"));
    paths.push_back(path("truncated.mbt"));
    paths.push_back(path("garbage.txt"));
    paths.push_back(path("missing.txt"));  // never created
    return paths;
  }

  fs::path dir_;
};

TEST_F(IngestTest, MixedCorpusClassifiedByErrorCode) {
  const auto paths = seed_corpus();
  parallel::ThreadPool pool(4);
  IngestOptions options;
  options.backoff_initial_ms = 0.01;
  auto result = ingest_paths(paths, options, pool);
  ASSERT_TRUE(result.has_value());

  const IngestStats& stats = result->stats;
  EXPECT_EQ(stats.files_scanned, 7u);
  EXPECT_EQ(stats.loaded, 4u);   // alpha x2, beta, corrupt (parses fine)
  EXPECT_EQ(stats.failed, 3u);   // truncated, garbage, missing

  const core::PreprocessStats& funnel = result->pre.stats;
  EXPECT_EQ(funnel.input_traces, 7u);
  EXPECT_EQ(funnel.load_failed, 3u);
  EXPECT_EQ(funnel.corrupted, 1u);
  EXPECT_EQ(funnel.valid, 3u);
  EXPECT_EQ(funnel.retained, 2u);  // u1/alpha + u2/beta
  EXPECT_EQ(funnel.eviction_breakdown.at("parse-error"), 1u);
  EXPECT_EQ(funnel.eviction_breakdown.at("not-found"), 1u);
  // Truncated MBT (checksum) + semantic validity eviction both land here.
  EXPECT_EQ(funnel.eviction_breakdown.at("corrupt-trace"), 2u);
  EXPECT_EQ(funnel.corruption_breakdown.at("access-outside-job"), 1u);

  // Dedup kept the heavier alpha run; retained sorted by app key.
  ASSERT_EQ(result->pre.retained.size(), 2u);
  EXPECT_EQ(result->pre.retained[0].meta.job_id, 2u);  // u1/alpha run 2
  EXPECT_EQ(result->pre.retained[1].meta.job_id, 3u);  // u2/beta
  EXPECT_EQ(result->pre.runs_per_app.at("u1/alpha"), 2u);
}

TEST_F(IngestTest, TransientFaultsRecoverThroughRetry) {
  const auto paths = seed_corpus();
  parallel::ThreadPool pool(4);

  FaultSpec spec;
  spec.seed = 7;
  spec.transient_eio_probability = 1.0;  // every file fails its first reads
  spec.transient_eio_failures = 2;
  FaultyFileReader faulty(spec);

  IngestOptions options;
  options.reader = &faulty;
  options.max_retries = 3;
  options.backoff_initial_ms = 0.01;
  auto result = ingest_paths(paths, options, pool);
  ASSERT_TRUE(result.has_value());

  // Identical funnel to the fault-free run: transient faults are invisible
  // after retries. (missing.txt heals its injected EIOs too, then fails
  // with kNotFound from the real filesystem — still not retried further.)
  EXPECT_EQ(result->stats.loaded, 4u);
  EXPECT_EQ(result->stats.recovered, 4u);
  EXPECT_GE(result->stats.retry_attempts, 4u * 2u);
  EXPECT_EQ(result->pre.stats.load_failed, 3u);
  EXPECT_EQ(result->pre.stats.retained, 2u);
}

TEST_F(IngestTest, RetriesExhaustedClassifiedAsIoError) {
  const auto paths = seed_corpus();
  parallel::ThreadPool pool(2);

  FaultSpec spec;
  spec.transient_eio_probability = 1.0;
  spec.transient_eio_failures = 100;  // never heals within the retry budget
  FaultyFileReader faulty(spec);

  IngestOptions options;
  options.reader = &faulty;
  options.max_retries = 2;
  options.backoff_initial_ms = 0.01;
  auto result = ingest_paths(paths, options, pool);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->stats.loaded, 0u);
  // The injector sits in front of the filesystem, so even missing.txt is
  // evicted as io-error — its retries never reach the real reader.
  EXPECT_EQ(result->pre.stats.eviction_breakdown.at("io-error"), 7u);
}

TEST_F(IngestTest, DeadlineExpiryClassifiedAsTimeout) {
  const auto paths = seed_corpus();
  parallel::ThreadPool pool(2);

  FaultSpec spec;
  spec.transient_eio_probability = 1.0;
  spec.transient_eio_failures = 100;
  FaultyFileReader faulty(spec);

  IngestOptions options;
  options.reader = &faulty;
  options.max_retries = 50;
  options.backoff_initial_ms = 0.01;
  options.file_deadline_seconds = 1e-6;  // expired before the first retry
  auto result = ingest_paths(paths, options, pool);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->pre.stats.eviction_breakdown.at("timeout"), 7u);
}

TEST_F(IngestTest, QuarantineMovesContentFailuresOnly) {
  const auto paths = seed_corpus();
  parallel::ThreadPool pool(2);
  IngestOptions options;
  options.quarantine_dir = path("quarantine");
  auto result = ingest_paths(paths, options, pool);
  ASSERT_TRUE(result.has_value());

  // Content failures: corrupt_validity, truncated.mbt, garbage. Environmental
  // failures (missing.txt) stay put; healthy files are untouched.
  EXPECT_EQ(result->stats.quarantined, 3u);
  EXPECT_TRUE(fs::exists(path("quarantine/corrupt_validity.txt")));
  EXPECT_TRUE(fs::exists(path("quarantine/truncated.mbt")));
  EXPECT_TRUE(fs::exists(path("quarantine/garbage.txt")));
  EXPECT_FALSE(fs::exists(path("corrupt_validity.txt")));
  EXPECT_TRUE(fs::exists(path("alpha_run1.txt")));
}

TEST_F(IngestTest, QuarantineKeepsFilesThatShareAName) {
  // Two input directories hold a poison file of the same name: both land
  // in the quarantine directory, neither replaces the other.
  for (const char* dir : {"a", "b"}) {
    fs::create_directories(dir_ / dir);
    std::ofstream garbage(dir_ / dir / "x.txt");
    garbage << "poison from " << dir << "\n";
  }
  for (const std::size_t threads : {1u, 4u}) {
    parallel::ThreadPool pool(threads);
    const std::string quarantine = path("q" + std::to_string(threads));
    IngestOptions options;
    options.quarantine_dir = quarantine;
    auto result =
        ingest_paths({path("a/x.txt"), path("b/x.txt")}, options, pool);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->stats.quarantined, 2u);
    EXPECT_FALSE(fs::exists(path("a/x.txt")));
    EXPECT_FALSE(fs::exists(path("b/x.txt")));
    std::set<std::string> contents;
    for (const auto& entry : fs::directory_iterator(quarantine)) {
      contents.insert(slurp(entry.path().string()));
    }
    EXPECT_EQ(contents, (std::set<std::string>{"poison from a\n",
                                               "poison from b\n"}));
    // Put them back for the next thread count.
    for (const auto& entry : fs::directory_iterator(quarantine)) {
      const std::string text = slurp(entry.path().string());
      fs::rename(entry.path(),
                 dir_ / (text == "poison from a\n" ? "a" : "b") / "x.txt");
    }
  }
}

TEST_F(IngestTest, LoadFileClassifiesEveryFileAsTheFoldCountsIt) {
  const auto paths = seed_corpus();
  parallel::ThreadPool pool(2);
  auto result = ingest_paths(paths, IngestOptions{}, pool);
  ASSERT_TRUE(result.has_value());

  // load_file, the per-file step the daemon and `mosaic analyze` run, is
  // the per-path oracle of the fold's counters.
  std::map<std::string, std::size_t> evictions;
  std::map<std::string, std::size_t> corruption;
  for (const std::string& file : paths) {
    const core::FileOutcome outcome = load_file(file).outcome;
    if (outcome.valid()) continue;
    ++evictions[std::string(util::error_code_name(outcome.error->code))];
    if (outcome.corruption != trace::CorruptionKind::kNone) {
      ++corruption[trace::corruption_kind_name(outcome.corruption)];
    }
  }
  EXPECT_EQ(evictions, result->pre.stats.eviction_breakdown);
  EXPECT_EQ(corruption, result->pre.stats.corruption_breakdown);

  const core::FileOutcome alpha = load_file(path("alpha_run2.txt")).outcome;
  EXPECT_TRUE(alpha.valid());
  EXPECT_EQ(alpha.app_key, "u1/alpha");
  EXPECT_EQ(load_file(path("garbage.txt")).outcome.error->code,
            util::ErrorCode::kParseError);
  EXPECT_EQ(load_file(path("missing.txt")).outcome.error->code,
            util::ErrorCode::kNotFound);
  const core::FileOutcome corrupt =
      load_file(path("corrupt_validity.txt")).outcome;
  EXPECT_EQ(corrupt.error->code, util::ErrorCode::kCorruptTrace);
  EXPECT_EQ(corrupt.corruption, trace::CorruptionKind::kAccessOutsideJob);
}

TEST_F(IngestTest, AbortedRunResumesToByteIdenticalSummary) {
  const auto paths = seed_corpus();
  parallel::ThreadPool pool(2);

  auto full = ingest_paths(paths, IngestOptions{}, pool);
  ASSERT_TRUE(full.has_value());
  const std::string full_json = summary_json(std::move(full->pre), pool);

  const Resumed resumed = shards_resumed_after_a_kill(
      paths, IngestOptions{}, 4, path("partials"), pool);
  EXPECT_EQ(resumed.kept, 2u);
  ASSERT_FALSE(full_json.empty());
  EXPECT_EQ(full_json, resumed.json);
}

TEST_F(IngestTest, ResumeWithFaultInjectionStaysByteIdentical) {
  const auto paths = seed_corpus();
  parallel::ThreadPool pool(2);

  FaultSpec spec;
  spec.seed = 99;
  spec.transient_eio_probability = 1.0;
  spec.transient_eio_failures = 1;
  FaultyFileReader faulty(spec);

  IngestOptions options;
  options.reader = &faulty;
  options.backoff_initial_ms = 0.01;

  auto full = ingest_paths(paths, options, pool);
  ASSERT_TRUE(full.has_value());
  const std::string full_json = summary_json(std::move(full->pre), pool);

  const Resumed resumed =
      shards_resumed_after_a_kill(paths, options, 3, path("partials"), pool);
  EXPECT_EQ(resumed.kept, 1u);
  EXPECT_EQ(full_json, resumed.json);
}

/// Reads through the real filesystem, except that every read of `path`
/// after the first returns the bytes of `replacement`.
class RereadSwapReader final : public FileReader {
 public:
  RereadSwapReader(std::string path, std::string replacement)
      : path_(std::move(path)), replacement_(std::move(replacement)) {}

  util::Expected<std::vector<std::byte>> read(const std::string& path,
                                              int attempt) override {
    if (path == path_ && reads_.fetch_add(1) > 0) {
      return system_reader().read(replacement_, attempt);
    }
    return system_reader().read(path, attempt);
  }

 private:
  std::string path_;
  std::string replacement_;
  std::atomic<int> reads_{0};
};

TEST_F(IngestTest, ResumeDemotesAWinnerRewrittenSinceItsPartialWasWritten) {
  const auto paths = seed_corpus();
  parallel::ThreadPool pool(2);
  // u1/alpha's winner no longer holds the folded run: the application is
  // dropped, the file counted as a not-found eviction, and every retained
  // trace's application keeps its run count.
  const auto expect_alpha_demoted =
      [](const core::PreprocessStats& stats,
         const std::map<std::string, std::size_t>& runs_per_app,
         const std::vector<std::string>& retained) {
        EXPECT_EQ(retained, std::vector<std::string>{"u2/beta"});
        EXPECT_EQ(stats.retained, 1u);
        EXPECT_EQ(stats.valid, 2u);        // alpha run 1 and beta
        EXPECT_EQ(stats.load_failed, 4u);  // truncated, garbage, missing, alpha
        EXPECT_EQ(stats.eviction_breakdown.at("not-found"), 2u);
        EXPECT_EQ(runs_per_app.at("u1/alpha"), 1u);
        for (const std::string& key : retained) {
          EXPECT_EQ(runs_per_app.count(key), 1u) << key;
        }
      };
  const trace::Trace zeta = make_trace("u9", "zeta", 9, 8 << 20);

  // Resume: the kept partials name alpha_run2.txt as u1/alpha's heaviest
  // run, but the file now holds another application's trace. Its path is
  // unchanged, so every partial passes the keep rule, and the reduce's
  // re-read demotes the winner.
  ASSERT_TRUE(report::run_shards(paths, {}, 2, path("partials"), false, pool)
                  .has_value());
  ASSERT_TRUE(darshan::write_text_file(zeta, path("alpha_run2.txt")).ok());
  std::size_t kept = 0;
  auto artifacts = report::run_shards(
      paths, {}, 2, path("partials"), true, pool,
      [&](const report::ShardRun& run) { kept += run.kept ? 1 : 0; });
  ASSERT_TRUE(artifacts.has_value());
  EXPECT_EQ(kept, 2u);
  auto resumed = report::reduce_partials(*artifacts, {}, {}, pool);
  ASSERT_TRUE(resumed.has_value());
  std::vector<std::string> resumed_keys;
  for (const core::TraceResult& result : resumed->batch.results) {
    resumed_keys.push_back(result.app_key);
  }
  expect_alpha_demoted(resumed->batch.preprocess, resumed->batch.runs_per_app,
                       resumed_keys);

  // Live: the winner's first read is folded, its second read in finish()
  // returns another application's bytes.
  ASSERT_TRUE(darshan::write_text_file(make_trace("u1", "alpha", 2, 4 << 20),
                                       path("alpha_run2.txt"))
                  .ok());
  ASSERT_TRUE(darshan::write_text_file(zeta, path("zeta.elsewhere")).ok());
  RereadSwapReader swapping(path("alpha_run2.txt"), path("zeta.elsewhere"));
  IngestOptions live;
  live.reader = &swapping;
  auto result = ingest_paths(paths, live, pool);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->stats.loaded, 4u);
  std::vector<std::string> live_keys;
  for (const trace::Trace& trace : result->pre.retained) {
    live_keys.push_back(trace.app_key());
  }
  expect_alpha_demoted(result->pre.stats, result->pre.runs_per_app,
                       live_keys);
}

/// Writes `traces` executions of a seeded simulated population (corrupt
/// runs and reruns included) as alternating darshan-text and `.mbt` files
/// under `dir`, adds a torn `.mbt` and a garbage file, and returns the scan
/// of `dir` followed by a path that does not exist.
std::vector<std::string> write_population(const fs::path& dir,
                                          std::size_t traces) {
  fs::create_directories(dir);
  sim::PopulationConfig config;
  config.target_traces = traces;
  config.seed = 23;
  config.corruption_fraction = 0.3;
  const sim::Population population = sim::generate_population(config);
  for (std::size_t i = 0; i < population.traces.size(); ++i) {
    const trace::Trace& t = population.traces[i].trace;
    const std::string stem = (dir / ("job_" + std::to_string(t.meta.job_id)))
                                 .string();
    EXPECT_TRUE((i % 2 == 0 ? darshan::write_text_file(t, stem + ".txt")
                            : darshan::write_mbt_file(t, stem + ".mbt"))
                    .ok());
  }
  const auto bytes = darshan::to_mbt(population.traces[0].trace);
  {
    std::ofstream torn(dir / "torn.mbt", std::ios::binary);
    torn.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size() / 2));
    std::ofstream garbage(dir / "garbage.txt");
    garbage << "not a darshan trace\n";
  }
  auto paths = darshan::scan_trace_dir(dir.string());
  EXPECT_TRUE(paths.has_value());
  paths->push_back((dir / "missing.mbt").string());
  return *paths;
}

/// The counters of a run that must not depend on the thread count.
std::string describe(const IngestResult& result) {
  const IngestStats& io = result.stats;
  const core::PreprocessStats& funnel = result.pre.stats;
  std::ostringstream out;
  out << "scanned " << io.files_scanned << " loaded " << io.loaded
      << " failed " << io.failed << " retries " << io.retry_attempts
      << " recovered " << io.recovered << " quarantined " << io.quarantined
      << " | input "
      << funnel.input_traces << " load_failed " << funnel.load_failed
      << " corrupted " << funnel.corrupted << " valid " << funnel.valid
      << " apps " << funnel.unique_applications << " retained "
      << funnel.retained;
  for (const auto& [code, count] : funnel.eviction_breakdown) {
    out << " " << code << "=" << count;
  }
  for (const auto& [kind, count] : funnel.corruption_breakdown) {
    out << " " << kind << "=" << count;
  }
  return out.str();
}

TEST_F(IngestTest, SameBytesAtOneTwoAndEightThreadsWithDelayedFiles) {
  const auto paths = write_population(dir_ / "pop", 300);
  ASSERT_GT(paths.size(), 250u);
  // About 10% of files stall, so outcomes complete out of path order; a
  // fifth fail their first read, so winners' re-reads retry too.
  FaultSpec spec;
  spec.seed = 5;
  spec.delay_probability = 0.1;
  spec.delay_ms = 2.0;
  spec.transient_eio_probability = 0.2;
  spec.transient_eio_failures = 1;
  FaultyFileReader faulty(spec);
  IngestOptions base;
  base.reader = &faulty;
  base.backoff_initial_ms = 0.01;

  struct Run {
    std::string json, counters;
  };
  const auto run = [&](std::size_t threads, const IngestOptions& options) {
    parallel::ThreadPool pool(threads);
    auto result = ingest_paths(paths, options, pool);
    EXPECT_TRUE(result.has_value());
    Run out;
    out.counters = describe(*result);
    out.json = summary_json(std::move(result->pre), pool);
    return out;
  };

  const Run one = run(1, base);
  EXPECT_NE(one.counters.find("parse-error="), std::string::npos)
      << one.counters;
  EXPECT_NE(one.counters.find("not-found=1"), std::string::npos)
      << one.counters;
  EXPECT_EQ(one.counters.find(" corrupted 0 "), std::string::npos)
      << one.counters;
  EXPECT_EQ(one.counters.find(" retries 0 "), std::string::npos)
      << one.counters;
  for (const std::size_t threads : {2u, 8u}) {
    const Run other = run(threads, base);
    EXPECT_EQ(other.counters, one.counters) << threads << " threads";
    EXPECT_EQ(other.json, one.json) << threads << " threads";
  }

  // A --shards 4 run at 8 threads, killed and resumed: the same summary.
  parallel::ThreadPool pool(8);
  const Resumed resumed =
      shards_resumed_after_a_kill(paths, base, 4, path("partials"), pool);
  EXPECT_EQ(resumed.kept, 2u);
  EXPECT_EQ(resumed.json, one.json);
}

/// Reads through the real filesystem, except that the first attempt at
/// each of `flaky` fails with a transient EIO.
class FirstAttemptEioReader final : public FileReader {
 public:
  explicit FirstAttemptEioReader(std::set<std::string> flaky)
      : flaky_(std::move(flaky)) {}

  util::Expected<std::vector<std::byte>> read(const std::string& path,
                                              int attempt) override {
    if (attempt == 0 && flaky_.count(path) > 0) {
      return util::Error{util::ErrorCode::kIoError, "injected EIO on " + path};
    }
    return system_reader().read(path, attempt);
  }

 private:
  std::set<std::string> flaky_;
};

TEST_F(IngestTest, RunBoundariesKeepBytes) {
  // 50 sorted paths, so workers claim runs at 0, 16, 32 and 48. Text and
  // .mbt files interleave, and paths 14 to 23 are all .mbt: the checksum
  // group open at path 16 closes at the run's end, and the next one holds
  // a torn (17), a bit-flipped (19) and two valid files around a
  // bad-magic one (18), which is parsed on its own. Path 25 does not
  // exist, and the first reads of paths 16 and 20 fail with EIO.
  constexpr std::size_t kPaths = 50;
  sim::PopulationConfig config;
  config.target_traces = 60;
  config.seed = 31;
  config.corruption_fraction = 0.3;
  const sim::Population population = sim::generate_population(config);
  ASSERT_GE(population.traces.size(), kPaths);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < kPaths; ++i) {
    const bool mbt = (i >= 14 && i <= 23) || i % 3 == 0;
    char name[16];
    std::snprintf(name, sizeof name, "r%02zu.%s", i, mbt ? "mbt" : "txt");
    paths.push_back(path(name));
    if (i == 25) continue;
    const trace::Trace& t = population.traces[i].trace;
    if (!mbt) {
      ASSERT_TRUE(darshan::write_text_file(t, paths.back()).ok());
      continue;
    }
    std::vector<std::byte> bytes = darshan::to_mbt(t);
    if (i == 17) bytes.resize(bytes.size() / 2);
    if (i == 18) bytes[0] = std::byte{'X'};
    if (i == 19) bytes[bytes.size() / 3] ^= std::byte{0x10};
    std::ofstream out(paths.back(), std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  FirstAttemptEioReader flaky({paths[16], paths[20]});
  IngestOptions base;
  base.reader = &flaky;
  base.backoff_initial_ms = 0.01;
  const obs::Histogram& parse_ms = obs::Registry::global().histogram(
      obs::names::kIngestParseMs, obs::latency_buckets_ms());

  struct Run {
    std::string json, counters;
    IngestResult result;
    std::uint64_t parses = 0;
  };
  const auto run = [&](std::size_t threads) {
    parallel::ThreadPool pool(threads);
    const std::uint64_t parses_before = parse_ms.count();
    auto result = ingest_paths(paths, base, pool);
    Run out;
    if (!result.has_value()) {
      ADD_FAILURE() << result.error().to_string();
      return out;
    }
    out.parses = parse_ms.count() - parses_before;
    out.counters = describe(*result);
    out.result.stats = result->stats;
    out.result.pre.stats = result->pre.stats;
    out.json = summary_json(std::move(result->pre), pool);
    return out;
  };

  const Run one = run(1);
  ASSERT_FALSE(one.json.empty());
  const IngestStats& stats = one.result.stats;
  const core::PreprocessStats& funnel = one.result.pre.stats;
  EXPECT_EQ(stats.loaded + stats.failed, kPaths);
  EXPECT_EQ(stats.recovered, 2u);
  EXPECT_NE(one.counters.find("not-found=1"), std::string::npos)
      << one.counters;
  // One parse per file that was read (all but the missing one) and one per
  // re-read winner.
  EXPECT_EQ(one.parses, kPaths - 1 + funnel.retained);
  // The torn (17), bad-magic (18) and bit-flipped (19) files are the only
  // corrupt-trace evictions without a corruption kind: load_file, the
  // per-path oracle, says so file by file, and the fold counts exactly
  // three.
  for (const std::size_t i : {17u, 18u, 19u}) {
    const core::FileOutcome outcome = load_file(paths[i], base).outcome;
    ASSERT_FALSE(outcome.valid()) << paths[i];
    EXPECT_EQ(outcome.error->code, util::ErrorCode::kCorruptTrace) << i;
    EXPECT_EQ(outcome.corruption, trace::CorruptionKind::kNone) << i;
  }
  std::size_t with_kind = 0;
  for (const auto& [kind, count] : funnel.corruption_breakdown) {
    with_kind += count;
  }
  EXPECT_EQ(funnel.eviction_breakdown.at("corrupt-trace") - with_kind, 3u);
  for (const std::size_t i : {16u, 20u}) {
    const core::FileOutcome outcome = load_file(paths[i], base).outcome;
    EXPECT_TRUE(outcome.valid() ||
                outcome.corruption != trace::CorruptionKind::kNone)
        << paths[i];
  }

  for (const std::size_t threads : {2u, 8u}) {
    const Run other = run(threads);
    EXPECT_EQ(other.counters, one.counters) << threads << " threads";
    EXPECT_EQ(other.json, one.json) << threads << " threads";
    EXPECT_EQ(other.parses, one.parses) << threads << " threads";
  }

  // A --shards 3 run killed and resumed, at 1 and 8 threads: each shard's
  // owned paths cross run boundaries differently, and the summary is the
  // uninterrupted run's.
  for (const std::size_t threads : {1u, 8u}) {
    parallel::ThreadPool pool(threads);
    const Resumed resumed = shards_resumed_after_a_kill(
        paths, base, 3, path("partials_" + std::to_string(threads)), pool);
    EXPECT_EQ(resumed.kept, 1u) << threads << " threads";
    EXPECT_EQ(resumed.json, one.json) << threads << " threads";
  }
}

/// Reads through the real filesystem but throws on one path.
class ThrowingReader final : public FileReader {
 public:
  explicit ThrowingReader(std::string poison) : poison_(std::move(poison)) {}

  util::Expected<std::vector<std::byte>> read(const std::string& path,
                                              int attempt) override {
    if (path == poison_) throw std::runtime_error("reader failed on " + path);
    return system_reader().read(path, attempt);
  }

 private:
  std::string poison_;
};

TEST_F(IngestTest, ReaderExceptionPropagatesWithoutHanging) {
  const auto paths = seed_corpus();
  ThrowingReader throwing(path("beta.mbt"));
  for (const std::size_t threads : {1u, 8u}) {
    parallel::ThreadPool pool(threads);
    IngestOptions options;
    options.reader = &throwing;
    auto pending = std::async(std::launch::async, [&] {
      return ingest_paths(paths, options, pool);
    });
    if (pending.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      // The future's destructor would wait for the hung call forever.
      std::fprintf(stderr, "ingest_paths hung at %zu thread(s)\n", threads);
      std::abort();
    }
    EXPECT_THROW((void)pending.get(), std::runtime_error) << threads;

    // The pool survives the failed run.
    auto clean = ingest_paths(paths, IngestOptions{}, pool);
    ASSERT_TRUE(clean.has_value());
    EXPECT_EQ(clean->pre.stats.retained, 2u);
    EXPECT_EQ(clean->pre.stats.input_traces, 7u);
  }
}

TEST_F(IngestTest, LoadTraceSharesRetryPolicy) {
  const auto unused = seed_corpus();
  (void)unused;
  FaultSpec spec;
  spec.transient_eio_probability = 1.0;
  spec.transient_eio_failures = 2;
  FaultyFileReader faulty(spec);
  IngestOptions options;
  options.reader = &faulty;
  options.backoff_initial_ms = 0.01;

  std::size_t retries = 0;
  const auto trace = load_trace(path("beta.mbt"), options, &retries);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->meta.app_name, "beta");
  EXPECT_EQ(retries, 2u);

  const auto missing = load_trace(path("missing.txt"), options);
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, util::ErrorCode::kNotFound);
}

TEST(FaultSpecParse, FullSpecRoundTrips) {
  const auto spec = FaultSpec::parse(
      "seed=7,eio=0.3,eio_failures=2,eio_permanent=0.05,short=0.1,"
      "flip=0.15,delay=0.2,delay_ms=5");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->transient_eio_probability, 0.3);
  EXPECT_EQ(spec->transient_eio_failures, 2);
  EXPECT_DOUBLE_EQ(spec->permanent_eio_probability, 0.05);
  EXPECT_DOUBLE_EQ(spec->short_read_probability, 0.1);
  EXPECT_DOUBLE_EQ(spec->bitflip_probability, 0.15);
  EXPECT_DOUBLE_EQ(spec->delay_probability, 0.2);
  EXPECT_DOUBLE_EQ(spec->delay_ms, 5.0);
}

TEST(FaultSpecParse, RejectsUnknownKeysAndNonNumbers) {
  EXPECT_FALSE(FaultSpec::parse("bogus=1").has_value());
  EXPECT_FALSE(FaultSpec::parse("eio=lots").has_value());
  EXPECT_FALSE(FaultSpec::parse("justakey").has_value());
  const auto empty = FaultSpec::parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_DOUBLE_EQ(empty->transient_eio_probability, 0.0);
}

TEST(FaultyReader, DeterministicAcrossInstancesAndAttempts) {
  const fs::path dir =
      fs::temp_directory_path() / "mosaic_faulty_reader_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string file = (dir / "t.txt").string();
  ASSERT_TRUE(
      darshan::write_text_file(make_trace("u", "a", 1, 1024), file).ok());

  FaultSpec spec;
  spec.seed = 1234;
  spec.short_read_probability = 0.5;
  spec.bitflip_probability = 0.5;

  FaultyFileReader first(spec);
  FaultyFileReader second(spec);
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto a = first.read(file, attempt);
    const auto b = second.read(file, attempt);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(*a, *b) << "fault injection diverged on attempt " << attempt;
    }
  }
  fs::remove_all(dir);
}

TEST(FaultyReader, TransientEioHealsAtConfiguredAttempt) {
  const fs::path dir = fs::temp_directory_path() / "mosaic_faulty_heal_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string file = (dir / "t.txt").string();
  ASSERT_TRUE(
      darshan::write_text_file(make_trace("u", "a", 1, 1024), file).ok());

  FaultSpec spec;
  spec.transient_eio_probability = 1.0;
  spec.transient_eio_failures = 3;
  FaultyFileReader reader(spec);
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto result = reader.read(file, attempt);
    ASSERT_FALSE(result.has_value()) << "attempt " << attempt;
    EXPECT_EQ(result.error().code, util::ErrorCode::kIoError);
  }
  EXPECT_TRUE(reader.read(file, 3).has_value());
  fs::remove_all(dir);
}

TEST(FaultSpecParse, SeedKeepsFullUint64Precision) {
  // Seeds used to be parsed as double and cast back, silently rounding
  // values above 2^53 — the injected fault pattern then differed from the
  // one the user asked to reproduce.
  const auto spec = FaultSpec::parse("seed=18446744073709551615");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->seed, 18446744073709551615ull);

  const auto odd = FaultSpec::parse("seed=9007199254740993");  // 2^53 + 1
  ASSERT_TRUE(odd.has_value());
  EXPECT_EQ(odd->seed, 9007199254740993ull);

  EXPECT_FALSE(FaultSpec::parse("seed=-1").has_value());
  EXPECT_FALSE(FaultSpec::parse("seed=1.5").has_value());
}

TEST(FaultSpecParse, EioFailuresMustBeNonNegativeInteger) {
  EXPECT_FALSE(FaultSpec::parse("eio_failures=1.5").has_value());
  EXPECT_FALSE(FaultSpec::parse("eio_failures=-2").has_value());
  const auto spec = FaultSpec::parse("eio_failures=4");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->transient_eio_failures, 4);
}

}  // namespace
}  // namespace mosaic::ingest

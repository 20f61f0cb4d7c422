#include "core/preprocess.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "parallel/thread_pool.hpp"

namespace mosaic::core {
namespace {

trace::Trace make_trace(const std::string& user, const std::string& app,
                        std::uint64_t job_id, std::uint64_t bytes) {
  trace::Trace t;
  t.meta.job_id = job_id;
  t.meta.app_name = app;
  t.meta.user = user;
  t.meta.nprocs = 4;
  t.meta.run_time = 100.0;
  if (bytes > 0) {
    trace::FileRecord file;
    file.file_id = job_id;
    file.bytes_written = bytes;
    file.writes = 1;
    file.opens = 1;
    file.closes = 1;
    file.open_ts = 1.0;
    file.close_ts = 99.0;
    file.first_write_ts = 2.0;
    file.last_write_ts = 98.0;
    t.files.push_back(file);
  }
  return t;
}

TEST(Preprocess, EmptyInput) {
  const PreprocessResult result = preprocess(std::vector<trace::Trace>{});
  EXPECT_EQ(result.stats.input_traces, 0u);
  EXPECT_EQ(result.stats.retained, 0u);
  EXPECT_TRUE(result.retained.empty());
}

TEST(Preprocess, KeepsHeaviestTracePerApp) {
  std::vector<trace::Trace> traces;
  traces.push_back(make_trace("u1", "app", 1, 100));
  traces.push_back(make_trace("u1", "app", 2, 5000));  // heaviest
  traces.push_back(make_trace("u1", "app", 3, 200));
  const PreprocessResult result = preprocess(traces);
  ASSERT_EQ(result.retained.size(), 1u);
  EXPECT_EQ(result.retained[0].meta.job_id, 2u);
  EXPECT_EQ(result.runs_per_app.at("u1/app"), 3u);
}

TEST(Preprocess, DistinctUsersAreDistinctApps) {
  // Same executable run by two users: two applications (paper groups by
  // application *from a given user*).
  std::vector<trace::Trace> traces;
  traces.push_back(make_trace("u1", "lammps", 1, 100));
  traces.push_back(make_trace("u2", "lammps", 2, 100));
  const PreprocessResult result = preprocess(traces);
  EXPECT_EQ(result.retained.size(), 2u);
  EXPECT_EQ(result.stats.unique_applications, 2u);
}

TEST(Preprocess, EvictsCorruptedTraces) {
  std::vector<trace::Trace> traces;
  traces.push_back(make_trace("u1", "a", 1, 100));
  trace::Trace corrupt = make_trace("u2", "b", 2, 100);
  corrupt.meta.run_time = -1.0;
  traces.push_back(std::move(corrupt));
  const PreprocessResult result = preprocess(traces);
  EXPECT_EQ(result.stats.input_traces, 2u);
  EXPECT_EQ(result.stats.corrupted, 1u);
  EXPECT_EQ(result.stats.valid, 1u);
  EXPECT_EQ(result.stats.retained, 1u);
  EXPECT_EQ(result.stats.corruption_breakdown.at("non-positive-runtime"), 1u);
}

TEST(Preprocess, CorruptedRunsDoNotCountTowardRunsPerApp) {
  std::vector<trace::Trace> traces;
  traces.push_back(make_trace("u1", "a", 1, 100));
  trace::Trace corrupt = make_trace("u1", "a", 2, 900);
  corrupt.files[0].close_ts = 1e6;  // deallocation past end
  traces.push_back(std::move(corrupt));
  const PreprocessResult result = preprocess(traces);
  EXPECT_EQ(result.runs_per_app.at("u1/a"), 1u);
  // The corrupted (heavier) run must not have been chosen.
  ASSERT_EQ(result.retained.size(), 1u);
  EXPECT_EQ(result.retained[0].meta.job_id, 1u);
}

TEST(Preprocess, FunnelCountsConsistent) {
  std::vector<trace::Trace> traces;
  for (int app = 0; app < 5; ++app) {
    for (int run = 0; run < 10; ++run) {
      auto t = make_trace("u" + std::to_string(app), "app",
                          static_cast<std::uint64_t>(app * 100 + run),
                          static_cast<std::uint64_t>(run + 1));
      if (run % 3 == 0) t.meta.nprocs = 0;  // corrupt a third
      traces.push_back(std::move(t));
    }
  }
  const PreprocessResult result = preprocess(traces);
  EXPECT_EQ(result.stats.input_traces, 50u);
  EXPECT_EQ(result.stats.corrupted, 20u);  // runs 0,3,6,9 of each app
  EXPECT_EQ(result.stats.valid, 30u);
  EXPECT_EQ(result.stats.unique_applications, 5u);
  EXPECT_EQ(result.stats.retained, 5u);
  EXPECT_EQ(result.stats.valid,
            result.stats.input_traces - result.stats.corrupted);
  // Heaviest valid run per app is run 8 (bytes 9).
  for (const trace::Trace& t : result.retained) {
    EXPECT_EQ(t.meta.job_id % 100, 8u);
  }
}

TEST(Preprocess, TieBreaksKeepFirstHeaviest) {
  std::vector<trace::Trace> traces;
  traces.push_back(make_trace("u1", "a", 7, 100));
  traces.push_back(make_trace("u1", "a", 8, 100));  // equal weight
  const PreprocessResult result = preprocess(traces);
  ASSERT_EQ(result.retained.size(), 1u);
  EXPECT_EQ(result.retained[0].meta.job_id, 7u);
}

TEST(Preprocess, TieBreakIgnoresInputOrder) {
  // Equal weight: the lower job id wins wherever it sits in the input, the
  // rule batch, shards and dispatch apply (dedup_wins).
  std::vector<trace::Trace> traces;
  traces.push_back(make_trace("u1", "a", 8, 100));
  traces.push_back(make_trace("u1", "a", 7, 100));  // equal weight
  const PreprocessResult result = preprocess(traces);
  ASSERT_EQ(result.retained.size(), 1u);
  EXPECT_EQ(result.retained[0].meta.job_id, 7u);
}

TEST(Assess, DigestsAValidRunAndNamesAValidityEviction) {
  const FileOutcome valid = assess(make_trace("u", "app", 7, 300), "/v");
  EXPECT_TRUE(valid.valid());
  EXPECT_EQ(valid.path, "/v");
  EXPECT_EQ(valid.app_key, "u/app");
  EXPECT_EQ(valid.total_bytes, 300u);
  EXPECT_EQ(valid.job_id, 7u);

  trace::Trace corrupt = make_trace("u", "app", 8, 300);
  corrupt.meta.nprocs = 0;
  const FileOutcome evicted = assess(corrupt, "/c");
  ASSERT_FALSE(evicted.valid());
  EXPECT_FALSE(evicted.load_failed());
  EXPECT_EQ(evicted.error->code, util::ErrorCode::kCorruptTrace);
  EXPECT_EQ(evicted.corruption, trace::CorruptionKind::kZeroRanks);
}

/// A reload over in-memory "files"; a path it does not hold is not-found.
StreamingPreprocessor::Reload reload_from(
    std::map<std::string, trace::Trace> files) {
  return [files = std::move(files)](
             const std::string& path) -> util::Expected<trace::Trace> {
    const auto it = files.find(path);
    if (it == files.end()) {
      return util::Error{util::ErrorCode::kNotFound, path + " does not exist"};
    }
    return it->second;
  };
}

TEST(StreamingPreprocessor, MatchesOneShotPreprocess) {
  std::vector<trace::Trace> traces;
  traces.push_back(make_trace("u1", "a", 1, 100));
  traces.push_back(make_trace("u1", "a", 2, 5000));
  traces.push_back(make_trace("u2", "b", 3, 700));
  trace::Trace corrupt = make_trace("u3", "c", 4, 100);
  corrupt.meta.nprocs = 0;
  traces.push_back(std::move(corrupt));

  StreamingPreprocessor streaming;
  std::map<std::string, trace::Trace> files;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::string path = "/t/" + std::to_string(i);
    streaming.add(assess(traces[i], path));
    files.emplace(path, traces[i]);
  }
  const PreprocessResult incremental =
      streaming.finish(reload_from(std::move(files)));
  const PreprocessResult oneshot = preprocess(traces);

  EXPECT_EQ(incremental.stats.input_traces, oneshot.stats.input_traces);
  EXPECT_EQ(incremental.stats.corrupted, oneshot.stats.corrupted);
  EXPECT_EQ(incremental.stats.valid, oneshot.stats.valid);
  EXPECT_EQ(incremental.stats.retained, oneshot.stats.retained);
  EXPECT_EQ(incremental.runs_per_app, oneshot.runs_per_app);
  ASSERT_EQ(incremental.retained.size(), oneshot.retained.size());
  for (std::size_t i = 0; i < incremental.retained.size(); ++i) {
    EXPECT_EQ(incremental.retained[i].meta.job_id,
              oneshot.retained[i].meta.job_id);
  }
}

TEST(StreamingPreprocessor, ArrivalOrderDoesNotChangeWinner) {
  // Equal weight: job id breaks the tie, then path — never arrival order.
  const auto run = [](bool reversed) {
    StreamingPreprocessor pre;
    std::vector<std::pair<std::uint64_t, std::string>> runs = {
        {9, "/z.txt"}, {3, "/a.txt"}, {5, "/m.txt"}};
    if (reversed) std::reverse(runs.begin(), runs.end());
    std::map<std::string, trace::Trace> files;
    for (const auto& [job, path] : runs) {
      const trace::Trace trace = make_trace("u", "app", job, 100);
      pre.add(assess(trace, path));
      files.emplace(path, trace);
    }
    return pre.finish(reload_from(std::move(files)));
  };
  const PreprocessResult forward = run(false);
  const PreprocessResult backward = run(true);
  ASSERT_EQ(forward.retained.size(), 1u);
  ASSERT_EQ(backward.retained.size(), 1u);
  EXPECT_EQ(forward.retained[0].meta.job_id, 3u);
  EXPECT_EQ(backward.retained[0].meta.job_id, 3u);
}

FileOutcome evicted(util::ErrorCode code,
                    trace::CorruptionKind kind = trace::CorruptionKind::kNone) {
  FileOutcome outcome;
  outcome.path = "/evicted";
  outcome.error = util::Error{code, ""};
  outcome.corruption = kind;
  return outcome;
}

TEST(StreamingPreprocessor, LoadFailuresFeedEvictionBreakdown) {
  StreamingPreprocessor pre;
  pre.add(evicted(util::ErrorCode::kIoError));
  pre.add(evicted(util::ErrorCode::kIoError));
  pre.add(evicted(util::ErrorCode::kParseError));
  pre.add(evicted(util::ErrorCode::kNotFound));
  pre.add(evicted(util::ErrorCode::kTimeout));
  const trace::Trace ok = make_trace("u", "a", 1, 10);
  pre.add(assess(ok, "/ok"));
  const PreprocessResult result = pre.finish(reload_from({{"/ok", ok}}));
  EXPECT_EQ(result.stats.input_traces, 6u);
  EXPECT_EQ(result.stats.load_failed, 5u);
  EXPECT_EQ(result.stats.valid, 1u);
  EXPECT_EQ(result.stats.eviction_breakdown.at("io-error"), 2u);
  EXPECT_EQ(result.stats.eviction_breakdown.at("parse-error"), 1u);
  EXPECT_EQ(result.stats.eviction_breakdown.at("not-found"), 1u);
  EXPECT_EQ(result.stats.eviction_breakdown.at("timeout"), 1u);
}

TEST(StreamingPreprocessor, DigestWinnerReloadedLazily) {
  StreamingPreprocessor pre;
  // Journaled digest is heavier than the in-memory trace: it must win and
  // be re-read through the reload hook; the loser must never be reloaded.
  pre.add({"/journaled.txt", "u/app", 9999, 42});
  const trace::Trace live = make_trace("u", "app", 1, 10);
  pre.add(assess(live, "/live.txt"));
  std::vector<std::string> reloaded;
  const PreprocessResult result =
      pre.finish([&](const std::string& path) -> util::Expected<trace::Trace> {
        reloaded.push_back(path);
        return make_trace("u", "app", 42, 9999);
      });
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded[0], "/journaled.txt");
  ASSERT_EQ(result.retained.size(), 1u);
  EXPECT_EQ(result.retained[0].meta.job_id, 42u);
  EXPECT_EQ(result.runs_per_app.at("u/app"), 2u);
}

TEST(StreamingPreprocessor, FailedReloadDemotesApplication) {
  StreamingPreprocessor pre;
  pre.add({"/gone.txt", "u/app", 100, 1});
  const PreprocessResult result =
      pre.finish([](const std::string&) -> util::Expected<trace::Trace> {
        return util::Error{util::ErrorCode::kIoError, "disk died"};
      });
  EXPECT_TRUE(result.retained.empty());
  EXPECT_EQ(result.stats.retained, 0u);
  EXPECT_EQ(result.stats.valid, 0u);  // demoted: no longer a valid run
  EXPECT_EQ(result.stats.load_failed, 1u);
  EXPECT_EQ(result.stats.eviction_breakdown.at("io-error"), 1u);
  EXPECT_FALSE(result.runs_per_app.count("u/app"));
}

TEST(StreamingPreprocessor, WinnerThatNoLongerMatchesItsDigestIsDemoted) {
  // Three applications whose winners changed between fold and re-read:
  // another run now stands at the path, the file is now corrupt, and one
  // file is unchanged. Serial and pooled re-reads must agree.
  trace::Trace corrupt = make_trace("u", "c", 3, 300);
  corrupt.meta.nprocs = 0;
  const auto run = [&](parallel::ThreadPool* pool) {
    StreamingPreprocessor pre;
    pre.add(assess(make_trace("u", "a", 1, 100), "/a"));
    pre.add(assess(make_trace("u", "b", 2, 200), "/b"));
    pre.add(assess(make_trace("u", "c", 3, 300), "/c"));
    return pre.finish(reload_from({{"/a", make_trace("u", "other", 9, 900)},
                                   {"/b", make_trace("u", "b", 2, 200)},
                                   {"/c", corrupt}}),
                      pool);
  };
  parallel::ThreadPool pool(3);
  for (const PreprocessResult& result : {run(nullptr), run(&pool)}) {
    ASSERT_EQ(result.retained.size(), 1u);
    EXPECT_EQ(result.retained[0].meta.app_name, "b");
    EXPECT_EQ(result.stats.input_traces, 3u);
    EXPECT_EQ(result.stats.valid, 1u);
    EXPECT_EQ(result.stats.load_failed, 1u);
    EXPECT_EQ(result.stats.corrupted, 1u);
    EXPECT_EQ(result.stats.eviction_breakdown.at("not-found"), 1u);
    EXPECT_EQ(result.stats.eviction_breakdown.at("corrupt-trace"), 1u);
    EXPECT_EQ(result.stats.corruption_breakdown.at("zero-ranks"), 1u);
    EXPECT_EQ(result.runs_per_app,
              (std::map<std::string, std::size_t>{{"u/b", 1}}));
  }
}

TEST(StreamingPreprocessor, JournaledEvictionsReplayIntoFunnel) {
  StreamingPreprocessor pre;
  pre.add(evicted(util::ErrorCode::kParseError));
  pre.add(evicted(util::ErrorCode::kCorruptTrace,
                  trace::CorruptionKind::kAccessOutsideJob));
  const PreprocessResult result = pre.finish(reload_from({}));
  EXPECT_EQ(result.stats.input_traces, 2u);
  EXPECT_EQ(result.stats.load_failed, 1u);
  EXPECT_EQ(result.stats.corrupted, 1u);
  EXPECT_EQ(result.stats.eviction_breakdown.at("parse-error"), 1u);
  EXPECT_EQ(result.stats.eviction_breakdown.at("corrupt-trace"), 1u);
  EXPECT_EQ(result.stats.corruption_breakdown.at("access-outside-job"), 1u);
}

}  // namespace
}  // namespace mosaic::core

// The daemon against batch: one per-file funnel, and a session loop that
// one quiet client cannot monopolize.
//
// DaemonFunnel feeds one mixed corpus to batch ingest and, file by file, to
// the daemon; both must reject the same files under the same error codes
// and categorize every retained run the same way, with ingest::load_file as
// the per-path oracle.
// DaemonSessions holds a connection open after the hello and checks that
// another client is still served. DaemonExplain serves /explain while
// submissions evict the very entry being served (the tsan preset runs it).
#include "dist/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "darshan/binary_format.hpp"
#include "darshan/text_format.hpp"
#include "daemon_probe.hpp"
#include "dist/protocol.hpp"
#include "ingest/ingest.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/provenance.hpp"
#include "parallel/thread_pool.hpp"

namespace mosaic::dist {
namespace {

namespace fs = std::filesystem;
using daemon_probe::daemon_rejections;
using daemon_probe::http_get;
using daemon_probe::ok_body;

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

/// A fresh directory named after the running test, removed on scope exit.
class ScratchDir {
 public:
  ScratchDir()
      : dir_(fs::temp_directory_path() /
             (std::string("mosaic_daemon_test_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name())) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

/// Two runs of one app, a second app, a validity-corrupt text trace, a torn
/// .mbt, a non-trace file and a missing path, in scan order.
std::vector<std::string> seed_corpus(const ScratchDir& dir) {
  EXPECT_TRUE(darshan::write_text_file(make_trace("u1", "alpha", 1, 1 << 20),
                                       dir.path("alpha_run1.txt"))
                  .ok());
  EXPECT_TRUE(darshan::write_text_file(make_trace("u1", "alpha", 2, 4 << 20),
                                       dir.path("alpha_run2.txt"))
                  .ok());
  EXPECT_TRUE(darshan::write_mbt_file(make_trace("u2", "beta", 3, 2 << 20),
                                      dir.path("beta.mbt"))
                  .ok());
  trace::Trace corrupt = make_trace("u3", "gamma", 4, 1 << 20);
  corrupt.files[0].close_ts = corrupt.meta.run_time + 500.0;
  EXPECT_TRUE(
      darshan::write_text_file(corrupt, dir.path("corrupt_validity.txt")).ok());
  const auto bytes = darshan::to_mbt(make_trace("u4", "delta", 5, 1 << 20));
  {
    std::ofstream torn(dir.path("truncated.mbt"), std::ios::binary);
    torn.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size() / 2));
  }
  {
    std::ofstream garbage(dir.path("garbage.txt"));
    garbage << "this is not a darshan trace\n";
  }
  return {dir.path("alpha_run1.txt"),       dir.path("alpha_run2.txt"),
          dir.path("beta.mbt"),             dir.path("corrupt_validity.txt"),
          dir.path("truncated.mbt"),        dir.path("garbage.txt"),
          dir.path("missing.txt")};
}

TEST(DaemonFunnel, AgreesWithBatchFileByFile) {
  obs::set_metrics_enabled(true);
  const ScratchDir dir;
  const std::vector<std::string> paths = seed_corpus(dir);

  parallel::ThreadPool pool(2);
  ingest::IngestOptions options;
  options.max_retries = 0;
  auto batch = ingest::ingest_paths(paths, options, pool);
  ASSERT_TRUE(batch.has_value());
  const std::map<std::string, std::size_t> evictions =
      batch->pre.stats.eviction_breakdown;
  const core::BatchResult analyzed =
      core::analyze_preprocessed(std::move(batch->pre), {}, &pool);
  // Retained results by job id, which load_file names per path.
  std::map<std::uint64_t, std::vector<std::string>> batch_categories;
  for (const core::TraceResult& result : analyzed.results) {
    batch_categories[result.job_id] = result.categories.names();
  }

  obs::Registry::global().reset();
  DaemonOptions daemon_options;
  daemon_options.ingest.max_retries = 0;
  Daemon daemon(std::move(daemon_options));
  std::size_t compared = 0;
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    const auto reply = daemon.submit_path(path);
    ASSERT_TRUE(reply.has_value());
    const core::FileOutcome outcome =
        ingest::load_file(path, options).outcome;
    EXPECT_EQ(reply->ok, outcome.valid()) << reply->error;
    if (const auto it = batch_categories.find(outcome.job_id);
        outcome.valid() && it != batch_categories.end()) {
      EXPECT_EQ(reply->categories, it->second);
      ++compared;
    }
  }
  EXPECT_EQ(compared, 2u);  // alpha's heavier run and beta
  EXPECT_EQ(daemon_rejections(), evictions);
  EXPECT_EQ(daemon.stats().rejected, 4u);
}

TEST(DaemonSessions, IdleClientDoesNotBlockOtherSubmitters) {
  const ScratchDir dir;
  const std::string trace_path = dir.path("alpha.mbt");
  ASSERT_TRUE(
      darshan::write_mbt_file(make_trace("u1", "alpha", 1, 1 << 20), trace_path)
          .ok());

  DaemonOptions options;
  options.listen = Address{"127.0.0.1", 0};
  options.spool_dir = dir.path("spool");
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.start().ok());
  // Stops and joins the daemon on every exit path, failed asserts included.
  struct Running {
    Daemon& daemon;
    std::thread thread;
    ~Running() {
      daemon.request_stop();
      thread.join();
    }
  } running{daemon, std::thread([&daemon] { daemon.run(); })};
  const Address address{"127.0.0.1", daemon.listen_port()};

  // Client A completes the hello, then sends nothing and keeps the socket
  // open.
  auto idle = connect_to(address, 5.0);
  ASSERT_TRUE(idle.has_value());
  ASSERT_TRUE(write_frame(*idle, FrameType::kHello, hello_payload()).ok());
  ASSERT_TRUE(read_frame(*idle, 5.0).has_value());

  // Client B is served anyway, within the daemon's idle limit plus slack.
  const auto reply = submit_trace_file(address, trace_path, 15.0);
  ASSERT_TRUE(reply.has_value()) << reply.error().to_string();
  EXPECT_TRUE(reply->ok) << reply->error;
}

TEST(DaemonExplain, ServesWhileInsertsEvictItsEntry) {
  // A cache that holds one trace's evidence: each submission of the other
  // trace misses and evicts the entry /explain may be serializing at that
  // moment. Every answer is 404 or exactly `mosaic explain --json`'s bytes.
  const ScratchDir dir;
  const trace::Trace traces[] = {make_trace("u1", "alpha", 1, 1 << 20),
                                 make_trace("u2", "beta", 2, 4 << 20)};
  const std::string paths[] = {dir.path("alpha.mbt"), dir.path("beta.mbt")};
  std::string expected[2];
  std::size_t largest = 0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(darshan::write_mbt_file(traces[i], paths[i]).ok());
    obs::TraceProvenance evidence;
    (void)core::Analyzer().analyze(traces[i], &evidence);
    expected[i] =
        json::serialize(obs::provenance_to_json(evidence), /*pretty=*/true) +
        "\n";
    largest = std::max(largest, obs::provenance_heap_bytes(evidence));
  }

  DaemonOptions options;
  options.cache_capacity_bytes = largest;
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.start().ok());
  constexpr int kRounds = 50;
  std::thread submitter([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (const std::string& path : paths) {
        EXPECT_TRUE(daemon.submit_path(path)->ok);
      }
    }
  });
  std::size_t served = 0;
  for (int request = 0; request < 4 * kRounds; ++request) {
    const int i = request % 2;
    const std::string response =
        http_get(daemon.http_port(), "/explain/" + std::to_string(i + 1));
    if (response.rfind("HTTP/1.1 404", 0) == 0) continue;
    EXPECT_EQ(ok_body(response), expected[i]);
    ++served;
  }
  submitter.join();
  // Every submission missed: the other trace had always evicted it.
  EXPECT_EQ(daemon.stats().analyzed, 2u * kRounds);
  EXPECT_EQ(daemon.stats().cache_hits, 0u);
  // The last insert (beta) stays until the next one.
  EXPECT_EQ(ok_body(http_get(daemon.http_port(), "/explain/2")), expected[1]);
  EXPECT_EQ(http_get(daemon.http_port(), "/explain/1").rfind("HTTP/1.1 404", 0),
            0u);
  EXPECT_GT(served, 0u);
}

}  // namespace
}  // namespace mosaic::dist

// End-to-end tests of the fault-tolerant distributed execution path
// (dist/dispatch.hpp + dist/worker.hpp) over real loopback sockets:
// in-process workers on ephemeral ports serve a dispatch manager, faults
// are injected deterministically, and the merged output must stay
// byte-identical to the single-shot run — the PR-5 golden guarantee
// extended across process/network boundaries.
#include "dist/dispatch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "darshan/binary_format.hpp"
#include "dist/worker.hpp"
#include "ingest/ingest.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"
#include "report/json_output.hpp"
#include "report/partial.hpp"
#include "sim/population.hpp"

namespace mosaic::dist {
namespace {

namespace fs = std::filesystem;

/// One in-process worker serving on an ephemeral loopback port.
struct TestWorker {
  std::unique_ptr<Worker> worker;
  std::thread thread;
  Address address;

  explicit TestWorker(WorkerOptions options) {
    options.listen = Address{"127.0.0.1", 0};
    options.heartbeat_interval_seconds = 0.2;
    worker = std::make_unique<Worker>(std::move(options));
    EXPECT_TRUE(worker->bind().ok());
    address = Address{"127.0.0.1", worker->port()};
    thread = std::thread([this] { EXPECT_TRUE(worker->serve().ok()); });
  }

  ~TestWorker() { join(); }

  void join() {
    if (!thread.joinable()) return;
    worker->stop();
    thread.join();
  }
};

class DispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("mosaic_dispatch_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    seed_population(40, 11);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  void seed_population(std::size_t traces, std::uint64_t seed) {
    sim::PopulationConfig config;
    config.target_traces = traces;
    config.seed = seed;
    const sim::Population population = sim::generate_population(config);
    for (const auto& entry : population.traces) {
      const std::string file =
          path("job_" + std::to_string(entry.trace.meta.job_id) + ".mbt");
      ASSERT_TRUE(darshan::write_mbt_file(entry.trace, file).ok());
      corpus_.push_back(file);
    }
  }

  /// The single-shot reference JSON every distributed run must reproduce.
  std::string single_shot_json() {
    parallel::ThreadPool pool(2);
    ingest::IngestOptions options;
    auto ingested = ingest::ingest_paths(corpus_, options, pool);
    EXPECT_TRUE(ingested.has_value());
    const core::BatchResult batch =
        core::analyze_preprocessed(std::move(ingested->pre), {}, &pool);
    return json::serialize(
        report::batch_to_json(batch, /*include_traces=*/true));
  }

  /// Reduces a dispatch result's partials, as the manager does, and
  /// serializes like the single shot.
  std::string merged_json(const DispatchResult& result) {
    parallel::ThreadPool pool(2);
    auto merged = report::reduce_partials(result.partial_paths, {}, {}, pool);
    EXPECT_TRUE(merged.has_value()) << merged.error().to_string();
    return json::serialize(
        report::batch_to_json(merged->batch, /*include_traces=*/true));
  }

  DispatchOptions base_options(const std::vector<const TestWorker*>& workers,
                               std::size_t shards,
                               const std::string& out_sub = "parts") {
    DispatchOptions options;
    for (const TestWorker* worker : workers) {
      options.workers.push_back(worker->address);
    }
    options.shard_count = shards;
    options.paths = corpus_;
    options.out_dir = path(out_sub);
    options.degraded_threads = 2;
    options.connect_timeout_seconds = 5.0;
    options.heartbeat_grace_seconds = 5.0;
    // Tight retry schedule so failure-path tests stay fast.
    options.retry_initial_delay_ms = 5.0;
    options.retry_max_delay_ms = 50.0;
    return options;
  }

  /// Where dispatch keeps shard `index`'s artifact under base_options().
  std::string partial_slot(std::size_t index) const {
    return path("parts/results.shard-" + std::to_string(index) + ".json");
  }

  /// Shard `index` of `count` over the corpus, as one artifact's bytes.
  std::string partial_text(std::size_t index, std::size_t count) {
    parallel::ThreadPool pool(2);
    ingest::IngestOptions options;
    options.shard = {index, count};
    return json::serialize(
        report::partial_to_json(report::run_shard(corpus_, options, pool)));
  }

  void write_text(const std::string& file, const std::string& text) {
    fs::create_directories(fs::path(file).parent_path());
    std::ofstream(file, std::ios::binary) << text;
  }

  void write_shard_partial(std::size_t index, std::size_t count,
                           const std::string& file) {
    write_text(file, partial_text(index, count));
  }

  /// A --resume run with no workers: whatever it does not keep from
  /// --partials runs in-process. An empty result (not complete()) on error.
  DispatchResult resume_without_workers(std::size_t shards) {
    auto options = base_options({}, shards);
    options.resume = true;
    auto result = run_dispatch(options);
    EXPECT_TRUE(result.has_value()) << result.error().to_string();
    return result.has_value() ? std::move(*result) : DispatchResult{};
  }

  fs::path dir_;
  std::vector<std::string> corpus_;
};

TEST_F(DispatchTest, TwoWorkersFourShardsMatchSingleShot) {
  TestWorker w1{WorkerOptions{}};
  TestWorker w2{WorkerOptions{}};
  auto result = run_dispatch(base_options({&w1, &w2}, 4));
  ASSERT_TRUE(result.has_value()) << result.error().to_string();
  ASSERT_TRUE(result->complete());
  EXPECT_EQ(result->stats.tasks_done, 4U);
  EXPECT_EQ(result->stats.quarantined, 0U);
  EXPECT_EQ(merged_json(*result), single_shot_json());
}

TEST_F(DispatchTest, WorkerKilledMidRunIsReassignedByteIdentically) {
  WorkerOptions faulty;
  faulty.fault = NetFaultSpec{};
  faulty.fault->kill_after_tasks = 1;  // dies for good after one task
  TestWorker w1{std::move(faulty)};
  TestWorker w2{WorkerOptions{}};

  auto options = base_options({&w1, &w2}, 4);
  options.reconnect_attempts = 1;
  options.connect_timeout_seconds = 0.5;
  auto result = run_dispatch(options);
  ASSERT_TRUE(result.has_value()) << result.error().to_string();
  ASSERT_TRUE(result->complete());
  EXPECT_EQ(result->stats.workers_lost, 1U);
  EXPECT_EQ(merged_json(*result), single_shot_json());
}

TEST_F(DispatchTest, AllWorkersLostDegradesInProcessByteIdentically) {
  WorkerOptions faulty;
  faulty.fault = NetFaultSpec{};
  faulty.fault->kill_after_tasks = 1;
  TestWorker w1{std::move(faulty)};

  auto options = base_options({&w1}, 3);
  options.reconnect_attempts = 1;
  options.connect_timeout_seconds = 0.5;
  auto result = run_dispatch(options);
  ASSERT_TRUE(result.has_value()) << result.error().to_string();
  ASSERT_TRUE(result->complete());
  EXPECT_EQ(result->stats.workers_lost, 1U);
  EXPECT_GE(result->stats.degraded_tasks, 1U);
  EXPECT_EQ(merged_json(*result), single_shot_json());
}

TEST_F(DispatchTest, CorruptPartialFramesHealOnReRequest) {
  WorkerOptions faulty;
  faulty.fault = NetFaultSpec{};
  faulty.fault->corrupt_probability = 1.0;  // every shard's first reply
  faulty.fault->corrupt_failures = 1;       // ...then heals, like EIO
  TestWorker w1{std::move(faulty)};

  auto result = run_dispatch(base_options({&w1}, 2));
  ASSERT_TRUE(result.has_value()) << result.error().to_string();
  ASSERT_TRUE(result->complete());
  EXPECT_GE(result->stats.retries, 2U);  // one re-request per shard
  EXPECT_EQ(result->stats.quarantined, 0U);
  EXPECT_EQ(merged_json(*result), single_shot_json());
}

TEST_F(DispatchTest, PoisonedTaskIsQuarantinedNotRetriedForever) {
  WorkerOptions faulty;
  faulty.fault = NetFaultSpec{};
  faulty.fault->close_probability = 1.0;  // drops every task, every attempt
  TestWorker w1{std::move(faulty)};

  auto options = base_options({&w1}, 2);
  options.max_task_attempts = 2;
  options.allow_degraded = false;  // isolate the quarantine path
  auto result = run_dispatch(options);
  ASSERT_TRUE(result.has_value()) << result.error().to_string();
  EXPECT_FALSE(result->complete());
  EXPECT_EQ(result->stats.quarantined, 2U);
  for (const TaskOutcome& outcome : result->outcomes) {
    EXPECT_EQ(outcome.status, "quarantined");
    EXPECT_GE(outcome.attempts, 2U);
    EXPECT_FALSE(outcome.error.empty());
  }
}

TEST_F(DispatchTest, KilledManagerResumesFromPartialsByteIdentically) {
  TestWorker w1{WorkerOptions{}};

  // First run "crashes" (abort seam) after one written partial.
  auto options = base_options({&w1}, 3);
  options.abort_after_partials = 1;
  auto first = run_dispatch(options);
  ASSERT_TRUE(first.has_value()) << first.error().to_string();
  EXPECT_TRUE(first->aborted);
  EXPECT_FALSE(first->complete());
  ASSERT_EQ(first->stats.tasks_done, 1U);

  // The resumed run keeps the partial already in --partials and only
  // schedules the remainder — and the merge is still byte-identical to the
  // uninterrupted run.
  options.abort_after_partials = 0;
  options.resume = true;
  auto second = run_dispatch(options);
  ASSERT_TRUE(second.has_value()) << second.error().to_string();
  ASSERT_TRUE(second->complete());
  EXPECT_EQ(second->stats.resumed_tasks, 1U);
  EXPECT_EQ(second->stats.tasks_done, 2U);
  for (const TaskOutcome& outcome : second->outcomes) {
    // Only the shard the first run finished is kept, without an attempt.
    const bool kept = outcome.partial_path == first->partial_paths[0];
    EXPECT_EQ(outcome.attempts == 0, kept) << "shard " << outcome.shard;
  }
  EXPECT_EQ(merged_json(*second), single_shot_json());
}

TEST_F(DispatchTest, ResumeRerunsATornPartial) {
  // Shard 0's artifact is whole; shard 1's slot holds the first half of a
  // valid artifact, as a non-atomic writer killed mid-write would leave
  // it. The resume keeps shard 0 (worker "-", no attempts) and runs shard
  // 1 again (in-process here — there are no workers).
  write_shard_partial(0, 2, partial_slot(0));
  const std::string whole = partial_text(1, 2);
  write_text(partial_slot(1), whole.substr(0, whole.size() / 2));

  const DispatchResult result = resume_without_workers(2);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.stats.resumed_tasks, 1U);
  EXPECT_EQ(result.stats.degraded_tasks, 1U);
  EXPECT_EQ(result.outcomes[0].worker, "");
  EXPECT_EQ(result.outcomes[0].attempts, 0U);
  EXPECT_EQ(result.outcomes[1].worker, "local");
  EXPECT_EQ(merged_json(result), single_shot_json());
}

TEST_F(DispatchTest, ResumeRerunsAFileThatIsNotAPartial) {
  // Well-formed JSON in a shard's slot is not enough: the single-shot
  // summary fails the partial schema, so shard 0 runs again.
  write_text(partial_slot(0), single_shot_json());
  write_shard_partial(1, 2, partial_slot(1));

  const DispatchResult result = resume_without_workers(2);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.stats.resumed_tasks, 1U);
  EXPECT_EQ(result.stats.degraded_tasks, 1U);
  EXPECT_EQ(result.outcomes[0].worker, "local");
  EXPECT_EQ(merged_json(result), single_shot_json());
}

TEST_F(DispatchTest, ResumeRerunsAnotherPartitionsArtifact) {
  // Slot 0 holds shard 0 of a 2-way partition and slot 1 holds shard 2 of
  // this 3-way one: neither parses as its slot's shard K of 3, so both
  // run again; slot 2's own artifact is kept.
  write_shard_partial(0, 2, partial_slot(0));
  write_shard_partial(2, 3, partial_slot(1));
  write_shard_partial(2, 3, partial_slot(2));

  const DispatchResult result = resume_without_workers(3);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.stats.resumed_tasks, 1U);
  EXPECT_EQ(result.stats.degraded_tasks, 2U);
  EXPECT_EQ(result.outcomes[2].attempts, 0U);
  EXPECT_EQ(merged_json(result), single_shot_json());
}

TEST_F(DispatchTest, ResumeOverEmptyPartialsIsAFreshRun) {
  const DispatchResult result = resume_without_workers(2);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.stats.resumed_tasks, 0U);
  EXPECT_EQ(result.stats.degraded_tasks, 2U);
  EXPECT_EQ(merged_json(result), single_shot_json());
}

TEST_F(DispatchTest, ResumeRerunsTheShardOfATraceAddedToTheCorpus) {
  // A finished run, then a trace lands in the corpus: every old partial
  // still parses as its shard, but the new file's shard now hands its fold
  // one more path, so only that shard runs again.
  const DispatchResult first = resume_without_workers(3);
  ASSERT_TRUE(first.complete());
  const std::string added = path("job_4242.mbt");
  ASSERT_TRUE(fs::copy_file(corpus_.front(), added));
  corpus_.push_back(added);

  const DispatchResult second = resume_without_workers(3);
  ASSERT_TRUE(second.complete());
  EXPECT_EQ(second.stats.resumed_tasks, 2U);
  EXPECT_EQ(second.stats.degraded_tasks, 1U);
  for (const TaskOutcome& outcome : second.outcomes) {
    EXPECT_EQ(outcome.worker.empty(),
              outcome.shard != ingest::shard_of(added, 3))
        << outcome.shard;
  }
  EXPECT_EQ(merged_json(second), single_shot_json());
}

TEST_F(DispatchTest, NoWorkersReachableStillCompletesDegraded) {
  // Nothing listens on this port (connect_to a just-closed ephemeral bind).
  Listener probe;
  ASSERT_TRUE(probe.listen_on(Address{"127.0.0.1", 0}).ok());
  const std::uint16_t dead_port = probe.port();
  probe.close();

  DispatchOptions options;
  options.workers = {Address{"127.0.0.1", dead_port}};
  options.shard_count = 2;
  options.paths = corpus_;
  options.out_dir = path("parts");
  options.degraded_threads = 2;
  options.connect_timeout_seconds = 0.25;
  options.reconnect_attempts = 0;
  options.retry_initial_delay_ms = 5.0;
  auto result = run_dispatch(options);
  ASSERT_TRUE(result.has_value()) << result.error().to_string();
  ASSERT_TRUE(result->complete());
  EXPECT_EQ(result->stats.workers_lost, 1U);
  EXPECT_EQ(result->stats.degraded_tasks, 2U);
  EXPECT_EQ(merged_json(*result), single_shot_json());
}

}  // namespace
}  // namespace mosaic::dist

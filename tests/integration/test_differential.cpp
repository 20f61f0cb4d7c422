// Differential test of the batch drivers. Over seeded random populations
// (size, corruption rate, .mbt/darshan-text mix, transient read faults and
// slow reads), every way Mosaic turns a directory of traces into a batch
// summary must produce the same bytes — batch_to_json with per-trace
// entries, and the provenance journal at sample 1 and at sample 4:
//   - single-shot ingest and analysis at 1 and 8 threads;
//   - the reduce of a --shards N run (report::run_shards), N in {1, 2, 3, 16};
//   - dispatch with no worker, so every shard runs degraded in-process;
//   - a --shards 4 run killed (one partial deleted, one torn) and resumed.
// The daemon, fed every file through the same faulty reader, must agree
// per trace: each retained trace's reply names batch's categories, its
// GET /explain/<job id> is batch's provenance record at sample 1 printed
// pretty, and its rejections by code are batch's evictions.
// A failure names the population's seed and parameters.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "../dist/daemon_probe.hpp"
#include "core/pipeline.hpp"
#include "darshan/binary_format.hpp"
#include "darshan/text_format.hpp"
#include "dist/daemon.hpp"
#include "dist/dispatch.hpp"
#include "ingest/ingest.hpp"
#include "ingest/shard.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "parallel/thread_pool.hpp"
#include "report/json_output.hpp"
#include "report/partial.hpp"
#include "sim/population.hpp"
#include "util/rng.hpp"

namespace mosaic {
namespace {

namespace fs = std::filesystem;

/// One seeded population and the faults its reads see.
struct Population {
  std::uint64_t seed = 0;
  std::size_t traces = 0;
  double corruption = 0.0;  ///< corrupted share of executions
  double text_share = 0.0;  ///< share written as darshan text, not .mbt
  double eio = 0.0;         ///< share of files whose first read fails
  double delay = 0.0;       ///< share of files read slowly

  [[nodiscard]] std::string describe() const {
    return "seed " + std::to_string(seed) + ": " + std::to_string(traces) +
           " traces, corruption " + std::to_string(corruption) + ", text " +
           std::to_string(text_share) + ", eio " + std::to_string(eio) +
           ", delay " + std::to_string(delay);
  }
};

/// Draws everything but the size from `seed`.
Population draw(std::uint64_t seed, std::size_t traces) {
  util::Rng rng(seed);
  Population out;
  out.seed = seed;
  out.traces = traces;
  out.corruption = rng.uniform(0.0, 0.5);
  out.text_share = rng.uniform(0.0, 1.0);
  out.eio = rng.uniform(0.0, 0.2);
  out.delay = rng.uniform(0.0, 0.03);
  return out;
}

/// A driver's output: the summary JSON and the provenance JSONL.
struct Output {
  std::string json;
  std::string provenance;
};

class Differential : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "mosaic_differential_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    obs::ProvenanceJournal::global().disable();
    obs::ProvenanceJournal::global().reset();
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Writes the population under pop-<seed>/ and returns its files.
  std::vector<std::string> write(const Population& population) {
    sim::PopulationConfig config;
    config.target_traces = population.traces;
    config.corruption_fraction = population.corruption;
    config.seed = population.seed;
    parallel::ThreadPool pool(4);
    const sim::Population generated = sim::generate_population(config, &pool);
    const fs::path pop = dir_ / ("pop-" + std::to_string(population.seed));
    fs::create_directories(pop);
    util::Rng format(population.seed ^ 0x5eedULL);
    std::vector<std::string> paths;
    for (const sim::LabeledTrace& labeled : generated.traces) {
      const trace::Trace& t = labeled.trace;
      const std::string stem =
          (pop / ("job_" + std::to_string(t.meta.job_id))).string();
      const bool text = format.uniform(0.0, 1.0) < population.text_share;
      paths.push_back(stem + (text ? ".darshan.txt" : ".mbt"));
      const util::Status status =
          text ? darshan::write_text_file(t, paths.back())
               : darshan::write_mbt_file(t, paths.back());
      EXPECT_TRUE(status.ok()) << status.error().to_string();
    }
    return paths;
  }

  /// Runs `driver` with the provenance journal at 1 in `sample` and
  /// serializes its batch and the journal.
  static Output capture(std::uint64_t sample,
                        const std::function<core::BatchResult()>& driver) {
    obs::ProvenanceJournal& journal = obs::ProvenanceJournal::global();
    journal.reset();
    journal.enable(sample);
    Output out;
    out.json = json::serialize(
        report::batch_to_json(driver(), /*include_traces=*/true));
    journal.disable();
    EXPECT_EQ(journal.dropped(), 0u);
    for (const obs::TraceProvenance& record : journal.collect()) {
      out.provenance += json::serialize(obs::provenance_to_json(record),
                                        /*pretty=*/false);
      out.provenance += '\n';
    }
    journal.reset();
    return out;
  }

  static core::BatchResult single_shot(const std::vector<std::string>& paths,
                                       const ingest::IngestOptions& options,
                                       std::size_t threads) {
    parallel::ThreadPool pool(threads);
    auto ingested = ingest::ingest_paths(paths, options, pool);
    EXPECT_TRUE(ingested.has_value());
    if (!ingested.has_value()) return {};
    return core::analyze_preprocessed(std::move(ingested->pre), {}, &pool);
  }

  static core::BatchResult reduce(const std::vector<std::string>& artifacts,
                                  const ingest::IngestOptions& options) {
    parallel::ThreadPool pool(2);
    auto merged = report::reduce_partials(artifacts, options, {}, pool);
    EXPECT_TRUE(merged.has_value()) << merged.error().to_string();
    return merged.has_value() ? std::move(merged->batch)
                              : core::BatchResult{};
  }

  core::BatchResult sharded(const std::vector<std::string>& paths,
                            const ingest::IngestOptions& options,
                            std::size_t count, const std::string& name) {
    parallel::ThreadPool pool(2);
    auto artifacts =
        report::run_shards(paths, options, count, path(name), false, pool);
    EXPECT_TRUE(artifacts.has_value()) << artifacts.error().to_string();
    return artifacts.has_value() ? reduce(*artifacts, options)
                                 : core::BatchResult{};
  }

  core::BatchResult degraded_dispatch(const std::vector<std::string>& paths,
                                      const ingest::IngestOptions& options,
                                      const std::string& name) {
    dist::DispatchOptions dispatch;
    dispatch.shard_count = 3;
    dispatch.paths = paths;
    dispatch.out_dir = path(name);
    dispatch.degraded_threads = 2;
    auto result = dist::run_dispatch(dispatch);
    EXPECT_TRUE(result.has_value()) << result.error().to_string();
    if (!result.has_value()) return {};
    EXPECT_TRUE(result->complete());
    EXPECT_EQ(result->stats.degraded_tasks, 3u);
    return reduce(result->partial_paths, options);
  }

  /// A --shards 4 run killed and resumed: the first run finishes, shard
  /// 1's partial is deleted and shard 2's torn (a kill leaves whole
  /// partials or none, so this is any kill's state), and the resume keeps
  /// shards 0 and 3.
  core::BatchResult killed_then_resumed(const std::vector<std::string>& paths,
                                        const ingest::IngestOptions& options,
                                        const std::string& name) {
    parallel::ThreadPool pool(4);
    const std::string dir = path(name);
    EXPECT_TRUE(
        report::run_shards(paths, options, 4, dir, false, pool).has_value());
    fs::remove(dir + "/" + ingest::partial_filename(1));
    const std::string torn = dir + "/" + ingest::partial_filename(2);
    fs::resize_file(torn, fs::file_size(torn) / 2);
    std::size_t kept = 0;
    auto artifacts = report::run_shards(
        paths, options, 4, dir, true, pool,
        [&](const report::ShardRun& run) { kept += run.kept ? 1 : 0; });
    EXPECT_TRUE(artifacts.has_value()) << artifacts.error().to_string();
    EXPECT_EQ(kept, 2u);
    return artifacts.has_value() ? reduce(*artifacts, options)
                                 : core::BatchResult{};
  }

  /// Submits every file to an in-process daemon reading through
  /// options.reader and checks it per trace against single-shot batch.
  static void check_daemon(const std::vector<std::string>& paths,
                           const ingest::IngestOptions& options) {
    obs::ProvenanceJournal& journal = obs::ProvenanceJournal::global();
    journal.reset();
    journal.enable(1);
    const core::BatchResult batch = single_shot(paths, options, 1);
    journal.disable();
    const std::vector<obs::TraceProvenance> records = journal.collect();
    journal.reset();
    ASSERT_FALSE(records.empty());
    ASSERT_EQ(records.size(), batch.results.size());

    obs::Registry::global().reset();
    dist::DaemonOptions daemon_options;
    daemon_options.ingest = options;
    dist::Daemon daemon(std::move(daemon_options));
    ASSERT_TRUE(daemon.start().ok());
    std::map<std::string, std::vector<std::string>> replied;  // by job id
    for (const std::string& path : paths) {
      const auto reply = daemon.submit_path(path);
      ASSERT_TRUE(reply.has_value());
      if (reply->ok) replied[reply->trace_id] = reply->categories;
    }
    for (const core::TraceResult& result : batch.results) {
      const auto it = replied.find(std::to_string(result.job_id));
      ASSERT_NE(it, replied.end()) << "job " << result.job_id;
      EXPECT_EQ(it->second, result.categories.names())
          << "job " << result.job_id;
    }
    for (const obs::TraceProvenance& record : records) {
      EXPECT_EQ(daemon_probe::ok_body(daemon_probe::http_get(
                    daemon.http_port(),
                    "/explain/" + std::to_string(record.job_id))),
                json::serialize(obs::provenance_to_json(record),
                                /*pretty=*/true) +
                    "\n")
          << "job " << record.job_id;
    }
    EXPECT_EQ(daemon_probe::daemon_rejections(),
              batch.preprocess.eviction_breakdown);
  }

  fs::path dir_;
};

TEST_F(Differential, EveryBatchDriverPrintsTheSameBytes) {
  const std::pair<std::uint64_t, std::size_t> populations[] = {
      {20261, 200}, {20262, 900}, {20263, 1700}, {20264, 3000}};
  for (const auto& [seed, traces] : populations) {
    const Population population = draw(seed, traces);
    SCOPED_TRACE(population.describe());
    const std::vector<std::string> paths = write(population);

    ingest::FaultSpec faults;
    faults.seed = seed;
    faults.transient_eio_probability = population.eio;
    faults.transient_eio_failures = 1;
    faults.delay_probability = population.delay;
    faults.delay_ms = 1.0;
    ingest::FaultyFileReader reader(faults);
    ingest::IngestOptions options;
    options.reader = &reader;
    options.backoff_initial_ms = 0.01;

    for (const std::uint64_t sample : {1u, 4u}) {
      SCOPED_TRACE("provenance sample " + std::to_string(sample));
      const std::string tag =
          std::to_string(seed) + "-" + std::to_string(sample);
      const Output reference = capture(
          sample, [&] { return single_shot(paths, options, 1); });
      ASSERT_NE(reference.json.find("\"traces\""), std::string::npos);
      ASSERT_FALSE(reference.provenance.empty());

      std::vector<std::pair<std::string, Output>> drivers;
      drivers.emplace_back("single-shot, 8 threads", capture(sample, [&] {
                             return single_shot(paths, options, 8);
                           }));
      for (const std::size_t count : {1u, 2u, 3u, 16u}) {
        drivers.emplace_back(
            "reduce of " + std::to_string(count) + " shard(s)",
            capture(sample, [&] {
              return sharded(paths, options, count,
                             "parts-" + tag + "-" + std::to_string(count));
            }));
      }
      drivers.emplace_back("degraded dispatch", capture(sample, [&] {
                             return degraded_dispatch(paths, options,
                                                      "dispatch-" + tag);
                           }));
      drivers.emplace_back("killed then resumed", capture(sample, [&] {
                             return killed_then_resumed(
                                 paths, options, "resumed-" + tag);
                           }));
      for (const auto& [driver, output] : drivers) {
        EXPECT_EQ(output.json, reference.json) << driver;
        EXPECT_EQ(output.provenance, reference.provenance) << driver;
      }
    }
    SCOPED_TRACE("daemon");
    check_daemon(paths, options);
  }
}

}  // namespace
}  // namespace mosaic

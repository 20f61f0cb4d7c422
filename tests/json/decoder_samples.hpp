// Valid documents for every decoder of outside JSON, shared by the range
// table (test_decoder_range.cpp) and the mutation harness (test_fuzz.cpp).
// Each sample sets every integer member to a non-default value and fills
// every array and map, so each member a test mutates is present.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "dist/protocol.hpp"
#include "obs/federation.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/span.hpp"
#include "report/partial.hpp"
#include "util/fs.hpp"

namespace mosaic::samples {

inline report::PartialArtifact partial() {
  report::PartialArtifact partial;
  partial.shard_index = 1;
  partial.shard_count = 4;
  partial.ingest.files_scanned = 9;
  partial.ingest.loaded = 8;
  partial.ingest.failed = 1;
  partial.ingest.retry_attempts = 2;
  partial.ingest.recovered = 1;
  partial.ingest.quarantined = 1;
  partial.inputs = {9, 18446744073709551557ull};
  partial.fold.stats.input_traces = 9;
  partial.fold.stats.load_failed = 1;
  partial.fold.stats.corrupted = 1;
  partial.fold.stats.valid = 7;
  partial.fold.stats.corruption_breakdown = {{"truncated", 1}};
  partial.fold.stats.eviction_breakdown = {{"io-error", 1},
                                           {"corrupt-trace", 1}};
  partial.fold.apps = {{"u1/app", {7, "/corpus/a.mbt", 1u << 30, 9000002}}};
  return partial;
}

inline dist::TaskRequest task_request() {
  dist::TaskRequest task;
  task.shard = {2, 8};
  task.attempt = 3;
  task.paths = {"/corpus/a.mbt", "/corpus/b.txt"};
  task.max_retries = 5;
  task.file_deadline_seconds = 12.5;
  return task;
}

inline obs::Snapshot snapshot() {
  obs::Snapshot snapshot;
  snapshot.counters.push_back({"c_total", "", 42});
  snapshot.gauges.push_back({"depth", "", -3});
  obs::HistogramSample histogram;
  histogram.name = "lat_ms";
  histogram.bounds = {1.0, 10.0};
  histogram.buckets = {2, 3, 1};
  histogram.count = 6;
  histogram.sum = 44.5;
  snapshot.histograms.push_back(histogram);
  return snapshot;
}

/// A telemetry-carrying kHeartbeat payload: metrics snapshot, health
/// verdict and a span ring.
inline json::Value telemetry_frame() {
  const std::vector<obs::SpanEvent> spans = {{"parse", 100, 250, 1},
                                             {"merge", 300, 900, 2}};
  json::Object rider;
  rider.set("snapshot", obs::metrics_to_json(snapshot()));
  rider.set("health", "ok");
  rider.set("spans", obs::spans_to_wire_json(spans));
  json::Object frame;
  frame.set("telemetry", std::move(rider));
  return frame;
}

inline obs::TraceProvenance provenance() {
  obs::TraceProvenance record;
  record.app_key = "u1/app";
  record.job_id = 9000002;
  record.nprocs = 64;
  record.read.merge.raw_ops = 12;
  record.read.segments = 4;
  record.read.periodicity.mean_shift.ran = true;
  record.read.periodicity.mean_shift.candidates.push_back(
      {5, 60.0, 0.1, 0.2, 1.0, 2.0, true, ""});
  record.read.periodicity.frequency.peaks.push_back({60.0, 0.9, 5, true});
  record.read.periodicity.groups.push_back({60.0, 4096.0, 0.25, 5, "minute"});
  record.read.temporality.chunk_bytes = {1.0, 2.0};
  record.read.temporality.dominant_chunk = 1;
  record.metadata.total_requests = 100;
  record.rules = {"read-steady"};
  record.categories = {"read_steady"};
  return record;
}

inline std::vector<obs::HealthRule> health_rules() {
  return {{"ratio", "bad_total", "all_total", 0.2, 0.5},
          {"quarantine", "q_total", "", 1.0, -1.0}};
}

/// A one-line JSONL file holding `line`, for readers that take a path. Named
/// after the running test: ctest runs test cases as parallel processes.
inline std::string line_file(std::string_view line) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mosaic_" + std::string(test->test_suite_name()) + "_" +
        test->name() + ".jsonl"))
          .string();
  EXPECT_TRUE(util::write_file_atomic(path, std::string(line) + "\n").ok());
  return path;
}

}  // namespace mosaic::samples

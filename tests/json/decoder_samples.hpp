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

#include "core/categories.hpp"
#include "core/pipeline.hpp"
#include "dist/journal.hpp"
#include "dist/protocol.hpp"
#include "ingest/journal.hpp"
#include "obs/federation.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/span.hpp"
#include "report/partial.hpp"
#include "util/fs.hpp"

namespace mosaic::samples {

inline core::TraceResult trace_result() {
  core::TraceResult result;
  result.app_key = "u1/app";
  result.job_id = 9000002;
  result.runtime = 3600.5;
  result.nprocs = 64;
  result.bytes_read = 1u << 30;
  result.bytes_written = 1u << 20;
  result.read.temporality.label = core::Temporality::kSteady;
  result.read.temporality.chunk_bytes = {1.0, 2.0, 3.0, 4.0};
  result.read.temporality.total_bytes = 10.0;
  result.read.raw_ops = 12;
  result.read.merged_ops = 7;
  result.read.periodicity.periodic = true;
  result.read.periodicity.groups.push_back(
      {60.0, 4096.0, 0.25, 5, core::PeriodMagnitude::kMinute});
  result.metadata.total_requests = 100;
  result.metadata.spike_seconds = 2;
  result.categories.insert(core::Category::kReadSteady);
  return result;
}

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
  partial.ingest.journal_replayed = 3;
  partial.ingest.journal_dropped = 1;
  partial.stats.input_traces = 9;
  partial.stats.load_failed = 1;
  partial.stats.corrupted = 1;
  partial.stats.valid = 7;
  partial.stats.unique_applications = 1;
  partial.stats.retained = 1;
  partial.stats.corruption_breakdown = {{"truncated", 1}};
  partial.stats.eviction_breakdown = {{"io-error", 1}, {"corrupt-trace", 1}};
  partial.runs_per_app = {{"u1/app", 7}};
  partial.traces.push_back({trace_result(), "/corpus/a.mbt", 1u << 30});
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

inline dist::DispatchJournalEntry dispatch_entry() {
  return {1, 4, "done", "127.0.0.1:9100", 2, "parts/results.shard-1.json",
          ""};
}

inline ingest::JournalEntry ingest_entry() {
  ingest::JournalEntry entry;
  entry.digest = {"/corpus/a.mbt", "u1/app", 1u << 30, 9000002};
  entry.valid = true;
  return entry;
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

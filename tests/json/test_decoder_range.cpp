// Integer range checks across every strict decoder of outside JSON: each
// sample document decodes, and setting any one integer member to a
// negative, fractional, overflowing or 2^64 value is rejected — never cast
// into a wrapped or truncated integer. Journals drop and count such a line.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "decoder_samples.hpp"
#include "dist/telemetry.hpp"
#include "json/json.hpp"
#include "json/reader.hpp"
#include "report/json_output.hpp"

namespace mosaic {
namespace {

namespace fs = std::filesystem;

/// One integer member, as a '.'-separated path (array indices are numbers).
struct Member {
  std::string path;
  bool is_signed = false;     ///< -1 is a legal value
  bool as_string = false;     ///< stored as a decimal string (ingest journal)
};

struct Case {
  std::string decoder;
  json::Value document;
  std::function<bool(const json::Value&)> accepts;
  std::vector<Member> members;
};

json::Value& member_at(json::Value& root, const std::string& path) {
  json::Value* value = &root;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const std::size_t end = std::min(path.find('.', begin), path.size());
    const std::string key = path.substr(begin, end - begin);
    value = value->is_array() ? &value->as_array()[std::stoul(key)]
                              : value->as_object().find(key);
    EXPECT_NE(value, nullptr) << path;
    begin = end + 1;
  }
  return *value;
}

/// Loads `line` as a one-line journal; accepted iff the line was kept, and
/// a rejected line must be counted as dropped.
template <typename Load>
bool journal_accepts(const json::Value& line, Load load) {
  const std::string path =
      samples::line_file(json::serialize(line, /*pretty=*/false));
  std::size_t dropped = 0;
  const auto loaded = load(path, &dropped);
  fs::remove(path);
  const bool kept = loaded.has_value() && loaded->size() == 1;
  EXPECT_EQ(dropped, kept ? 0u : 1u);
  return kept;
}

std::vector<Case> cases() {
  const auto payload = [](const json::Value& value) {
    return json::serialize(value, /*pretty=*/false);
  };
  std::vector<Case> out;
  out.push_back(
      {"trace result", report::trace_result_to_json(samples::trace_result()),
       [](const json::Value& v) {
         return report::trace_result_from_json(v).has_value();
       },
       {{"job_id"}, {"nprocs"}, {"bytes_read"}, {"bytes_written"},
        {"read.raw_ops"}, {"read.merged_ops"},
        {"read.periodicity.groups.0.occurrences"},
        {"metadata.total_requests"}, {"metadata.spike_seconds"}}});
  out.push_back(
      {"partial", report::partial_to_json(samples::partial()),
       [](const json::Value& v) {
         return report::partial_from_json(v).has_value();
       },
       {{"shard.index"}, {"shard.count"}, {"ingest.files_scanned"},
        {"ingest.loaded"}, {"ingest.failed"}, {"ingest.retry_attempts"},
        {"ingest.recovered"}, {"ingest.quarantined"},
        {"ingest.journal_replayed"}, {"ingest.journal_dropped"},
        {"preprocessing.input_traces"}, {"preprocessing.load_failed"},
        {"preprocessing.corrupted"}, {"preprocessing.valid"},
        {"preprocessing.unique_applications"}, {"preprocessing.retained"},
        {"preprocessing.corruption_breakdown.truncated"},
        {"preprocessing.eviction_breakdown.io-error"},
        {"runs_per_app.u1/app"}, {"traces.0.job_id"},
        {"traces.0.dedup.total_bytes"}}});
  out.push_back(
      {"task request",
       *json::parse(dist::task_request_to_payload(samples::task_request())),
       [payload](const json::Value& v) {
         return dist::task_request_from_payload(payload(v)).has_value();
       },
       {{"shard.index"}, {"shard.count"}, {"attempt"},
        {"max_retries", /*is_signed=*/true},
        {"thresholds.min_bytes"}, {"thresholds.temporality_chunks"}}});
  out.push_back({"hello", *json::parse(dist::hello_payload()),
                 [payload](const json::Value& v) {
                   return dist::hello_now_ns(payload(v)).has_value();
                 },
                 {{"now_ns"}}});
  out.push_back(
      {"telemetry rider", samples::telemetry_frame(),
       [](const json::Value& v) {
         const auto telemetry = dist::telemetry_from_payload(v);
         return telemetry.has_value() && telemetry->has_value();
       },
       {{"telemetry.snapshot.counters.c_total"},
        {"telemetry.snapshot.gauges.depth", /*is_signed=*/true},
        {"telemetry.snapshot.histograms.lat_ms.buckets.1.count"},
        {"telemetry.spans.0.s"}, {"telemetry.spans.0.e"},
        {"telemetry.spans.1.t"}}});
  out.push_back({"metrics json", obs::metrics_to_json(samples::snapshot()),
                 [](const json::Value& v) {
                   const json::Reader reader(v, "metrics json");
                   (void)obs::snapshot_from_metrics_json(reader);
                   return reader.ok();
                 },
                 {{"counters.c_total"}, {"gauges.depth", /*is_signed=*/true},
                  {"histograms.lat_ms.buckets.0.count"}}});
  out.push_back({"thresholds", core::thresholds_to_json({}),
                 [](const json::Value& v) {
                   return core::thresholds_from_json(v).has_value();
                 },
                 {{"min_bytes"}, {"temporality_chunks"}, {"min_group_size"},
                  {"multiple_spike_count"}, {"frequency_max_bins"}}});
  out.push_back(
      {"dispatch journal",
       *json::parse(dist::dispatch_journal_line(samples::dispatch_entry())),
       [](const json::Value& v) {
         return journal_accepts(v, [](const std::string& path,
                                      std::size_t* dropped) {
           return dist::load_dispatch_journal(path, dropped);
         });
       },
       {{"shard"}, {"count"}, {"attempts"}}});
  out.push_back(
      {"ingest journal",
       *json::parse(ingest::journal_line(samples::ingest_entry())),
       [](const json::Value& v) {
         return journal_accepts(v, [](const std::string& path,
                                      std::size_t* dropped) {
           return ingest::load_journal(path, dropped);
         });
       },
       {{"bytes", false, /*as_string=*/true},
        {"job", false, /*as_string=*/true}}});
  return out;
}

TEST(DecoderRange, EverySampleDocumentDecodes) {
  for (const Case& c : cases()) {
    EXPECT_TRUE(c.accepts(c.document)) << c.decoder;
  }
}

TEST(DecoderRange, OutOfRangeIntegerMembersAreRejected) {
  const std::vector<std::pair<double, const char*>> bad = {
      {-1.0, "-1"},
      {0.5, "0.5"},
      {1e300, "1e300"},
      {18446744073709551616.0, "18446744073709551616"}};
  for (const Case& c : cases()) {
    for (const Member& member : c.members) {
      for (const auto& [number, text] : bad) {
        if (member.is_signed && number < 0.0) continue;
        json::Value document = c.document;
        member_at(document, member.path) =
            member.as_string ? json::Value(text) : json::Value(number);
        EXPECT_FALSE(c.accepts(document))
            << c.decoder << ": " << member.path << " = " << text;
      }
    }
  }
}

}  // namespace
}  // namespace mosaic

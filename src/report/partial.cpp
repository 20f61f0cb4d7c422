#include "report/partial.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ingest/shard.hpp"
#include "report/json_output.hpp"
#include "util/fs.hpp"

namespace mosaic::report {

using json::Array;
using json::Object;
using json::Value;
using util::Error;
using util::ErrorCode;
using util::Expected;
using util::Status;

namespace {

Error schema_error(std::string what) {
  return Error{ErrorCode::kParseError, "partial artifact: " + std::move(what)};
}

Expected<double> get_number(const Object& obj, std::string_view key) {
  const Value* value = obj.find(key);
  if (value == nullptr || !value->is_number()) {
    return schema_error("missing number '" + std::string(key) + "'");
  }
  return value->as_number();
}

Expected<std::string> get_string(const Object& obj, std::string_view key) {
  const Value* value = obj.find(key);
  if (value == nullptr || !value->is_string()) {
    return schema_error("missing string '" + std::string(key) + "'");
  }
  return value->as_string();
}

Expected<const Object*> get_object(const Object& obj, std::string_view key) {
  const Value* value = obj.find(key);
  if (value == nullptr || !value->is_object()) {
    return schema_error("missing object '" + std::string(key) + "'");
  }
  return &value->as_object();
}

Value counts_to_json(const std::map<std::string, std::size_t>& counts) {
  Object out;
  for (const auto& [key, count] : counts) out.set(key, count);
  return out;
}

Expected<std::map<std::string, std::size_t>> counts_from_json(
    const Object& obj, std::string_view key) {
  auto member = get_object(obj, key);
  if (!member) return std::move(member).error();
  std::map<std::string, std::size_t> counts;
  for (const auto& [name, value] : (*member)->entries()) {
    if (!value.is_number()) {
      return schema_error("non-numeric count under '" + std::string(key) +
                          "'");
    }
    counts[name] = static_cast<std::size_t>(value.as_number());
  }
  return counts;
}

core::DedupKey dedup_key(const ShardTraceResult& entry) noexcept {
  return {entry.total_bytes, entry.result.job_id, entry.source_path};
}

}  // namespace

Expected<PartialArtifact> run_shard(const std::vector<std::string>& paths,
                                    const ingest::IngestOptions& options,
                                    const core::Thresholds& thresholds,
                                    parallel::ThreadPool& pool) {
  auto ingested = ingest::ingest_paths(paths, options, pool);
  if (!ingested.has_value()) return std::move(ingested).error();
  PartialArtifact out;
  out.shard_index = options.shard.index;
  out.shard_count = options.shard.count;
  out.ingest = ingested->stats;
  out.journal_path = options.journal_path;
  if (out.ingest.aborted) return out;

  // Snapshot the dedup digests before analysis consumes the traces: the
  // merge needs (total bytes, source path) to replay cross-shard dedup.
  std::vector<std::uint64_t> retained_bytes;
  retained_bytes.reserve(ingested->pre.retained.size());
  for (const trace::Trace& t : ingested->pre.retained) {
    retained_bytes.push_back(t.total_bytes());
  }
  std::vector<std::string> retained_paths =
      std::move(ingested->pre.retained_paths);
  core::BatchResult batch =
      core::analyze_preprocessed(std::move(ingested->pre), thresholds, &pool);
  MOSAIC_ASSERT(batch.results.size() == retained_paths.size());

  out.stats = batch.preprocess;
  out.runs_per_app = std::move(batch.runs_per_app);
  out.traces.reserve(batch.results.size());
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    out.traces.push_back({std::move(batch.results[i]),
                          std::move(retained_paths[i]), retained_bytes[i]});
  }
  return out;
}

Value partial_to_json(const PartialArtifact& partial) {
  Object out;
  out.set("schema", kPartialSchema);

  Object shard;
  shard.set("index", partial.shard_index);
  shard.set("count", partial.shard_count);
  out.set("shard", std::move(shard));

  Object ingest;
  ingest.set("files_scanned", partial.ingest.files_scanned);
  ingest.set("loaded", partial.ingest.loaded);
  ingest.set("failed", partial.ingest.failed);
  ingest.set("retry_attempts", partial.ingest.retry_attempts);
  ingest.set("recovered", partial.ingest.recovered);
  ingest.set("quarantined", partial.ingest.quarantined);
  ingest.set("journal_replayed", partial.ingest.journal_replayed);
  ingest.set("journal_dropped", partial.ingest.journal_dropped);
  out.set("ingest", std::move(ingest));

  Object funnel;
  funnel.set("input_traces", partial.stats.input_traces);
  funnel.set("load_failed", partial.stats.load_failed);
  funnel.set("corrupted", partial.stats.corrupted);
  funnel.set("valid", partial.stats.valid);
  funnel.set("unique_applications", partial.stats.unique_applications);
  funnel.set("retained", partial.stats.retained);
  funnel.set("corruption_breakdown",
             counts_to_json(partial.stats.corruption_breakdown));
  funnel.set("eviction_breakdown",
             counts_to_json(partial.stats.eviction_breakdown));
  out.set("preprocessing", std::move(funnel));

  out.set("runs_per_app", counts_to_json(partial.runs_per_app));

  Object artifacts;
  artifacts.set("journal", partial.journal_path);
  artifacts.set("metrics", partial.metrics_path);
  artifacts.set("provenance", partial.provenance_path);
  out.set("artifacts", std::move(artifacts));

  Array traces;
  traces.reserve(partial.traces.size());
  for (const ShardTraceResult& entry : partial.traces) {
    Value value = trace_result_to_json(entry.result);
    Object dedup;
    dedup.set("path", entry.source_path);
    dedup.set("total_bytes", entry.total_bytes);
    value.as_object().set("dedup", std::move(dedup));
    traces.push_back(std::move(value));
  }
  out.set("traces", std::move(traces));
  return out;
}

Expected<PartialArtifact> partial_from_json(const Value& value) {
  if (!value.is_object()) return schema_error("not an object");
  const Object& obj = value.as_object();
  auto schema = get_string(obj, "schema");
  if (!schema) return std::move(schema).error();
  if (*schema != kPartialSchema) {
    return schema_error("unsupported schema '" + *schema + "' (expected " +
                        std::string(kPartialSchema) + ")");
  }

  PartialArtifact partial;
  auto shard = get_object(obj, "shard");
  if (!shard) return std::move(shard).error();
  auto index = get_number(**shard, "index");
  if (!index) return std::move(index).error();
  auto count = get_number(**shard, "count");
  if (!count) return std::move(count).error();
  partial.shard_index = static_cast<std::size_t>(*index);
  partial.shard_count = static_cast<std::size_t>(*count);
  if (partial.shard_count == 0 || partial.shard_index >= partial.shard_count) {
    return schema_error("shard index out of range");
  }

  auto ingest = get_object(obj, "ingest");
  if (!ingest) return std::move(ingest).error();
  const auto ingest_count = [&](std::string_view key,
                                std::size_t& out) -> Status {
    auto number = get_number(**ingest, key);
    if (!number) return std::move(number).error();
    out = static_cast<std::size_t>(*number);
    return Status::success();
  };
  if (const auto s = ingest_count("files_scanned",
                                  partial.ingest.files_scanned);
      !s.ok()) {
    return s.error();
  }
  if (const auto s = ingest_count("loaded", partial.ingest.loaded); !s.ok()) {
    return s.error();
  }
  if (const auto s = ingest_count("failed", partial.ingest.failed); !s.ok()) {
    return s.error();
  }
  if (const auto s = ingest_count("retry_attempts",
                                  partial.ingest.retry_attempts);
      !s.ok()) {
    return s.error();
  }
  if (const auto s = ingest_count("recovered", partial.ingest.recovered);
      !s.ok()) {
    return s.error();
  }
  if (const auto s = ingest_count("quarantined", partial.ingest.quarantined);
      !s.ok()) {
    return s.error();
  }
  if (const auto s = ingest_count("journal_replayed",
                                  partial.ingest.journal_replayed);
      !s.ok()) {
    return s.error();
  }
  if (const auto s = ingest_count("journal_dropped",
                                  partial.ingest.journal_dropped);
      !s.ok()) {
    return s.error();
  }

  auto funnel = get_object(obj, "preprocessing");
  if (!funnel) return std::move(funnel).error();
  const auto funnel_count = [&](std::string_view key,
                                std::size_t& out) -> Status {
    auto number = get_number(**funnel, key);
    if (!number) return std::move(number).error();
    out = static_cast<std::size_t>(*number);
    return Status::success();
  };
  if (const auto s = funnel_count("input_traces",
                                  partial.stats.input_traces);
      !s.ok()) {
    return s.error();
  }
  if (const auto s = funnel_count("load_failed", partial.stats.load_failed);
      !s.ok()) {
    return s.error();
  }
  if (const auto s = funnel_count("corrupted", partial.stats.corrupted);
      !s.ok()) {
    return s.error();
  }
  if (const auto s = funnel_count("valid", partial.stats.valid); !s.ok()) {
    return s.error();
  }
  if (const auto s = funnel_count("unique_applications",
                                  partial.stats.unique_applications);
      !s.ok()) {
    return s.error();
  }
  if (const auto s = funnel_count("retained", partial.stats.retained);
      !s.ok()) {
    return s.error();
  }
  auto corruption = counts_from_json(**funnel, "corruption_breakdown");
  if (!corruption) return std::move(corruption).error();
  partial.stats.corruption_breakdown = std::move(*corruption);
  auto evictions = counts_from_json(**funnel, "eviction_breakdown");
  if (!evictions) return std::move(evictions).error();
  partial.stats.eviction_breakdown = std::move(*evictions);

  auto runs = counts_from_json(obj, "runs_per_app");
  if (!runs) return std::move(runs).error();
  partial.runs_per_app = std::move(*runs);

  auto artifacts = get_object(obj, "artifacts");
  if (!artifacts) return std::move(artifacts).error();
  auto journal = get_string(**artifacts, "journal");
  if (!journal) return std::move(journal).error();
  partial.journal_path = std::move(*journal);
  auto metrics = get_string(**artifacts, "metrics");
  if (!metrics) return std::move(metrics).error();
  partial.metrics_path = std::move(*metrics);
  auto provenance = get_string(**artifacts, "provenance");
  if (!provenance) return std::move(provenance).error();
  partial.provenance_path = std::move(*provenance);

  const Value* traces = obj.find("traces");
  if (traces == nullptr || !traces->is_array()) {
    return schema_error("missing array 'traces'");
  }
  partial.traces.reserve(traces->as_array().size());
  for (const Value& member : traces->as_array()) {
    auto result = trace_result_from_json(member);
    if (!result) return std::move(result).error();
    if (!member.is_object()) return schema_error("non-object trace entry");
    auto dedup = get_object(member.as_object(), "dedup");
    if (!dedup) return std::move(dedup).error();
    auto path = get_string(**dedup, "path");
    if (!path) return std::move(path).error();
    auto total_bytes = get_number(**dedup, "total_bytes");
    if (!total_bytes) return std::move(total_bytes).error();
    ShardTraceResult entry;
    entry.result = std::move(*result);
    entry.source_path = std::move(*path);
    entry.total_bytes = static_cast<std::uint64_t>(*total_bytes);
    partial.traces.push_back(std::move(entry));
  }
  return partial;
}

Status write_partial(const PartialArtifact& partial, const std::string& path) {
  return util::write_file_atomic(
      path, json::serialize(partial_to_json(partial)));
}

Expected<PartialArtifact> read_partial(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{ErrorCode::kIoError, "cannot open partial " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Error{ErrorCode::kIoError, "read failure on partial " + path};
  }
  auto parsed = json::parse(buffer.str());
  if (!parsed.has_value()) {
    return Error{ErrorCode::kParseError,
                 path + ": " + parsed.error().message};
  }
  auto partial = partial_from_json(*parsed);
  if (!partial.has_value()) {
    return Error{partial.error().code, path + ": " + partial.error().message};
  }
  return partial;
}

Expected<std::vector<std::string>> expand_partial_paths(
    const std::vector<std::string>& args) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    std::error_code ec;
    if (!fs::is_directory(arg, ec)) {
      paths.push_back(arg);
      continue;
    }
    std::vector<std::string> found;
    for (const auto& entry : fs::directory_iterator(arg, ec)) {
      if (ec) break;
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.starts_with("results.shard-") && name.ends_with(".json")) {
        found.push_back(entry.path().string());
      }
    }
    if (ec) {
      return Error{ErrorCode::kIoError, "cannot scan " + arg};
    }
    if (found.empty()) {
      return Error{ErrorCode::kNotFound,
                   arg + " contains no results.shard-*.json artifacts"};
    }
    std::sort(found.begin(), found.end());
    paths.insert(paths.end(), found.begin(), found.end());
  }
  if (paths.empty()) {
    return Error{ErrorCode::kInvalidArgument, "no partial artifacts given"};
  }
  return paths;
}

Expected<MergedPartials> merge_partials(std::vector<PartialArtifact> partials) {
  if (partials.empty()) {
    return Error{ErrorCode::kInvalidArgument, "no partials to merge"};
  }
  std::sort(partials.begin(), partials.end(),
            [](const PartialArtifact& a, const PartialArtifact& b) {
              return a.shard_index < b.shard_index;
            });
  // Validate the whole partition before failing, so an operator piecing a
  // run back together sees every missing, duplicated and mismatched shard
  // in one message instead of fixing them one re-run at a time.
  const std::size_t count = partials.front().shard_count;
  std::vector<std::string> problems;
  for (const PartialArtifact& partial : partials) {
    if (partial.shard_count != count) {
      problems.push_back("shard " + std::to_string(partial.shard_index) +
                         " declares a " +
                         std::to_string(partial.shard_count) +
                         "-way partition, expected " + std::to_string(count));
    }
  }
  std::vector<std::size_t> copies(count, 0);
  for (const PartialArtifact& partial : partials) {
    if (partial.shard_index >= count) {
      problems.push_back("shard index " +
                         std::to_string(partial.shard_index) +
                         " is out of range for " + std::to_string(count) +
                         " shard(s)");
      continue;
    }
    ++copies[partial.shard_index];
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (copies[i] == 0) {
      problems.push_back("shard " + std::to_string(i) + " is missing");
    } else if (copies[i] > 1) {
      problems.push_back("shard " + std::to_string(i) + " appears " +
                         std::to_string(copies[i]) + " times");
    }
  }
  if (!problems.empty()) {
    std::string message =
        "invalid partition (" + std::to_string(partials.size()) +
        " partial(s) for " + std::to_string(count) + " shard(s)): ";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      if (i != 0) message += "; ";
      message += problems[i];
    }
    return Error{ErrorCode::kInvalidArgument, std::move(message)};
  }

  MergedPartials merged;
  core::PreprocessStats& stats = merged.batch.preprocess;
  std::map<std::string, ShardTraceResult> winners;
  for (PartialArtifact& partial : partials) {
    merged.ingest.files_scanned += partial.ingest.files_scanned;
    merged.ingest.loaded += partial.ingest.loaded;
    merged.ingest.failed += partial.ingest.failed;
    merged.ingest.retry_attempts += partial.ingest.retry_attempts;
    merged.ingest.recovered += partial.ingest.recovered;
    merged.ingest.quarantined += partial.ingest.quarantined;
    merged.ingest.journal_replayed += partial.ingest.journal_replayed;
    merged.ingest.journal_dropped += partial.ingest.journal_dropped;

    stats.input_traces += partial.stats.input_traces;
    stats.load_failed += partial.stats.load_failed;
    stats.corrupted += partial.stats.corrupted;
    stats.valid += partial.stats.valid;
    for (const auto& [kind, n] : partial.stats.corruption_breakdown) {
      stats.corruption_breakdown[kind] += n;
    }
    for (const auto& [code, n] : partial.stats.eviction_breakdown) {
      stats.eviction_breakdown[code] += n;
    }
    for (const auto& [app, runs] : partial.runs_per_app) {
      merged.batch.runs_per_app[app] += runs;
    }
    if (!partial.provenance_path.empty()) {
      merged.provenance_paths.push_back(partial.provenance_path);
    }

    for (ShardTraceResult& entry : partial.traces) {
      const auto [slot, inserted] =
          winners.try_emplace(entry.result.app_key, std::move(entry));
      if (!inserted &&
          core::dedup_wins(dedup_key(entry), dedup_key(slot->second))) {
        slot->second = std::move(entry);
      }
    }
  }

  // std::map iteration is sorted by application key — the same output order
  // the single-shot StreamingPreprocessor::finish emits.
  merged.batch.results.reserve(winners.size());
  for (auto& [app, entry] : winners) {
    merged.batch.results.push_back(std::move(entry.result));
  }
  stats.unique_applications = merged.batch.results.size();
  stats.retained = merged.batch.results.size();
  return merged;
}

}  // namespace mosaic::report

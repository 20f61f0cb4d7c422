#include "report/partial.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "darshan/binary_format.hpp"
#include "ingest/shard.hpp"
#include "json/reader.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace mosaic::report {

using json::Object;
using json::Value;
using util::Error;
using util::ErrorCode;
using util::Expected;
using util::Status;

namespace {

Value counts_to_json(const std::map<std::string, std::size_t>& counts) {
  Object out;
  for (const auto& [key, count] : counts) out.set(key, count);
  return out;
}

std::map<std::string, std::size_t> counts_from_json(const json::Reader& r) {
  std::map<std::string, std::size_t> counts;
  for (const auto& [name, value] : r.members()) {
    counts[name] = r.integer<std::size_t>(name);
  }
  return counts;
}

/// The paths of `paths` that `spec` owns, in order: `paths` itself when the
/// spec does not partition, else a copy of the owned ones in `storage`.
const std::vector<std::string>& owned_paths(
    const ingest::ShardSpec& spec, const std::vector<std::string>& paths,
    std::vector<std::string>& storage) {
  if (!spec.active()) return paths;
  storage.reserve(paths.size() / spec.count + 1);
  for (const std::string& path : paths) {
    if (ingest::shard_owns(spec, path)) storage.push_back(path);
  }
  return storage;
}

/// Folds `owned`, the paths shard `spec` owns, into its artifact.
PartialArtifact fold_shard(const std::vector<std::string>& owned,
                           const ingest::ShardSpec& spec,
                           const ingest::IngestOptions& options,
                           parallel::ThreadPool& pool) {
  if (spec.active()) {
    auto& registry = obs::Registry::global();
    registry.gauge(obs::names::kShardIndex, "shard this run owns (--shard K/N)")
        .set(static_cast<std::int64_t>(spec.index));
    registry.gauge(obs::names::kShardCount, "total shards in the partition")
        .set(static_cast<std::int64_t>(spec.count));
  }
  PartialArtifact out;
  out.shard_index = spec.index;
  out.shard_count = spec.count;
  out.inputs = shard_inputs(owned);
  ingest::IngestFold fold = ingest::fold_paths(owned, options, pool);
  out.ingest = fold.stats;
  out.fold = std::move(fold.preprocessor).state();
  return out;
}

/// Every problem that keeps `shards` from being one complete partition,
/// in one message; empty when there is none.
std::string partition_problems(std::vector<ingest::ShardSpec> shards) {
  if (shards.empty()) return "no partials to merge";
  std::sort(shards.begin(), shards.end(),
            [](const ingest::ShardSpec& a, const ingest::ShardSpec& b) {
              return a.index < b.index;
            });
  // Validate the whole partition before failing, so an operator piecing a
  // run back together sees every missing, duplicated and mismatched shard
  // in one message instead of fixing them one re-run at a time.
  const std::size_t count = shards.front().count;
  std::vector<std::string> problems;
  for (const ingest::ShardSpec& shard : shards) {
    if (shard.count != count) {
      problems.push_back("shard " + std::to_string(shard.index) +
                         " declares a " + std::to_string(shard.count) +
                         "-way partition, expected " + std::to_string(count));
    }
  }
  std::vector<std::size_t> copies(count, 0);
  for (const ingest::ShardSpec& shard : shards) {
    if (shard.index >= count) {
      problems.push_back("shard index " + std::to_string(shard.index) +
                         " is out of range for " + std::to_string(count) +
                         " shard(s)");
      continue;
    }
    ++copies[shard.index];
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (copies[i] == 0) {
      problems.push_back("shard " + std::to_string(i) + " is missing");
    } else if (copies[i] > 1) {
      problems.push_back("shard " + std::to_string(i) + " appears " +
                         std::to_string(copies[i]) + " times");
    }
  }
  if (problems.empty()) return {};
  std::string message = "invalid partition (" +
                        std::to_string(shards.size()) + " partial(s) for " +
                        std::to_string(count) + " shard(s)): ";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i != 0) message += "; ";
    message += problems[i];
  }
  return message;
}

}  // namespace

ShardInputs shard_inputs(const std::vector<std::string>& paths) {
  ShardInputs inputs;
  inputs.paths = paths.size();
  for (const std::string& path : paths) {
    inputs.digest += util::mix64(darshan::fnv1a(path));
  }
  return inputs;
}

PartialArtifact run_shard(const std::vector<std::string>& paths,
                          const ingest::IngestOptions& options,
                          parallel::ThreadPool& pool) {
  std::vector<std::string> storage;
  return fold_shard(owned_paths(options.shard, paths, storage), options.shard,
                    options, pool);
}

std::optional<PartialArtifact> keep_partial(const std::string& path,
                                            const ingest::ShardSpec& spec,
                                            const ShardInputs& inputs) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  auto partial = read_partial(path);
  std::string reason;
  if (!partial.has_value()) {
    reason = partial.error().to_string();
  } else if (partial->shard_index != spec.index ||
             partial->shard_count != spec.count) {
    reason = "it is shard " + std::to_string(partial->shard_index) + " of " +
             std::to_string(partial->shard_count);
  } else if (partial->inputs != inputs) {
    reason = "it folded " + std::to_string(partial->inputs.paths) +
             " path(s), this run hands the shard " +
             std::to_string(inputs.paths) +
             (partial->inputs.paths == inputs.paths ? " other ones" : "");
  } else {
    return std::move(*partial);
  }
  MOSAIC_LOG_WARN("resume: %s is not shard %zu of %zu over this run's inputs "
                  "(%s); running the shard again",
                  path.c_str(), spec.index, spec.count, reason.c_str());
  return std::nullopt;
}

Expected<std::vector<std::string>> run_shards(
    const std::vector<std::string>& paths, const ingest::IngestOptions& options,
    std::size_t count, const std::string& dir, bool resume,
    parallel::ThreadPool& pool,
    const std::function<void(const ShardRun&)>& on_shard) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Error{ErrorCode::kIoError,
                 "cannot create " + dir + ": " + ec.message()};
  }
  std::vector<std::string> artifacts;
  for (std::size_t k = 0; k < count; ++k) {
    const util::Stopwatch watch;
    ShardRun run;
    run.spec = {k, count};
    run.path =
        (std::filesystem::path(dir) / ingest::partial_filename(k)).string();
    std::vector<std::string> storage;
    const std::vector<std::string>& owned =
        owned_paths(run.spec, paths, storage);
    std::optional<PartialArtifact> partial;
    if (resume) partial = keep_partial(run.path, run.spec, shard_inputs(owned));
    run.kept = partial.has_value();
    if (run.kept) {
      core::count_funnel(partial->fold.stats);
    } else {
      partial = fold_shard(owned, run.spec, options, pool);
      if (const auto status = write_partial(*partial, run.path); !status.ok()) {
        return status.error();
      }
    }
    run.ingest = partial->ingest;
    run.apps = partial->fold.apps.size();
    run.seconds = watch.elapsed_seconds();
    if (on_shard) on_shard(run);
    artifacts.push_back(std::move(run.path));
  }
  return artifacts;
}

Value partial_to_json(const PartialArtifact& partial) {
  Object out;
  out.set("schema", kPartialSchema);

  Object shard;
  shard.set("index", partial.shard_index);
  shard.set("count", partial.shard_count);
  out.set("shard", std::move(shard));

  Object inputs;
  inputs.set("paths", partial.inputs.paths);
  // A decimal string: JSON numbers are doubles here, and the digest uses
  // all 64 bits.
  inputs.set("digest", std::to_string(partial.inputs.digest));
  out.set("inputs", std::move(inputs));

  Object ingest;
  ingest.set("files_scanned", partial.ingest.files_scanned);
  ingest.set("loaded", partial.ingest.loaded);
  ingest.set("failed", partial.ingest.failed);
  ingest.set("retry_attempts", partial.ingest.retry_attempts);
  ingest.set("recovered", partial.ingest.recovered);
  ingest.set("quarantined", partial.ingest.quarantined);
  out.set("ingest", std::move(ingest));

  const core::PreprocessStats& stats = partial.fold.stats;
  Object funnel;
  funnel.set("input_traces", stats.input_traces);
  funnel.set("load_failed", stats.load_failed);
  funnel.set("corrupted", stats.corrupted);
  funnel.set("valid", stats.valid);
  funnel.set("corruption_breakdown",
             counts_to_json(stats.corruption_breakdown));
  funnel.set("eviction_breakdown", counts_to_json(stats.eviction_breakdown));
  out.set("preprocessing", std::move(funnel));

  Object apps;
  for (const auto& [key, app] : partial.fold.apps) {
    Object entry;
    entry.set("runs", app.runs);
    entry.set("path", app.path);
    entry.set("total_bytes", app.total_bytes);
    entry.set("job_id", app.job_id);
    apps.set(key, std::move(entry));
  }
  out.set("apps", std::move(apps));
  return out;
}

Expected<PartialArtifact> partial_from_json(const Value& value) {
  const json::Reader r(value, "partial artifact");
  if (const std::string_view schema = r.string("schema");
      schema != kPartialSchema) {
    r.fail("schema", "is '" + std::string(schema) + "', expected " +
                         std::string(kPartialSchema));
  }

  PartialArtifact partial;
  const json::Reader shard = r.object("shard");
  partial.shard_index = shard.integer<std::size_t>("index");
  partial.shard_count = shard.integer<std::size_t>("count");
  if (partial.shard_index >= partial.shard_count) {
    shard.fail("index", "is out of range for 'count'");
  }

  const json::Reader inputs = r.object("inputs");
  partial.inputs.paths = inputs.integer<std::size_t>("paths");
  if (const auto digest = util::parse_uint(inputs.string("digest"))) {
    partial.inputs.digest = *digest;
  } else {
    inputs.fail("digest", "is not an unsigned 64-bit decimal");
  }

  const json::Reader ingest = r.object("ingest");
  partial.ingest.files_scanned = ingest.integer<std::size_t>("files_scanned");
  partial.ingest.loaded = ingest.integer<std::size_t>("loaded");
  partial.ingest.failed = ingest.integer<std::size_t>("failed");
  partial.ingest.retry_attempts = ingest.integer<std::size_t>("retry_attempts");
  partial.ingest.recovered = ingest.integer<std::size_t>("recovered");
  partial.ingest.quarantined = ingest.integer<std::size_t>("quarantined");

  core::PreprocessStats& stats = partial.fold.stats;
  const json::Reader funnel = r.object("preprocessing");
  stats.input_traces = funnel.integer<std::size_t>("input_traces");
  stats.load_failed = funnel.integer<std::size_t>("load_failed");
  stats.corrupted = funnel.integer<std::size_t>("corrupted");
  stats.valid = funnel.integer<std::size_t>("valid");
  stats.corruption_breakdown =
      counts_from_json(funnel.object("corruption_breakdown"));
  stats.eviction_breakdown =
      counts_from_json(funnel.object("eviction_breakdown"));

  const json::Reader apps = r.object("apps");
  for (const auto& [key, entry] : apps.members()) {
    if (!r.ok()) break;
    const json::Reader app = apps.object(key);
    const auto runs = app.integer<std::size_t>("runs");
    // A fold only holds applications with a valid run.
    if (runs == 0) app.fail("runs", "is 0");
    partial.fold.apps.emplace_hint(
        partial.fold.apps.end(), key,
        core::AppFold{runs, std::string(app.string("path")),
                      app.integer<std::uint64_t>("total_bytes"),
                      app.integer<std::uint64_t>("job_id")});
  }
  return r.finish(std::move(partial));
}

Status write_partial(const PartialArtifact& partial, const std::string& path) {
  return util::write_file_atomic(
      path, json::serialize(partial_to_json(partial), /*pretty=*/false));
}

Expected<PartialArtifact> read_partial(const std::string& path) {
  auto parsed = json::read_file(path);
  if (!parsed.has_value()) return std::move(parsed).error();
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

Expected<MergedPartials> reduce_partials(const std::vector<std::string>& paths,
                                         const ingest::IngestOptions& options,
                                         const core::Thresholds& thresholds,
                                         parallel::ThreadPool& pool) {
  std::vector<ingest::ShardSpec> shards;
  ingest::IngestFold fold;
  for (const std::string& path : paths) {
    auto partial = read_partial(path);
    if (!partial.has_value()) return std::move(partial).error();
    shards.push_back({partial->shard_index, partial->shard_count});
    fold.stats += partial->ingest;
    fold.preprocessor.absorb(std::move(partial->fold));
  }
  if (std::string problems = partition_problems(std::move(shards));
      !problems.empty()) {
    return Error{ErrorCode::kInvalidArgument, std::move(problems)};
  }
  // A reduce that finds no winner's file where its shard read it runs where
  // the corpus is not (moved, or mounted elsewhere): that is an error, not
  // a summary of zero applications. Some missing winners are demoted one
  // by one, as single-shot demotes them.
  const std::size_t winners = fold.preprocessor.apps().size();
  const std::string first_winner =
      winners == 0 ? std::string()
                   : fold.preprocessor.apps().begin()->second.path;
  ingest::IngestResult finished =
      ingest::finish_fold(std::move(fold), options, pool);
  if (winners > 0 && finished.winners_missing == winners) {
    return Error{ErrorCode::kNotFound,
                 first_winner + " does not exist, nor does any of the " +
                     std::to_string(winners) +
                     " dedup winner(s) the partials name; the reduce "
                     "re-reads each winner at the path its shard read"};
  }
  MergedPartials merged;
  merged.ingest = finished.stats;
  merged.batch =
      core::analyze_preprocessed(std::move(finished.pre), thresholds, &pool);
  return merged;
}

}  // namespace mosaic::report

// Mergeable partial artifacts for sharded batch analysis.
//
// A shard run (`mosaic batch --shard K/N`, one iteration of `--shards N`,
// a dispatch worker's task) folds the slice of the corpus its stable hash
// owns (ingest/shard.hpp) and writes the state of that fold as one
// self-describing JSON artifact: its ingest and funnel counters and, per
// application, the run count and the dedup digest (path, total bytes, job
// id) of its local winner — what the single-shot fold keeps (DESIGN.md §9),
// never a trace or a result. A shard reads each file once and analyzes
// nothing.
//
// One reduce (reduce_partials) turns a complete partition back into the
// single-shot batch, byte-identical through batch_to_json, the markdown
// report and provenance (tests/report/test_partial.cpp,
// tests/integration/test_differential.cpp):
//   - each partial is absorbed into one core::StreamingPreprocessor as it
//     is read: counters and runs are summed and each application's winner
//     is re-chosen with core::dedup_wins, whichever shards its runs hit;
//   - the partition is validated, every problem named in one message;
//   - ingest::finish_fold re-reads each global winner, demoting one that
//     changed since its shard folded it as single-shot demotes it, and
//     core::analyze_preprocessed analyzes it once.
// The reduce therefore needs read access to the winners' files.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "core/preprocess.hpp"
#include "ingest/ingest.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace mosaic::report {

/// Schema tag written into (and required from) every partial artifact.
inline constexpr std::string_view kPartialSchema = "mosaic-partial-v2";

/// Everything one shard run contributes to the reduce.
struct PartialArtifact {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  ingest::IngestStats ingest;  ///< aborted is never serialized (aborted
                               ///< shard runs do not write partials)
  core::FoldState fold;
};

/// Runs the fold of one shard for `mosaic batch --shard K/N` and `--shards
/// N`, the dispatch worker and dispatch's degraded mode: ingests the slice
/// options.shard owns (the options also carry the resume journal,
/// quarantine, reader and abort seam) without re-reading a winner or
/// analyzing. A run stopped by options.abort_after_files returns an
/// artifact holding only its `ingest` counters (ingest.aborted set).
/// Per-file failures are funnel data; only setup failures are Errors.
[[nodiscard]] util::Expected<PartialArtifact> run_shard(
    const std::vector<std::string>& paths,
    const ingest::IngestOptions& options, parallel::ThreadPool& pool);

/// Serializes/deserializes the artifact (stable key order).
[[nodiscard]] json::Value partial_to_json(const PartialArtifact& partial);
[[nodiscard]] util::Expected<PartialArtifact> partial_from_json(
    const json::Value& value);

/// Atomic write of `partial_to_json` to `path`.
[[nodiscard]] util::Status write_partial(const PartialArtifact& partial,
                                         const std::string& path);

/// Reads and validates one artifact file.
[[nodiscard]] util::Expected<PartialArtifact> read_partial(
    const std::string& path);

/// Expands each argument (a partial file, or a directory containing
/// `results.shard-K.json` files) into a sorted list of artifact paths.
[[nodiscard]] util::Expected<std::vector<std::string>> expand_partial_paths(
    const std::vector<std::string>& args);

/// The reduce output: the single-shot batch plus the summed ingest
/// counters (with the retries of the winners' re-reads).
struct MergedPartials {
  core::BatchResult batch;
  ingest::IngestStats ingest;
};

/// The one reduce of `batch --shards N`, `mosaic merge`, `report
/// --from-partials` and the dispatch manager. Reads the artifacts at
/// `paths` one at a time, absorbing each fold; an artifact that does not
/// read is an error naming it. Then checks that they form one complete
/// partition (the same shard count, every index once) — a missing shard
/// would silently under-count the corpus — naming every problem in one
/// kInvalidArgument message. Last, re-reads the winners under `options` on
/// `pool` and analyzes each once with `thresholds`. A winner whose file is
/// gone is demoted, as single-shot demotes it; when every winner's file is
/// gone, the reduce fails with kNotFound naming the first (by application
/// key), because it is running where the corpus is not.
[[nodiscard]] util::Expected<MergedPartials> reduce_partials(
    const std::vector<std::string>& paths,
    const ingest::IngestOptions& options, const core::Thresholds& thresholds,
    parallel::ThreadPool& pool);

}  // namespace mosaic::report

// Mergeable partial results for sharded out-of-core batch analysis.
//
// A shard run (`mosaic batch --shard K/N`, or one iteration of
// `--shards N`) analyzes the slice of the corpus its stable hash owns
// (ingest/shard.hpp) and writes everything report generation needs as one
// self-describing JSON artifact: its funnel counters, ingest statistics,
// per-application run weights, per-trace categorization results with the
// dedup digest (total bytes + source path) that lets the merge replay the
// cross-shard dedup decision, and the shard-local artifact paths (journal,
// metrics, provenance) for provenance joins and triage.
//
// merge_partials() recombines N such artifacts into a core::BatchResult that
// is byte-identical — through batch_to_json and the markdown report — to a
// single-shot run over the same inputs (golden-enforced in
// tests/report/test_partial.cpp and tests/cli/cli_fault_injection.sh):
//   - funnel counters and breakdown maps are summed;
//   - runs-per-application weights are summed per key;
//   - the retained trace per application is re-chosen across shard winners
//     with core::dedup_wins, the rule StreamingPreprocessor retains by, so
//     the global winner is found even when an application's executions
//     span shards;
//   - results come out sorted by application key, as the single-shot
//     preprocessor emits them.
// This bounds batch memory by shard size, not corpus size, and makes
// N-process scale-out a deterministic reduce.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ingest/ingest.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace mosaic::report {

/// Schema tag written into (and required from) every partial artifact.
inline constexpr std::string_view kPartialSchema = "mosaic-partial-v1";

/// One retained trace plus the digest fields the cross-shard dedup needs.
struct ShardTraceResult {
  core::TraceResult result;
  std::string source_path;        ///< dedup tiebreak (and triage pointer)
  std::uint64_t total_bytes = 0;  ///< dedup primary key (trace total bytes)
};

/// Everything one shard run contributes to the reduce.
struct PartialArtifact {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  ingest::IngestStats ingest;  ///< aborted is never serialized (aborted
                               ///< shard runs do not write partials)
  core::PreprocessStats stats;
  std::map<std::string, std::size_t> runs_per_app;
  /// Shard-local artifact paths ("" when the run did not write one).
  std::string journal_path;
  std::string metrics_path;
  std::string provenance_path;
  std::vector<ShardTraceResult> traces;
};

/// Runs one shard end to end for `mosaic batch --shard K/N` and `--shards
/// N`, the dispatch worker and dispatch's degraded mode: ingests the slice
/// options.shard owns (the options also carry the resume journal,
/// quarantine, reader and abort seam), snapshots each retained trace's
/// dedup digest, analyzes, and assembles the partial artifact. The
/// artifact's journal path is options.journal_path; its metrics and
/// provenance paths are the caller's. A run stopped by
/// options.abort_after_files returns an artifact holding only its `ingest`
/// counters (ingest.aborted set). Per-file failures are funnel data; only
/// setup failures are Errors.
[[nodiscard]] util::Expected<PartialArtifact> run_shard(
    const std::vector<std::string>& paths,
    const ingest::IngestOptions& options, const core::Thresholds& thresholds,
    parallel::ThreadPool& pool);

/// Serializes/deserializes the artifact (stable key order; exact numeric
/// round-trip).
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

/// The reduce output: the reassembled batch plus cross-shard bookkeeping.
struct MergedPartials {
  core::BatchResult batch;
  ingest::IngestStats ingest;  ///< counters summed over shards
  /// Non-empty per-shard provenance paths, in shard-index order — the
  /// inputs `report --from-partials --confusion` joins against truth.
  std::vector<std::string> provenance_paths;
};

/// Merges a complete partition. Validates that all partials agree on the
/// shard count, that indices are distinct, and that all N shards are
/// present — a missing shard would silently under-count the corpus.
[[nodiscard]] util::Expected<MergedPartials> merge_partials(
    std::vector<PartialArtifact> partials);

}  // namespace mosaic::report

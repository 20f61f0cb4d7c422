// Mergeable partial artifacts for sharded batch analysis.
//
// A shard run (`mosaic batch --shard K/N`, one iteration of `--shards N`,
// a dispatch worker's task) folds the slice of the corpus its stable hash
// owns (ingest/shard.hpp) and writes the state of that fold as one
// self-describing JSON artifact: the inputs it was handed (a path count and
// an order-independent digest), its ingest and funnel counters and, per
// application, the run count and the dedup digest (path, total bytes, job
// id) of its local winner — what the single-shot fold keeps (DESIGN.md §9),
// never a trace or a result. A shard reads each file once and analyzes
// nothing.
//
// The artifacts are also the resume record: each is written atomically, so
// a killed `--shards N` or dispatch run leaves whole partials or none, and
// keep_partial, the one keep rule, decides which a resumed run keeps.
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
#include <cstdint>
#include <functional>
#include <optional>
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
inline constexpr std::string_view kPartialSchema = "mosaic-partial-v3";

/// What a shard run was handed: how many paths, and an order-independent
/// digest of them (the wrapping sum of util::mix64 of each path's FNV-1a).
/// A resume keeps a partial only when it records the inputs this run hands
/// its shard, so a trace added to, removed from or moved within the corpus
/// runs its shard again.
struct ShardInputs {
  std::size_t paths = 0;
  std::uint64_t digest = 0;

  friend bool operator==(const ShardInputs&, const ShardInputs&) = default;
};

/// The inputs of `paths`, a shard's owned paths in any order.
[[nodiscard]] ShardInputs shard_inputs(const std::vector<std::string>& paths);

/// Everything one shard run contributes to the reduce.
struct PartialArtifact {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  ShardInputs inputs;
  ingest::IngestStats ingest;
  core::FoldState fold;
};

/// Runs the fold of one shard for `mosaic batch --shard K/N` and `--shards
/// N`, the dispatch worker and dispatch's degraded mode: ingests the slice
/// of `paths` that options.shard owns (the options also carry the
/// quarantine and reader) without re-reading a winner or analyzing.
/// Per-file failures are funnel data.
[[nodiscard]] PartialArtifact run_shard(const std::vector<std::string>& paths,
                                        const ingest::IngestOptions& options,
                                        parallel::ThreadPool& pool);

/// The keep rule of every resume (`batch --shards N --resume`, `dispatch
/// --resume`): the artifact at `path` is kept when it parses as shard
/// `spec` and records `inputs`, what this run hands that shard. Otherwise
/// (no file, a torn or foreign one, another partition's or another
/// corpus's) the result is nullopt and the shard runs again; a file that
/// exists but fails the rule is logged with the reason.
[[nodiscard]] std::optional<PartialArtifact> keep_partial(
    const std::string& path, const ingest::ShardSpec& spec,
    const ShardInputs& inputs);

/// What run_shards did with one shard.
struct ShardRun {
  ingest::ShardSpec spec;
  std::string path;            ///< its artifact
  bool kept = false;           ///< an earlier run's artifact passed the rule
  ingest::IngestStats ingest;  ///< the fold's counters (the artifact's if kept)
  std::size_t apps = 0;        ///< applications in the artifact
  double seconds = 0.0;        ///< wall time of the fold or the check
};

/// The `--shards N` driver of `mosaic batch`: creates `dir` if needed, then
/// for each shard K of `count` keeps `dir`/results.shard-K.json when
/// `resume` is set and keep_partial accepts it, adding its funnel counters
/// to this process's mosaic_funnel_* series (core::count_funnel) so a
/// --metrics dump still equals the printed funnel; otherwise runs the
/// shard and writes its artifact atomically. `on_shard` sees each shard when it is done. Returns the
/// artifact paths in shard order, ready for reduce_partials, or the error
/// of an artifact that could not be written.
[[nodiscard]] util::Expected<std::vector<std::string>> run_shards(
    const std::vector<std::string>& paths,
    const ingest::IngestOptions& options, std::size_t count,
    const std::string& dir, bool resume, parallel::ThreadPool& pool,
    const std::function<void(const ShardRun&)>& on_shard = {});

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

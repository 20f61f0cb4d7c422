// Fault-tolerant streaming trace ingestion (the front end of `mosaic batch`).
//
// The paper's dataset is hostile by construction — 32% of the Blue Waters
// 2019 traces are corrupted and must be evicted and counted, not crash the
// run. This subsystem replaces the ad-hoc serial load loop with a pipeline
// that:
//   - turns every file into one core::FileOutcome on the pool workers
//     (read, parse, validate, digest: the steps of load_file), each worker
//     taking runs of consecutive paths and holding one trace, plus at most
//     four .mbt files waiting for their checksum, at a time; each worker
//     folds its outcomes into its own PreprocessStats funnel, failures
//     classified by util::ErrorCode (parse-error vs corrupt-trace vs
//     io-error vs not-found vs timeout), and the workers' folds are
//     combined at the end: dedup does not depend on arrival order;
//   - keeps only digests in the fold and re-reads the dedup winners at the
//     end, so peak memory is O(threads × unique applications) instead of
//     O(corpus);
//   - retries transient kIoError reads with capped exponential backoff and
//     bounds each file's total read+parse budget with a deadline;
//   - optionally quarantines poison files (content-caused failures) into a
//     side directory;
//   - reads through the FileReader seam, so the fault-injection harness can
//     exercise all of the above deterministically (see reader.hpp).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/preprocess.hpp"
#include "ingest/reader.hpp"
#include "ingest/shard.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace mosaic::ingest {

struct IngestOptions {
  /// Byte source; null uses the real filesystem.
  FileReader* reader = nullptr;
  /// Extra read attempts after the first for transient kIoError failures.
  int max_retries = 3;
  /// First backoff delay between attempts; later ones double, capped at
  /// 2 s (deterministic, no jitter).
  double backoff_initial_ms = 10.0;
  /// Total read+retry+parse budget per file; 0 means unlimited. Expiry
  /// classifies the file as kTimeout — one pathological file must not wedge
  /// a worker for the rest of the batch.
  double file_deadline_seconds = 30.0;
  /// When set, files evicted for content reasons (parse-error,
  /// corrupt-trace, timeout) are moved here.
  std::string quarantine_dir;
  /// Slice of the corpus a shard run owns (see shard.hpp), read by
  /// report::run_shard: paths hashing to a different shard are dropped
  /// before any counting, so each file is scanned and folded by exactly one
  /// shard, which is what makes shard partials mergeable back into the
  /// single-shot funnel. fold_paths folds every path it is given.
  ShardSpec shard;
};

/// Ingest-level counters, complementing the PreprocessStats funnel.
struct IngestStats {
  std::size_t files_scanned = 0;     ///< paths handed to ingest
  std::size_t loaded = 0;            ///< read + parsed successfully
  std::size_t failed = 0;            ///< terminal load failures
  std::size_t retry_attempts = 0;    ///< extra read attempts issued
  std::size_t recovered = 0;         ///< files that loaded after >= 1 retry
  std::size_t quarantined = 0;       ///< files moved to the quarantine dir

  /// Adds another fold's counters (a worker's, a shard's).
  IngestStats& operator+=(const IngestStats& more) noexcept;
};

/// Streaming ingest output: the pre-processed funnel plus ingest counters.
struct IngestResult {
  core::PreprocessResult pre;
  IngestStats stats;
  /// Dedup winners demoted because their file was gone at the re-read
  /// (kNotFound from the read, not a changed run).
  std::size_t winners_missing = 0;
};

/// The funnel after the fold: digests only, no trace.
struct IngestFold {
  core::StreamingPreprocessor preprocessor;
  IngestStats stats;
};

/// Streams `paths` through the pool and folds every outcome into the
/// pre-processing funnel, keeping each application's winner digest. One
/// loop per pool worker claims runs of consecutive paths and folds them into
/// its own funnel; the loops' folds are combined with
/// StreamingPreprocessor::absorb, so the result does not depend on which
/// worker took which run. Per-file failures are funnel data, not errors. An
/// exception thrown on a worker (by a reader, say) is rethrown here once
/// every worker has stopped. A shard runs this alone (report/partial.hpp).
[[nodiscard]] IngestFold fold_paths(const std::vector<std::string>& paths,
                                    const IngestOptions& options,
                                    parallel::ThreadPool& pool);

/// The finish step after a fold, or after folds combined by the partial
/// reduce: re-reads each dedup winner on the pool with the options' reader,
/// retry policy and deadline (StreamingPreprocessor::finish demotes one
/// that changed), adding the retries to the counters.
[[nodiscard]] IngestResult finish_fold(IngestFold fold,
                                       const IngestOptions& options,
                                       parallel::ThreadPool& pool);

/// fold_paths then finish_fold: the funnel of a single-shot batch. Per-file
/// failures are funnel data, so no error is returned today.
[[nodiscard]] util::Expected<IngestResult> ingest_paths(
    const std::vector<std::string>& paths, const IngestOptions& options,
    parallel::ThreadPool& pool);

/// Reads and parses one file under the options' reader, retry/backoff
/// and deadline, classifying a failure by ErrorCode. The number of extra
/// read attempts is reported via `*retry_attempts` when provided.
[[nodiscard]] util::Expected<trace::Trace> load_trace(
    const std::string& path, const IngestOptions& options = {},
    std::size_t* retry_attempts = nullptr);

/// One file after the per-file funnel step.
struct LoadedFile {
  core::FileOutcome outcome;
  std::optional<trace::Trace> trace;  ///< engaged exactly when outcome.valid()
  std::size_t retry_attempts = 0;     ///< extra read attempts spent
};

/// The per-file funnel step: load_trace, then core::assess (validate and
/// digest). The daemon, `mosaic analyze` and `mosaic explain` run it per
/// file; batch workers run the same read, parse and assess steps over runs
/// of paths. It counts no funnel metric — StreamingPreprocessor::add does.
[[nodiscard]] LoadedFile load_file(const std::string& path,
                                   const IngestOptions& options = {});

}  // namespace mosaic::ingest

// Trace pre-processing (paper §III-B1, steps (1) of Fig. 1; evaluated in
// Fig. 3).
//
// Two reductions run before categorization:
//   1. Validity check — corrupted traces (e.g. deallocation recorded past the
//      end of execution) are evicted. Blue Waters 2019: 32% evicted.
//   2. Application dedup — all executions of the same application by the
//      same user are assumed to share categories; only the heaviest (most
//      I/O-intensive) trace per (user, app) is analyzed. Blue Waters 2019:
//      8% of valid traces retained.
// The runs-per-application map is kept so reports can re-weight single-run
// results to the full execution set ("all runs" columns of Tables II/III).
//
// Two drivers exist:
//   - preprocess(): one-shot over an in-memory vector (tests, library use);
//   - StreamingPreprocessor: folds one FileOutcome per scanned file for the
//     fault-tolerant ingest path, loads that failed before validation
//     (io-error, parse-error, …) included, so the funnel covers every file
//     scanned, not just the parseable ones. Its state (FoldState) is what a
//     shard ships as its partial, and folds combine with absorb().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/trace.hpp"
#include "util/error.hpp"

namespace mosaic::parallel {
class ThreadPool;
}  // namespace mosaic::parallel

namespace mosaic::core {

/// Funnel counters matching paper Fig. 3, extended with pre-validity load
/// failures so `input_traces` equals the number of files scanned.
struct PreprocessStats {
  std::size_t input_traces = 0;
  std::size_t load_failed = 0;      ///< evicted before validation (io/parse/…)
  std::size_t corrupted = 0;        ///< evicted by the validity check
  std::size_t valid = 0;            ///< input - load_failed - corrupted
  std::size_t unique_applications = 0;
  std::size_t retained = 0;         ///< == unique_applications
  /// Validity eviction reasons, keyed by CorruptionKind name.
  std::map<std::string, std::size_t> corruption_breakdown;
  /// All evictions keyed by util::ErrorCode name ("io-error", "parse-error",
  /// "corrupt-trace", "not-found", "timeout"). corrupted + load_failed in sum.
  std::map<std::string, std::size_t> eviction_breakdown;
};

/// Pre-processing output: the retained traces plus bookkeeping.
struct PreprocessResult {
  std::vector<trace::Trace> retained;
  /// Valid executions per application key (user/app), including the retained
  /// one. Drives the "all runs" weighting in reports.
  std::map<std::string, std::size_t> runs_per_app;
  PreprocessStats stats;
};

/// Runs both reductions by reference, copying only the retained winners
/// (typically a small fraction of the input — Blue Waters 2019: 8% of valid
/// traces). Each application's winner is picked by dedup_wins() on its byte
/// total and job id; retained traces keep their input order.
[[nodiscard]] PreprocessResult preprocess(std::span<const trace::Trace> traces);

/// Adds a fold's funnel counters to this process's funnel metrics, as if
/// its files had been added here: how a shard kept by a resumed `--shards`
/// run keeps the metrics equal to the printed funnel.
void count_funnel(const PreprocessStats& stats);

/// What dedup compares two valid runs of one application by.
struct DedupKey {
  std::uint64_t total_bytes = 0;
  std::uint64_t job_id = 0;
  std::string_view path;  ///< source file
};

/// The dedup retention rule, defined once for the streaming preprocessor's
/// add() and absorb() so a reduced winner is always the run a single-shot
/// batch retains: heavier total bytes win, ties break on the smaller job
/// id, then the smaller source path. It looks only at the runs' identities,
/// so the winner does not depend on arrival order (parallel workers, shard
/// layout).
[[nodiscard]] bool dedup_wins(const DedupKey& challenger,
                              const DedupKey& incumbent) noexcept;

/// What one trace file contributed to the funnel. A valid run contributes
/// its dedup digest; an evicted file, why it was evicted. ingest::load_file
/// produces it for batch workers, the daemon, `mosaic analyze` and
/// `mosaic explain`, and StreamingPreprocessor::add folds it.
struct FileOutcome {
  std::string path;  ///< source file
  /// Valid runs: the dedup digest (application key, read+write bytes, job
  /// id), enough to run dedup without the trace in memory.
  std::string app_key;
  std::uint64_t total_bytes = 0;
  std::uint64_t job_id = 0;
  /// Evicted files: the ErrorCode and the reader's, parser's or validity
  /// check's message. Empty for a valid run.
  std::optional<util::Error> error;
  /// Validity evictions: what the check found. kNone for every other
  /// outcome, so an eviction with kNone failed before validation (io,
  /// parse, not-found, timeout).
  trace::CorruptionKind corruption = trace::CorruptionKind::kNone;

  [[nodiscard]] bool valid() const noexcept { return !error.has_value(); }
  [[nodiscard]] bool load_failed() const noexcept {
    return error.has_value() && corruption == trace::CorruptionKind::kNone;
  }
  [[nodiscard]] DedupKey dedup_key() const noexcept {
    return {total_bytes, job_id, path};
  }
};

/// The funnel's decision on one parsed trace: a validity eviction
/// (kCorruptTrace with the corruption kind), or the dedup digest of a valid
/// run. Pure; counts nothing.
[[nodiscard]] FileOutcome assess(const trace::Trace& trace, std::string path);

/// One application in the fold: its valid runs so far and the dedup digest
/// of the heaviest.
struct AppFold {
  std::size_t runs = 0;
  std::string path;  ///< the winner's source file
  std::uint64_t total_bytes = 0;
  std::uint64_t job_id = 0;

  [[nodiscard]] DedupKey dedup_key() const noexcept {
    return {total_bytes, job_id, path};
  }
};

/// What the fold keeps between files: the funnel counters
/// (unique_applications and retained stay 0 until finish) and one AppFold
/// per application key. It is O(unique applications), never O(corpus).
struct FoldState {
  PreprocessStats stats;
  std::map<std::string, AppFold> apps;
};

/// Incremental funnel folding (evictions + dedup) with O(unique
/// applications) state.
///
/// The ingest pipeline folds files one outcome at a time, one preprocessor
/// per worker; only the digest of the current winner per application key
/// is kept. finish() re-reads the winners. Retention
/// follows dedup_wins(); retained traces are emitted sorted by application
/// key.
class StreamingPreprocessor {
 public:
  /// Re-reads a dedup winner's file in finish(); called concurrently when
  /// finish() is given a pool.
  using Reload =
      std::function<util::Expected<trace::Trace>(const std::string& path)>;

  /// Folds one file: a valid run enters dedup by its digest; an eviction is
  /// counted. Every funnel stat and metric of a folded file is bumped here.
  void add(FileOutcome outcome);

  /// Folds another fold in as if its files had been added here: counters
  /// and runs are summed, and each application keeps the winner
  /// dedup_wins() picks of the two. Counts no metric — the fold that built
  /// `other` counted its files.
  void absorb(FoldState other);

  /// The fold so far. The preprocessor is consumed.
  [[nodiscard]] FoldState state() && { return std::move(state_); }

  /// Each application's winner digest so far, by application key.
  [[nodiscard]] const std::map<std::string, AppFold>& apps() const noexcept {
    return state_.apps;
  }

  /// Re-reads every dedup winner through `reload` (on `pool` when given)
  /// and re-runs assess() on it. A winner that no longer loads, no longer
  /// passes the validity check, or whose app key, total bytes or job id
  /// changed since it was folded is demoted: its application is dropped
  /// (no other run takes its place) and the eviction counted. Returns the
  /// final funnel result with retained traces sorted by application key.
  /// The preprocessor is consumed.
  [[nodiscard]] PreprocessResult finish(const Reload& reload,
                                        parallel::ThreadPool* pool = nullptr);

 private:
  FoldState state_;
};

}  // namespace mosaic::core

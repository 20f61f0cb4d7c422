// The manager half of distributed dispatch: partitions a corpus into shard
// tasks, farms them out to a worker pool over the frame protocol, survives
// worker failure, and collects the partial artifacts for merging.
//
// Task lifecycle (DESIGN.md §14):
//
//   queued -> assigned -> running -> done
//                |           |
//                +-----------+--> retrying ----(backoff)----> queued
//                            |
//                            +--> quarantined
//
// Failure detection is three-pronged, matching the protocol error taxonomy:
//   - closed socket (kIoError)      worker died / network partition,
//   - missed heartbeats (kTimeout)  worker hung or stalled,
//   - task deadline exceeded        worker alive but never finishing.
// Any of them orphans the task: it re-enters the queue under capped
// exponential backoff and is reassigned — preferentially to a *different*
// worker, since the previous one just failed it. A task that keeps failing
// is quarantined (recorded, skipped, reported) once it has exhausted its
// attempt budget across distinct workers, so one poisoned shard cannot
// wedge the fleet.
//
// Degradation: when every worker is lost and tasks remain, the manager runs
// them in-process through report::run_shard, as the workers do. Slower, but
// the run completes — and because partials are deterministic, the output is
// still byte-identical to the single-shot run.
//
// A task is a fold: workers ship digest partials (report/partial.hpp) and
// analyze nothing. The caller reduces the partials, which re-reads and
// analyzes each global winner on the manager.
//
// Crash safety: a shard counts as done only once its partial artifact is
// written atomically, so the partials directory is the resume record:
// `--resume` keeps every artifact that parses as its shard and only
// schedules what remains.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "dist/net.hpp"
#include "util/error.hpp"

namespace mosaic::dist {

class TelemetryHub;

struct DispatchOptions {
  std::vector<Address> workers;
  std::size_t shard_count = 0;  ///< 0 = one shard per worker
  /// Corpus files/directories as given on the command line.
  std::vector<std::string> paths;

  /// Per-file ingest knobs forwarded to workers inside each task.
  int ingest_max_retries = 3;
  double ingest_file_deadline_seconds = 30.0;

  /// Wall-clock budget for one task attempt (0 = unlimited). Exceeding it
  /// counts as a worker failure even if heartbeats keep arriving.
  double task_deadline_seconds = 300.0;
  /// Declare a worker hung when it is silent (no heartbeat, no frame) for
  /// this long while a task runs.
  double heartbeat_grace_seconds = 5.0;
  double connect_timeout_seconds = 5.0;

  /// Assignments a task may consume before quarantine is considered.
  std::size_t max_task_attempts = 3;
  /// Capped exponential backoff (doubling) between a task's retries.
  double retry_initial_delay_ms = 50.0;
  double retry_max_delay_ms = 2000.0;
  /// Reconnect attempts before a worker is declared permanently lost.
  std::size_t reconnect_attempts = 2;

  /// Directory receiving the per-shard partial artifacts.
  std::string out_dir;
  /// Keep every `out_dir` artifact that parses as its shard (K of
  /// shard_count) and only schedule the shards that remain.
  bool resume = false;

  /// Finish remaining shards in-process when every worker is lost.
  bool allow_degraded = true;
  std::size_t degraded_threads = 0;  ///< 0 = hardware concurrency

  /// Cooperative cancellation (SIGINT/SIGTERM). Checked at every scheduling
  /// step; a stopped run returns with aborted set.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Test seam simulating a manager crash: stop abruptly once this many
  /// partials have been received and written. 0 disables.
  std::size_t abort_after_partials = 0;

  /// Optional fleet telemetry sink (dist/telemetry.hpp). When set, tasks ask
  /// workers to ship metric snapshots on heartbeats/partials, the scheduler
  /// mirrors every lifecycle transition onto the hub's status board, and
  /// handshakes feed it clock-offset estimates. Null = no federation; the
  /// wire payloads stay byte-identical to pre-federation builds.
  TelemetryHub* telemetry = nullptr;
  /// Also ask workers to record spans and ship them with their partials
  /// (only meaningful with `telemetry` set).
  bool collect_spans = false;
};

/// Robustness counters for one dispatch run (mirrored into obs metrics).
struct DispatchStats {
  std::size_t tasks_done = 0;       ///< partials received or run locally
  std::size_t retries = 0;          ///< re-requests on a live connection
  std::size_t reassigned = 0;       ///< tasks orphaned by a worker failure
  std::size_t quarantined = 0;      ///< tasks given up on
  std::size_t workers_lost = 0;     ///< workers declared permanently dead
  std::size_t degraded_tasks = 0;   ///< tasks the manager ran in-process
  std::size_t resumed_tasks = 0;    ///< shards kept from earlier partials
};

/// Terminal outcome of one shard task.
struct TaskOutcome {
  std::size_t shard = 0;
  std::string status;        ///< "done" | "quarantined"
  std::string worker;        ///< producer ("local" = degraded/in-process,
                             ///< "" = resumed from an earlier partial)
  std::size_t attempts = 0;  ///< assignments in this run (0 when resumed)
  std::string partial_path;  ///< for "done"
  std::string error;         ///< last failure, for "quarantined"
};

struct DispatchResult {
  /// Partial artifact paths of every done shard, ordered by shard index.
  std::vector<std::string> partial_paths;
  /// One entry per shard, ordered by shard index.
  std::vector<TaskOutcome> outcomes;
  DispatchStats stats;
  bool aborted = false;  ///< stop_flag or abort_after_partials tripped

  /// True when every shard reached "done" (nothing quarantined, no abort).
  [[nodiscard]] bool complete() const noexcept;
};

/// Runs one distributed dispatch: partition, assign, retry, merge-ready.
/// Errors only on setup-level failures (no workers and degradation
/// disabled, unusable out_dir); task failures are data in the result, not
/// errors.
[[nodiscard]] util::Expected<DispatchResult> run_dispatch(
    const DispatchOptions& options);

}  // namespace mosaic::dist

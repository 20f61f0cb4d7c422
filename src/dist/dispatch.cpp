#include "dist/dispatch.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "darshan/io.hpp"
#include "dist/protocol.hpp"
#include "dist/telemetry.hpp"
#include "ingest/shard.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "parallel/thread_pool.hpp"
#include "report/partial.hpp"
#include "util/backoff.hpp"
#include "util/log.hpp"

namespace mosaic::dist {

using util::Error;
using util::ErrorCode;
using util::Expected;

namespace {

/// Growth of the backoff between a task's retries and between reconnects.
constexpr double kRetryMultiplier = 2.0;

struct DispatchMetrics {
  obs::Counter& done;
  obs::Counter& retries;
  obs::Counter& reassigned;
  obs::Counter& quarantined;
  obs::Counter& workers_lost;
  obs::Counter& degraded;
  obs::Counter& resumed;
  obs::Counter& heartbeats;
  obs::Histogram& task_ms;
  obs::Histogram& connect_ms;

  static DispatchMetrics& get() {
    static auto& registry = obs::Registry::global();
    static DispatchMetrics metrics{
        registry.counter(obs::names::kDispatchTasksDone,
                         "shard tasks that reached done"),
        registry.counter(obs::names::kDispatchRetries,
                         "task re-requests after a retryable failure"),
        registry.counter(obs::names::kDispatchReassigned,
                         "tasks orphaned by a worker failure"),
        registry.counter(obs::names::kDispatchQuarantined,
                         "tasks given up on after repeated failure"),
        registry.counter(obs::names::kDispatchWorkersLost,
                         "workers declared permanently dead"),
        registry.counter(obs::names::kDispatchDegradedTasks,
                         "tasks the manager ran in-process"),
        registry.counter(obs::names::kDispatchResumedTasks,
                         "shards resumed from their partial artifacts"),
        registry.counter(obs::names::kDispatchHeartbeats,
                         "heartbeat frames received from workers"),
        registry.histogram(obs::names::kDispatchTaskMs,
                           obs::latency_buckets_ms(),
                           "per-attempt wall time seen by the manager"),
        registry.histogram(obs::names::kDispatchConnectMs,
                           obs::latency_buckets_ms(),
                           "worker connect + hello handshake latency"),
    };
    return metrics;
  }
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class TaskState { kQueued, kAssigned, kDone, kQuarantined };

/// One shard task and its full lifecycle state.
struct Task {
  ingest::ShardSpec shard;
  std::vector<std::string> paths;  ///< pre-filtered to owned files

  TaskState state = TaskState::kQueued;
  std::size_t attempts = 0;  ///< assignments consumed (global counter)
  std::set<std::string> failed_workers;
  double eligible_at_ms = 0.0;  ///< backoff gate for re-queued tasks
  util::ExponentialBackoff backoff{50.0, 2.0, 2000.0};
  std::string last_error;

  // Terminal facts.
  std::string worker;
  std::string partial_path;
};

/// Why one task attempt on a live connection ended.
enum class AttemptResult {
  kDone,            ///< partial received, validated, persisted
  kRetryable,       ///< corrupt/unparseable frame: re-request, conn fine
  kTaskFailed,      ///< worker reported kTaskError, conn fine
  kFatalArtifact,   ///< schema-invalid partial: quarantine, conn fine
  kConnectionLost,  ///< death / hang / deadline: reassign, conn dead
};

/// The shared scheduler: task table + stats behind one mutex.
class Scheduler {
 public:
  Scheduler(const DispatchOptions& options, std::vector<Task> tasks)
      : options_(options), tasks_(std::move(tasks)) {
    for (const Task& task : tasks_) {
      if (task.state == TaskState::kQueued) ++open_;
    }
    if (options_.telemetry != nullptr) {
      // The hub's staleness horizon is the scheduler's hang detector: a
      // worker silent past the grace is both "hung" here and "stale" there.
      options_.telemetry->set_heartbeat_grace(
          options_.heartbeat_grace_seconds);
      options_.telemetry->set_shard_total(tasks_.size());
      for (const Task& task : tasks_) {
        // Resumed shards enter the board already done.
        push_board(task,
                   task.state == TaskState::kDone ? "done" : "queued",
                   task.worker);
      }
    }
  }

  enum class Claim { kTask, kFinished, kAbort };

  /// Blocks until a queued task is eligible (preferring tasks this worker
  /// has not already failed), all tasks are terminal, or the run aborts.
  Claim claim(const std::string& worker, std::size_t* out_index) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      if (aborted_ || externally_stopped()) {
        aborted_ = true;
        return Claim::kAbort;
      }
      if (open_ == 0) return Claim::kFinished;
      const double now = now_ms();
      std::size_t best = tasks_.size();
      bool best_fresh = false;
      double next_eligible = std::numeric_limits<double>::max();
      for (std::size_t i = 0; i < tasks_.size(); ++i) {
        const Task& task = tasks_[i];
        if (task.state != TaskState::kQueued) continue;
        if (task.eligible_at_ms > now) {
          next_eligible = std::min(next_eligible, task.eligible_at_ms);
          continue;
        }
        const bool fresh = task.failed_workers.count(worker) == 0;
        if (best == tasks_.size() || (fresh && !best_fresh)) {
          best = i;
          best_fresh = fresh;
        }
      }
      if (best < tasks_.size()) {
        Task& task = tasks_[best];
        task.state = TaskState::kAssigned;
        ++task.attempts;
        push_board(task, "assigned", worker);
        *out_index = best;
        return Claim::kTask;
      }
      // Nothing claimable right now: wait for a backoff to expire or for an
      // assigned task to come back. Short cap keeps stop_flag responsive.
      double wait = 100.0;
      if (next_eligible < std::numeric_limits<double>::max()) {
        wait = std::min(wait, std::max(1.0, next_eligible - now));
      }
      cv_.wait_for(lock, std::chrono::duration<double, std::milli>(wait));
    }
  }

  /// Records a finished task (worker partial or degraded local run).
  void task_done(std::size_t index, const std::string& worker,
                 const std::string& partial_path) {
    std::lock_guard<std::mutex> lock(mutex_);
    Task& task = tasks_[index];
    task.state = TaskState::kDone;
    task.worker = worker;
    task.partial_path = partial_path;
    --open_;
    ++stats_.tasks_done;
    DispatchMetrics::get().done.add();
    push_board(task, "done", worker);
    ++partials_received_;
    if (options_.abort_after_partials != 0 &&
        partials_received_ >= options_.abort_after_partials) {
      // Simulated manager crash for resume tests: stop scheduling abruptly.
      aborted_ = true;
    }
    cv_.notify_all();
  }

  /// A retryable reply (corrupt frame): back to the queue under backoff,
  /// connection still usable, no blame on the worker.
  void task_retry(std::size_t index, const std::string& error) {
    std::lock_guard<std::mutex> lock(mutex_);
    Task& task = tasks_[index];
    task.last_error = error;
    ++stats_.retries;
    DispatchMetrics::get().retries.add();
    requeue_or_quarantine(task);
    push_retry_board(task);
    cv_.notify_all();
  }

  /// The worker reported a task error on a live connection.
  void task_failed(std::size_t index, const std::string& worker,
                   const std::string& error) {
    std::lock_guard<std::mutex> lock(mutex_);
    Task& task = tasks_[index];
    task.last_error = error;
    task.failed_workers.insert(worker);
    ++stats_.retries;
    DispatchMetrics::get().retries.add();
    requeue_or_quarantine(task);
    push_retry_board(task);
    cv_.notify_all();
  }

  /// The worker died / hung / blew the deadline while holding the task.
  void task_orphaned(std::size_t index, const std::string& worker,
                     const std::string& error) {
    std::lock_guard<std::mutex> lock(mutex_);
    Task& task = tasks_[index];
    task.last_error = error;
    task.failed_workers.insert(worker);
    ++stats_.reassigned;
    DispatchMetrics::get().reassigned.add();
    requeue_or_quarantine(task);
    push_retry_board(task);
    cv_.notify_all();
  }

  /// A parsed-but-invalid partial: the artifact itself is corrupt, so no
  /// number of retries will help. Straight to quarantine.
  void task_fatal(std::size_t index, const std::string& error) {
    std::lock_guard<std::mutex> lock(mutex_);
    quarantine(tasks_[index], error);
    cv_.notify_all();
  }

  void note_worker_lost(const std::string& worker) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.workers_lost;
    DispatchMetrics::get().workers_lost.add();
    if (options_.telemetry != nullptr) {
      options_.telemetry->note_worker_state(worker, "lost");
    }
    MOSAIC_LOG_WARN("dispatch: worker %s declared lost", worker.c_str());
  }

  /// Marks a claimed task as actively running on `worker` (board only).
  void note_running(std::size_t index, const std::string& worker) {
    std::lock_guard<std::mutex> lock(mutex_);
    push_board(tasks_[index], "running", worker);
  }

  void note_degraded_done() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.degraded_tasks;
    DispatchMetrics::get().degraded.add();
  }

  void note_resumed(std::size_t count) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.resumed_tasks += count;
    DispatchMetrics::get().resumed.add(count);
  }

  /// Flips any task stranded in kAssigned (its worker thread is gone) back
  /// to kQueued so the degraded path can claim it. Worker threads re-queue
  /// on every failure path, so this is a belt-and-braces sweep.
  void requeue_stranded() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Task& task : tasks_) {
      if (task.state == TaskState::kAssigned) {
        task.state = TaskState::kQueued;
        task.eligible_at_ms = 0.0;
        push_board(task, "queued", "");
      }
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool aborted() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (externally_stopped()) aborted_ = true;
    return aborted_;
  }

  /// Indices of tasks still open (queued or orphaned-assigned), for the
  /// degraded path after every worker thread has exited.
  [[nodiscard]] std::vector<std::size_t> open_tasks() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].state == TaskState::kQueued ||
          tasks_[i].state == TaskState::kAssigned) {
        // A worker thread that exits re-queues its task first, but be
        // defensive: an assigned task with no live worker is open.
        open.push_back(i);
      }
    }
    return open;
  }

  [[nodiscard]] const Task& task(std::size_t index) const {
    return tasks_[index];
  }

  /// Builds a TaskRequest for the task's next attempt (attempt numbers are
  /// 0-based on the wire).
  [[nodiscard]] TaskRequest request_for(std::size_t index) {
    std::lock_guard<std::mutex> lock(mutex_);
    const Task& task = tasks_[index];
    TaskRequest request;
    request.shard = task.shard;
    request.attempt = task.attempts - 1;
    request.paths = task.paths;
    request.max_retries = options_.ingest_max_retries;
    request.file_deadline_seconds = options_.ingest_file_deadline_seconds;
    request.telemetry = options_.telemetry != nullptr;
    request.collect_spans = options_.collect_spans;
    return request;
  }

  [[nodiscard]] DispatchResult result() {
    std::lock_guard<std::mutex> lock(mutex_);
    DispatchResult out;
    out.stats = stats_;
    out.aborted = aborted_;
    for (const Task& task : tasks_) {
      TaskOutcome outcome;
      outcome.shard = task.shard.index;
      outcome.worker = task.worker;
      outcome.attempts = task.attempts;
      outcome.partial_path = task.partial_path;
      outcome.error = task.last_error;
      switch (task.state) {
        case TaskState::kDone:
          outcome.status = "done";
          out.partial_paths.push_back(task.partial_path);
          break;
        case TaskState::kQuarantined:
          outcome.status = "quarantined";
          break;
        default:
          outcome.status = "open";  // only after an abort
          break;
      }
      out.outcomes.push_back(std::move(outcome));
    }
    return out;
  }

 private:
  [[nodiscard]] bool externally_stopped() const {
    return options_.stop_flag != nullptr &&
           options_.stop_flag->load(std::memory_order_relaxed);
  }

  /// Re-queues a failed task under backoff, or quarantines it once it has
  /// exhausted its attempt budget across enough distinct workers. The
  /// distinct-worker requirement (capped by fleet size) keeps one flaky
  /// worker from condemning a healthy shard.
  void requeue_or_quarantine(Task& task) {
    const std::size_t distinct_needed =
        std::min<std::size_t>(2, std::max<std::size_t>(1,
                                                       options_.workers.size()));
    if (task.attempts >= options_.max_task_attempts &&
        task.failed_workers.size() >= distinct_needed) {
      quarantine(task, task.last_error);
      return;
    }
    task.state = TaskState::kQueued;
    task.eligible_at_ms = now_ms() + task.backoff.next_delay_ms();
  }

  /// Mirrors one task transition onto the telemetry hub's status board.
  /// Caller holds mutex_; the hub is independently synchronized.
  void push_board(const Task& task, std::string_view state,
                  const std::string& worker) {
    if (options_.telemetry == nullptr) return;
    options_.telemetry->note_task_state(task.shard.index, state, worker,
                                        task.attempts);
  }

  /// Board update after requeue_or_quarantine resolved a failure.
  void push_retry_board(const Task& task) {
    push_board(task,
               task.state == TaskState::kQuarantined ? "quarantined"
                                                     : "retrying",
               "");
  }

  void quarantine(Task& task, const std::string& error) {
    task.state = TaskState::kQuarantined;
    task.last_error = error;
    --open_;
    ++stats_.quarantined;
    DispatchMetrics::get().quarantined.add();
    push_board(task, "quarantined", "");
    MOSAIC_LOG_WARN("dispatch: quarantined shard %zu after %zu attempt(s): %s",
                    task.shard.index, task.attempts, error.c_str());
  }

  const DispatchOptions& options_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Task> tasks_;
  std::size_t open_ = 0;
  bool aborted_ = false;
  std::size_t partials_received_ = 0;
  DispatchStats stats_;
};

/// Connects to a worker and completes the hello handshake. On success the
/// handshake doubles as a clock-sync probe: the worker's hello reply carries
/// its span clock, and the midpoint of our send/recv timestamps estimates
/// what our clock read at that instant — assuming symmetric network delay,
/// `offset = worker_now - midpoint` maps worker span timestamps onto the
/// manager timeline (manager_ns = worker_ns - offset).
Expected<Connection> connect_and_handshake(const Address& address,
                                           double timeout_seconds,
                                           TelemetryHub* hub) {
  MOSAIC_SPAN("dispatch-connect");
  obs::ScopedTimerMs timer(DispatchMetrics::get().connect_ms);
  auto conn = connect_to(address, timeout_seconds);
  if (!conn.has_value()) return conn.error();
  const std::uint64_t t_send = obs::SpanTracer::now_ns();
  if (const auto status =
          write_frame(*conn, FrameType::kHello, hello_payload());
      !status.ok()) {
    return status.error();
  }
  auto reply = read_frame(*conn, timeout_seconds);
  const std::uint64_t t_recv = obs::SpanTracer::now_ns();
  if (!reply.has_value()) return reply.error();
  if (reply->type != FrameType::kHello) {
    return Error{ErrorCode::kParseError,
                 "worker " + address.to_string() + " answered the hello "
                 "with frame type " +
                     std::to_string(static_cast<int>(reply->type))};
  }
  if (const auto status = check_hello_payload(reply->payload); !status.ok()) {
    return status.error();
  }
  if (hub != nullptr) {
    if (const auto worker_now = hello_now_ns(reply->payload);
        worker_now.has_value()) {
      const std::int64_t offset =
          static_cast<std::int64_t>(*worker_now) -
          static_cast<std::int64_t>((t_send + t_recv) / 2);
      hub->note_clock_sync(address.to_string(), offset);
    }
  }
  return std::move(*conn);
}

/// Where shard `index`'s partial artifact lives.
std::string partial_path(const DispatchOptions& options, std::size_t index) {
  return (std::filesystem::path(options.out_dir) /
          ingest::partial_filename(index))
      .string();
}

/// Validates a received partial against the expected shard and persists it
/// atomically. Returns the artifact path.
Expected<std::string> accept_partial(const DispatchOptions& options,
                                     const ingest::ShardSpec& shard,
                                     const report::PartialArtifact& partial) {
  if (partial.shard_index != shard.index ||
      partial.shard_count != shard.count) {
    return Error{ErrorCode::kCorruptTrace,
                 "partial declares shard " +
                     std::to_string(partial.shard_index) + "/" +
                     std::to_string(partial.shard_count) + ", expected " +
                     std::to_string(shard.index) + "/" +
                     std::to_string(shard.count)};
  }
  const std::string path = partial_path(options, shard.index);
  // write_partial goes through util::write_file_atomic (temp + rename), so
  // a manager killed mid-write never leaves a torn artifact for --resume.
  if (const auto status = report::write_partial(partial, path); !status.ok()) {
    return status.error();
  }
  return path;
}

struct AttemptOutcome {
  AttemptResult result;
  std::string error;
  std::string partial_path;
};

/// Drives one task attempt over a live connection: send the task, consume
/// heartbeats (folding any piggybacked telemetry into the hub), and classify
/// however it ends.
AttemptOutcome run_attempt(const DispatchOptions& options, Connection& conn,
                           const std::string& worker,
                           const TaskRequest& request) {
  MOSAIC_SPAN("dispatch-attempt");
  if (const auto status = write_frame(conn, FrameType::kTask,
                                      task_request_to_payload(request));
      !status.ok()) {
    return {AttemptResult::kConnectionLost, status.error().to_string(), ""};
  }
  const double start = now_ms();
  double last_activity = start;
  const double grace_ms = options.heartbeat_grace_seconds * 1000.0;
  const double deadline_ms = options.task_deadline_seconds * 1000.0;
  // Poll in short slices so small grace/deadline values (tests) are honored.
  const double slice_s =
      std::clamp(options.heartbeat_grace_seconds / 4.0, 0.05, 0.25);

  while (true) {
    auto frame = read_frame(conn, slice_s);
    const double now = now_ms();
    if (!frame.has_value()) {
      switch (frame.error().code) {
        case ErrorCode::kTimeout:
          if (deadline_ms > 0.0 && now - start > deadline_ms) {
            return {AttemptResult::kConnectionLost,
                    "task deadline exceeded (" +
                        std::to_string(options.task_deadline_seconds) + "s)",
                    ""};
          }
          if (grace_ms > 0.0 && now - last_activity > grace_ms) {
            return {AttemptResult::kConnectionLost,
                    "worker silent past heartbeat grace (" +
                        std::to_string(options.heartbeat_grace_seconds) +
                        "s)",
                    ""};
          }
          continue;
        case ErrorCode::kParseError:
          // Corrupt frame, stream still aligned: retryable.
          return {AttemptResult::kRetryable, frame.error().to_string(), ""};
        default:
          return {AttemptResult::kConnectionLost, frame.error().to_string(),
                  ""};
      }
    }
    last_activity = now;
    switch (frame->type) {
      case FrameType::kHeartbeat:
        DispatchMetrics::get().heartbeats.add();
        if (options.telemetry != nullptr) {
          // Liveness was already credited above; a malformed telemetry
          // payload degrades inside the hub and never fails the attempt.
          options.telemetry->ingest_heartbeat(worker, frame->payload);
        }
        if (deadline_ms > 0.0 && now - start > deadline_ms) {
          // Alive but never finishing still violates the deadline contract.
          return {AttemptResult::kConnectionLost,
                  "task deadline exceeded (" +
                      std::to_string(options.task_deadline_seconds) + "s)",
                  ""};
        }
        continue;
      case FrameType::kTaskError:
        return {AttemptResult::kTaskFailed,
                task_error_from_payload(frame->payload).to_string(), ""};
      case FrameType::kPartial: {
        auto parsed = json::parse(frame->payload);
        if (!parsed.has_value()) {
          // Payload passed the checksum but is not JSON — treat like wire
          // corruption: retryable re-request.
          return {AttemptResult::kRetryable,
                  "partial payload is not JSON: " +
                      parsed.error().to_string(),
                  ""};
        }
        if (options.telemetry != nullptr) {
          // The telemetry rider is independent of partial validity: ingest
          // it even if the artifact below fails schema checks.
          options.telemetry->ingest_partial_telemetry(worker, *parsed);
        }
        auto partial = report::partial_from_json(*parsed);
        if (!partial.has_value()) {
          // Well-formed JSON that fails schema validation is a corrupt
          // artifact, not line noise; retrying cannot fix it.
          return {AttemptResult::kFatalArtifact,
                  partial.error().to_string(), ""};
        }
        auto path = accept_partial(options, request.shard, *partial);
        if (!path.has_value()) {
          if (path.error().code == ErrorCode::kCorruptTrace) {
            return {AttemptResult::kFatalArtifact, path.error().to_string(),
                    ""};
          }
          return {AttemptResult::kTaskFailed, path.error().to_string(), ""};
        }
        return {AttemptResult::kDone, "", *path};
      }
      default:
        MOSAIC_LOG_WARN("dispatch: unexpected frame type %d mid-task",
                        static_cast<int>(frame->type));
        continue;
    }
  }
}

/// One manager-side worker thread: owns the connection to one worker
/// address, claims tasks, classifies failures, reconnects with backoff, and
/// exits when the run is over or the worker is declared lost.
void run_worker_thread(const DispatchOptions& options, Scheduler& scheduler,
                       const Address& address) {
  const std::string name = address.to_string();
  util::ExponentialBackoff reconnect(options.retry_initial_delay_ms,
                                     kRetryMultiplier,
                                     options.retry_max_delay_ms);
  std::size_t connect_failures = 0;
  std::optional<Connection> conn;

  while (true) {
    if (!conn.has_value()) {
      if (scheduler.aborted()) return;
      auto connected = connect_and_handshake(
          address, options.connect_timeout_seconds, options.telemetry);
      if (!connected.has_value()) {
        ++connect_failures;
        if (connect_failures > options.reconnect_attempts) {
          scheduler.note_worker_lost(name);
          return;
        }
        MOSAIC_LOG_WARN("dispatch: connect to %s failed (%s), retrying",
                        name.c_str(),
                        connected.error().to_string().c_str());
        util::sleep_for_ms(reconnect.next_delay_ms());
        continue;
      }
      conn = std::move(*connected);
      connect_failures = 0;
      reconnect.reset();
      if (options.telemetry != nullptr) {
        options.telemetry->note_worker_state(name, "connected");
      }
    }

    std::size_t index = 0;
    const auto claim = scheduler.claim(name, &index);
    if (claim != Scheduler::Claim::kTask) {
      // Run over (finished or aborted): release the worker politely.
      (void)write_frame(*conn, FrameType::kShutdown, "");
      return;
    }

    const TaskRequest request = scheduler.request_for(index);
    scheduler.note_running(index, name);
    const double attempt_start = now_ms();
    AttemptOutcome outcome = run_attempt(options, *conn, name, request);
    DispatchMetrics::get().task_ms.observe(now_ms() - attempt_start);

    switch (outcome.result) {
      case AttemptResult::kDone:
        scheduler.task_done(index, name, outcome.partial_path);
        break;
      case AttemptResult::kRetryable:
        MOSAIC_LOG_WARN("dispatch: shard %zu retryable on %s: %s",
                        request.shard.index, name.c_str(),
                        outcome.error.c_str());
        scheduler.task_retry(index, outcome.error);
        break;
      case AttemptResult::kTaskFailed:
        MOSAIC_LOG_WARN("dispatch: shard %zu failed on %s: %s",
                        request.shard.index, name.c_str(),
                        outcome.error.c_str());
        scheduler.task_failed(index, name, outcome.error);
        break;
      case AttemptResult::kFatalArtifact:
        scheduler.task_fatal(index, outcome.error);
        break;
      case AttemptResult::kConnectionLost:
        MOSAIC_LOG_WARN("dispatch: shard %zu orphaned by %s: %s",
                        request.shard.index, name.c_str(),
                        outcome.error.c_str());
        scheduler.task_orphaned(index, name, outcome.error);
        conn->close();
        conn.reset();
        if (options.telemetry != nullptr) {
          options.telemetry->note_worker_state(name, "disconnected");
        }
        break;
    }
  }
}

}  // namespace

bool DispatchResult::complete() const noexcept {
  if (aborted) return false;
  if (outcomes.empty()) return false;
  return std::all_of(outcomes.begin(), outcomes.end(),
                     [](const TaskOutcome& o) { return o.status == "done"; });
}

Expected<DispatchResult> run_dispatch(const DispatchOptions& options) {
  MOSAIC_SPAN("dispatch-run");
  if (options.workers.empty() && !options.allow_degraded) {
    return Error{ErrorCode::kInvalidArgument,
                 "no workers given and degraded (in-process) execution is "
                 "disabled"};
  }
  if (options.out_dir.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "dispatch needs an output directory for partial artifacts"};
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    return Error{ErrorCode::kIoError, "cannot create output directory " +
                                          options.out_dir + ": " +
                                          ec.message()};
  }

  const std::size_t shard_count =
      options.shard_count != 0
          ? options.shard_count
          : std::max<std::size_t>(1, options.workers.size());

  // Expand directories and pre-partition the corpus: each task ships only
  // the files its shard owns, so wire size scales with the shard. The
  // worker's own ShardSpec filter re-checks ownership (a no-op here).
  auto files = darshan::expand_trace_paths(options.paths);
  if (!files.has_value()) return std::move(files).error();

  std::vector<Task> tasks(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    tasks[k].shard = ingest::ShardSpec{k, shard_count};
    tasks[k].backoff =
        util::ExponentialBackoff(options.retry_initial_delay_ms,
                                 kRetryMultiplier,
                                 options.retry_max_delay_ms);
  }
  // Each path moves to its task: the manager keeps one copy of the list.
  for (std::string& file : *files) {
    tasks[ingest::shard_of(file, shard_count)].paths.push_back(
        std::move(file));
  }
  *files = {};

  // Resume: accept_partial writes each artifact atomically before its shard
  // counts as done, so every artifact in out_dir that passes the keep rule
  // (shard K of this partition, folded over the paths this run hands shard
  // K) is a finished shard. Everything else — a missing, torn or foreign
  // file, another corpus's, or a shard quarantined last time — runs again.
  std::size_t resumed = 0;
  if (options.resume) {
    for (Task& task : tasks) {
      const std::string path = partial_path(options, task.shard.index);
      if (!report::keep_partial(path, task.shard,
                                report::shard_inputs(task.paths))) {
        continue;
      }
      task.state = TaskState::kDone;
      task.partial_path = path;
      ++resumed;
    }
  }

  Scheduler scheduler(options, std::move(tasks));
  scheduler.note_resumed(resumed);

  std::vector<std::thread> threads;
  threads.reserve(options.workers.size());
  for (const Address& address : options.workers) {
    threads.emplace_back([&options, &scheduler, &address] {
      run_worker_thread(options, scheduler, address);
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Graceful degradation: every worker thread has exited (fleet lost, or
  // there never was one) but shards remain. Run them in-process with the
  // same task runner the workers use — slow, but the run completes and the
  // artifacts are byte-identical.
  if (options.allow_degraded && !scheduler.aborted()) {
    scheduler.requeue_stranded();
    const std::size_t open = scheduler.open_tasks().size();
    if (open != 0) {
      MOSAIC_LOG_WARN(
          "dispatch: degraded mode — running %zu remaining shard(s) "
          "in-process", open);
      parallel::ThreadPool pool(options.degraded_threads);
      while (!scheduler.aborted()) {
        std::size_t claimed = 0;
        if (scheduler.claim("local", &claimed) != Scheduler::Claim::kTask) {
          break;
        }
        const TaskRequest request = scheduler.request_for(claimed);
        scheduler.note_running(claimed, "local");
        MOSAIC_SPAN("dispatch-degraded-task");
        const double start = now_ms();
        const report::PartialArtifact partial =
            report::run_shard(request.paths, request.ingest_options(), pool);
        DispatchMetrics::get().task_ms.observe(now_ms() - start);
        auto path = accept_partial(options, request.shard, partial);
        if (!path.has_value()) {
          scheduler.task_fatal(claimed, path.error().to_string());
          continue;
        }
        scheduler.task_done(claimed, "local", *path);
        scheduler.note_degraded_done();
      }
    }
  }

  return scheduler.result();
}

}  // namespace mosaic::dist

#include "dist/worker.hpp"

#include <mutex>
#include <thread>
#include <utility>

#include "dist/telemetry.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "report/partial.hpp"
#include "util/backoff.hpp"
#include "util/log.hpp"

namespace mosaic::dist {

using util::Error;
using util::ErrorCode;
using util::Status;

namespace {

struct WorkerMetrics {
  obs::Counter& sessions;
  obs::Counter& tasks;
  obs::Counter& task_errors;
  obs::Counter& heartbeats;
  obs::Histogram& task_ms;

  static WorkerMetrics& get() {
    static auto& registry = obs::Registry::global();
    static WorkerMetrics metrics{
        registry.counter(obs::names::kWorkerSessions,
                         "manager sessions served"),
        registry.counter(obs::names::kWorkerTasks,
                         "shard tasks completed and streamed back"),
        registry.counter(obs::names::kWorkerTaskErrors,
                         "task failures reported to the manager"),
        registry.counter(obs::names::kWorkerHeartbeats,
                         "heartbeat frames sent while tasks ran"),
        registry.histogram(obs::names::kWorkerTaskMs,
                           obs::latency_buckets_ms(),
                           "per-task wall time on the worker"),
    };
    return metrics;
  }
};

/// Sends kHeartbeat frames every interval until stopped. All writes to the
/// shared connection (heartbeats here, the result in the session thread) go
/// through one mutex so frames never interleave.
class HeartbeatPump {
 public:
  HeartbeatPump(Connection& conn, std::mutex& send_mutex,
                double interval_seconds, bool telemetry)
      : conn_(conn), send_mutex_(send_mutex),
        interval_seconds_(interval_seconds), telemetry_(telemetry) {
    thread_ = std::thread([this] { run(); });
  }

  ~HeartbeatPump() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  void run() {
    // Sleep in short slices so stop() returns promptly at task end.
    double since_beat_s = 0.0;
    while (!stop_.load(std::memory_order_relaxed)) {
      constexpr double kSliceS = 0.02;
      util::sleep_for_ms(kSliceS * 1000.0);
      since_beat_s += kSliceS;
      if (since_beat_s < interval_seconds_) continue;
      since_beat_s = 0.0;
      // Snapshot outside the lock; telemetry-enabled tasks piggyback the
      // whole registry on each beat (old managers ignore payloads).
      const std::string payload =
          telemetry_ ? heartbeat_telemetry_payload() : std::string();
      std::lock_guard<std::mutex> lock(send_mutex_);
      if (!write_frame(conn_, FrameType::kHeartbeat, payload).ok()) return;
      WorkerMetrics::get().heartbeats.add();
    }
  }

  Connection& conn_;
  std::mutex& send_mutex_;
  double interval_seconds_;
  bool telemetry_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

Worker::Worker(WorkerOptions options)
    : options_(std::move(options)), pool_(options_.threads) {}

Status Worker::bind() { return listener_.listen_on(options_.listen); }

Status Worker::serve() {
  if (!listener_.listening()) {
    if (const auto status = bind(); !status.ok()) return status;
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    // Short accept timeout so stop() is honored promptly.
    auto conn = listener_.accept_connection(0.25);
    if (!conn.has_value()) {
      if (conn.error().code == ErrorCode::kTimeout) continue;
      return conn.error();
    }
    ++stats_.sessions;
    WorkerMetrics::get().sessions.add();
    const bool keep_serving = handle_session(std::move(*conn));
    if (!keep_serving || options_.once) break;
  }
  return Status::success();
}

bool Worker::handle_session(Connection conn) {
  // Handshake: the manager speaks first.
  auto hello = read_frame(conn, 10.0);
  if (!hello.has_value() || hello->type != FrameType::kHello ||
      !check_hello_payload(hello->payload).ok()) {
    MOSAIC_LOG_WARN("worker: rejected session (bad hello)");
    return true;
  }
  if (!write_frame(conn, FrameType::kHello, hello_payload()).ok()) {
    return true;
  }

  while (!stop_.load(std::memory_order_relaxed)) {
    auto frame = read_frame(conn, 0.5);
    if (!frame.has_value()) {
      if (frame.error().code == ErrorCode::kTimeout) continue;  // idle
      if (frame.error().code == ErrorCode::kParseError) {
        // Corrupt inbound frame: the stream is still framed; drop it and
        // keep serving.
        MOSAIC_LOG_WARN("worker: %s", frame.error().to_string().c_str());
        continue;
      }
      return true;  // manager closed or connection broke: session over
    }
    switch (frame->type) {
      case FrameType::kShutdown:
        return true;
      case FrameType::kTask: {
        auto task = task_request_from_payload(frame->payload);
        if (!task.has_value()) {
          (void)write_frame(conn, FrameType::kTaskError,
                            task_error_to_payload(task.error()));
          ++stats_.task_errors;
          WorkerMetrics::get().task_errors.add();
          continue;
        }
        if (!handle_task(conn, *task)) return true;
        if (options_.fault.has_value() &&
            options_.fault->kill_after_tasks > 0 &&
            stats_.tasks_done >= options_.fault->kill_after_tasks) {
          // Simulated permanent death: stop listening entirely.
          stats_.killed_by_fault = true;
          MOSAIC_LOG_WARN("worker: fault injection kill_after=%zu tripped",
                          options_.fault->kill_after_tasks);
          return false;
        }
        continue;
      }
      default:
        MOSAIC_LOG_WARN("worker: unexpected frame type %d mid-session",
                        static_cast<int>(frame->type));
        continue;
    }
  }
  return true;
}

bool Worker::handle_task(Connection& conn, const TaskRequest& task) {
  // A span-collecting task turns the tracer on for the rest of the process
  // lifetime; rings are cumulative and shipped whole, so later tasks simply
  // ship a longer ring. Enabled before MOSAIC_SPAN so this task's own span
  // is captured too.
  if (task.collect_spans && !obs::SpanTracer::global().enabled()) {
    obs::SpanTracer::global().enable();
  }
  MOSAIC_SPAN("worker-task");
  MOSAIC_LOG_INFO("worker: task shard %zu/%zu attempt %zu (%zu path(s))",
                  task.shard.index, task.shard.count, task.attempt,
                  task.paths.size());
  const NetFaultSpec* fault =
      options_.fault.has_value() ? &*options_.fault : nullptr;

  // A stall fault silences the worker completely (no heartbeats) before the
  // task starts — indistinguishable from a hang, which is the point.
  if (fault != nullptr && fault->should_stall(task.shard.index,
                                              task.attempt)) {
    util::sleep_for_ms(fault->stall_ms);
  }

  std::mutex send_mutex;
  std::string reply_payload;
  {
    obs::ScopedTimerMs timer(WorkerMetrics::get().task_ms);
    HeartbeatPump pump(conn, send_mutex,
                       options_.heartbeat_interval_seconds, task.telemetry);
    const report::PartialArtifact partial =
        report::run_shard(task.paths, task.ingest_options(), pool_);
    pump.stop();
    json::Value partial_json = report::partial_to_json(partial);
    if (task.telemetry) {
      // Unknown top-level keys are ignored by partial_from_json, so this
      // rides along without a partial-format version bump.
      partial_json.as_object().set("telemetry",
                                   telemetry_wire_json(task.collect_spans));
    }
    reply_payload = json::serialize(partial_json);
  }

  if (fault != nullptr && fault->should_close(task.shard.index,
                                              task.attempt)) {
    // Simulated death mid-task: the manager sees the socket close and
    // reassigns the orphaned shard.
    MOSAIC_LOG_WARN("worker: fault injection closing connection on shard "
                    "%zu attempt %zu", task.shard.index, task.attempt);
    conn.close();
    return false;
  }
  const bool corrupt =
      fault != nullptr &&
      fault->should_corrupt(task.shard.index, task.attempt);

  std::lock_guard<std::mutex> lock(send_mutex);
  if (!write_frame(conn, FrameType::kPartial, reply_payload, corrupt).ok()) {
    return false;
  }
  ++stats_.tasks_done;
  WorkerMetrics::get().tasks.add();
  return true;
}

}  // namespace mosaic::dist

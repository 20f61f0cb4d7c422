// The worker half of distributed dispatch: a process that serves shard
// tasks over the socket protocol.
//
// A worker listens on one address, accepts one manager session at a time,
// and for every kTask frame runs the in-process shard fold
// (report::run_shard) and streams the resulting `mosaic-partial-v3` digest
// artifact back as a kPartial frame; the manager analyzes. While a task
// runs, a background thread emits kHeartbeat frames so the manager can tell
// "slow but alive" from "hung" — the worker-side half of the
// failure-detection contract.
//
// Workers are deliberately stateless between tasks: everything a task needs
// arrives in its request, and everything it produces leaves in its reply.
// Killing a worker at any instant therefore loses at most the task it was
// running — which the manager reassigns — never corpus state.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "dist/faults.hpp"
#include "dist/net.hpp"
#include "dist/protocol.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace mosaic::dist {

struct WorkerOptions {
  Address listen;               ///< port 0 binds an ephemeral port
  std::size_t threads = 0;      ///< shard-driver pool size (0 = hardware)
  double heartbeat_interval_seconds = 1.0;
  bool once = false;            ///< exit after one manager session
  /// Deterministic fault injection (tests / chaos drills).
  std::optional<NetFaultSpec> fault;
};

struct WorkerStats {
  std::size_t sessions = 0;      ///< manager sessions served
  std::size_t tasks_done = 0;    ///< partials streamed back
  std::size_t task_errors = 0;   ///< kTaskError frames sent
  bool killed_by_fault = false;  ///< kill_after_tasks tripped
};

class Worker {
 public:
  explicit Worker(WorkerOptions options);

  /// Binds the listen address. port() is valid afterwards (resolves an
  /// ephemeral bind, which tests use to avoid port races).
  [[nodiscard]] util::Status bind();
  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }

  /// Serves manager sessions until stop() (or `once`, or a kill_after
  /// fault). Calls bind() itself when not yet bound.
  [[nodiscard]] util::Status serve();

  /// Asks serve() to return at its next accept/idle check (thread-safe).
  void stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] const WorkerStats& stats() const noexcept { return stats_; }

 private:
  /// Handles one manager session; returns false when serve() should exit
  /// (kill_after tripped or stop requested).
  bool handle_session(Connection conn);

  /// Runs one task and streams the reply. Returns false when the connection
  /// is no longer usable.
  bool handle_task(Connection& conn, const TaskRequest& task);

  WorkerOptions options_;
  Listener listener_;
  parallel::ThreadPool pool_;
  std::atomic<bool> stop_{false};
  WorkerStats stats_;
};

}  // namespace mosaic::dist

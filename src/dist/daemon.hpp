// Always-on analysis service: `mosaic daemon` (DESIGN.md §17).
//
// The batch pipeline pays full ingest + categorization on every run even
// when the same traces come back; the daemon turns the same funnel into a
// long-running, incremental service. Traces arrive two ways — a poll-based
// scanner over one or more watch directories (reusing the ingest
// scan/classify front end) or kSubmit frames on an MDP1 socket — and every
// submission flows through one path: batch's per-file funnel step
// (ingest::load_file: load, validate, dedup digest), a result-cache lookup
// keyed by that digest, and only on a miss the analyzer (with provenance
// capture forced on; the cache keeps that evidence, and /explain serializes
// it on demand into the bytes of `mosaic explain --json`). Results are
// served as JSON over the shared embedded HTTP endpoint (obs/http.hpp):
// /results, /explain/<trace-id>, /report, plus the standard /metrics,
// /metrics.json and /healthz — all documented in docs/API.md.
//
// Draining: run() returns when the stop flag is raised (the CLI wires
// SIGINT/SIGTERM to it); in-flight submissions finish (a session that has
// gone quiet is closed within 5 s), the HTTP endpoint
// and submission listener are joined, and the caller's ObsSession flushes
// the provenance journal and metrics sinks as on every other exit path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/result_cache.hpp"
#include "core/pipeline.hpp"
#include "core/thresholds.hpp"
#include "dist/net.hpp"
#include "dist/protocol.hpp"
#include "ingest/ingest.hpp"
#include "obs/health.hpp"
#include "obs/http.hpp"
#include "util/error.hpp"

namespace mosaic::dist {

struct DaemonOptions {
  /// Directories polled for new trace files. Mutually exclusive with
  /// `listen` at the CLI layer; the library accepts any mix.
  std::vector<std::string> watch_dirs;

  /// MDP1 submission socket (kHello handshake, then kSubmit frames).
  std::optional<Address> listen;

  /// Embedded HTTP endpoint. Port 0 binds ephemerally; http_port() reports
  /// the resolved port.
  Address http{"127.0.0.1", 0};

  /// Seconds between watch-directory sweeps.
  double poll_interval_seconds = 0.5;

  /// Result-cache byte capacity (core::ResultCache).
  std::size_t cache_capacity_bytes = 64ull * 1024 * 1024;

  /// Spool directory for socket submissions (the trace bytes are written
  /// here, then ingested through the same on-disk path as watched files).
  /// Empty picks a per-process directory under the system temp dir.
  std::string spool_dir;

  core::Thresholds thresholds;

  /// Per-file ingest knobs (retries, deadline, fault injection).
  ingest::IngestOptions ingest;

  /// Bearer token required on every HTTP request; empty = open endpoint.
  std::string auth_token;

  /// Health rules evaluated for /healthz; empty = obs::default_health_rules.
  std::vector<obs::HealthRule> health_rules;

  /// Raised by the caller (signal handler) to stop run(). Must outlive the
  /// daemon. nullptr means run() only stops via request_stop().
  const std::atomic<bool>* stop = nullptr;
};

/// Lifetime totals, also exported as mosaic_daemon_* metrics.
struct DaemonStats {
  std::uint64_t submissions = 0;  ///< traces entering the funnel
  std::uint64_t analyzed = 0;     ///< cache misses that ran the pipeline
  std::uint64_t cache_hits = 0;
  std::uint64_t rejected = 0;     ///< load/validate failures
  std::uint64_t scans = 0;        ///< watch-directory sweeps
};

/// The service. start() binds endpoints, run() blocks until stopped.
class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the HTTP endpoint and (when configured) the submission listener.
  [[nodiscard]] util::Status start();

  [[nodiscard]] std::uint16_t http_port() const noexcept;
  /// 0 when no submission listener is configured.
  [[nodiscard]] std::uint16_t listen_port() const noexcept;

  /// Serves until the stop flag is raised, then drains and joins. The
  /// submission listener runs on its own thread; watch-directory sweeps run
  /// on the calling thread.
  void run();

  /// Programmatic stop (tests; the CLI uses DaemonOptions::stop).
  void request_stop() noexcept;

  [[nodiscard]] DaemonStats stats() const;

  /// One watch sweep over every watch directory (exposed for tests; run()
  /// calls it on each poll tick).
  void sweep_watch_dirs();

  /// Submits one on-disk trace through the funnel, as a watch sweep would.
  [[nodiscard]] util::Expected<SubmitReply> submit_path(
      const std::string& path);

 private:
  struct BoardEntry {
    std::string trace_id;
    std::string app_key;
    std::string source_path;
    std::string cache_key;
    std::uint64_t cache_hits = 0;
    core::TraceResult result;
  };

  void register_routes();
  void serve_submissions();
  void handle_submission_session(Connection conn);
  [[nodiscard]] SubmitReply process_file(const std::string& path);
  [[nodiscard]] bool stopped() const noexcept;

  [[nodiscard]] std::string results_json() const;
  [[nodiscard]] std::string report_markdown() const;
  /// /explain/<trace-id> body, serialized from the cached evidence outside
  /// the cache's lock: nullopt when the id is unknown or the evidence was
  /// evicted.
  [[nodiscard]] std::optional<std::string> explain_body(
      const std::string& trace_id) const;

  DaemonOptions options_;
  core::Analyzer analyzer_;
  core::ResultCache cache_;
  obs::HttpServer http_;

  mutable std::mutex board_mutex_;
  std::vector<BoardEntry> board_;                     ///< insertion order
  /// Cache key -> index into board_, so a submission finds its row without
  /// scanning every trace the daemon has seen.
  std::unordered_map<std::string, std::size_t> board_slots_;
  std::map<std::string, std::size_t> runs_per_app_;   ///< submission counts
  /// Watch-sweep ingestion gate. A file freshly scanned from a watch dir is
  /// NOT submitted on the sweep that first sees it: its (size, mtime)
  /// signature is recorded, and submission happens only once the signature
  /// is unchanged across two consecutive sweeps. A trace still being copied
  /// into the watch directory therefore never reaches the funnel
  /// half-written (it used to be ingested — and rejected as corrupt —
  /// mid-copy). `submitted` keeps a settled path from re-entering.
  struct WatchState {
    std::uintmax_t size = 0;
    std::int64_t mtime = 0;   ///< filesystem clock ticks, equality only
    bool submitted = false;
  };
  std::map<std::string, WatchState> seen_paths_;
  DaemonStats stats_;

  Listener submit_listener_;
  std::thread submit_thread_;
  std::atomic<bool> stop_{false};
};

/// Client side of kSubmit: connect, handshake, ship the file's bytes, wait
/// for the kSubmitResult. The daemon's per-trace outcome (including its
/// rejection errors) comes back as a SubmitReply with ok == false rather
/// than an Expected error, which is reserved for transport failures.
[[nodiscard]] util::Expected<SubmitReply> submit_trace_file(
    const Address& daemon, const std::string& path, double timeout_seconds);

}  // namespace mosaic::dist

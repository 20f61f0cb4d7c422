// Dispatch-side telemetry federation: the wire payloads that piggyback
// worker observability onto protocol frames, and the manager's TelemetryHub
// that turns them into a live fleet view.
//
// Shipping model (DESIGN.md §15–16): a worker running a telemetry-enabled
// task attaches `{"telemetry":{"snapshot":...,"health":...}}` — its whole
// metrics registry in the --metrics JSON shape (obs::metrics_to_json) plus
// its own health verdict — to every kHeartbeat frame, and the same member
// (plus the span ring when requested) to its kPartial reply. Snapshots are
// cumulative, so the manager keeps the latest one per worker and a lost
// heartbeat costs freshness, never correctness. Old workers send empty
// heartbeats and plain partials; both parse as "no telemetry" (nullopt), so
// mixed fleets keep dispatching. A rider that is present but malformed —
// including an older worker's array-shaped snapshot, whole or delta — is an
// Error the caller *degrades* on: the heartbeat still counts as liveness,
// the task keeps running, and mosaic_fleet_telemetry_parse_errors_total is
// bumped.
//
// The TelemetryHub is the manager's aggregation point: a FleetRegistry of
// worker snapshots/spans/clock offsets, a task+worker status board fed by
// the dispatch scheduler, an optional embedded HTTP endpoint (GET /metrics
// Prometheus text, GET /metrics.json, GET /status JSON lifecycle table)
// served off the dist/net poll loop, and an optional progress logger that
// prints fleet state every interval.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dist/net.hpp"
#include "json/json.hpp"
#include "obs/federation.hpp"
#include "obs/health.hpp"
#include "obs/http.hpp"
#include "util/error.hpp"

namespace mosaic::dist {

/// Telemetry attached to a kHeartbeat or kPartial frame.
struct TelemetryPayload {
  obs::Snapshot snapshot;
  std::vector<obs::FleetSpan> spans;  ///< empty on heartbeats
  /// Worker-evaluated health rollup ("ok" / "warn(...)" / "fail(...)");
  /// empty on frames from workers that predate health verdicts.
  std::string health;
};

/// Worker side: the `{"snapshot":...,"health":...[,"spans":[...]]}` wire
/// object — the whole process registry (obs::metrics_to_json), the worker's
/// own health verdict on it, and the span ring when `include_spans`.
[[nodiscard]] json::Value telemetry_wire_json(bool include_spans);

/// Worker side: a complete kHeartbeat payload (`{"telemetry":
/// telemetry_wire_json(false)}`), counting its serialized size into
/// mosaic_worker_telemetry_bytes_total.
[[nodiscard]] std::string heartbeat_telemetry_payload();

/// Manager side: the optional "telemetry" member of a parsed kHeartbeat or
/// kPartial payload.
///   nullopt  no rider (old worker) — plain liveness
///   Error    rider present but malformed — degrade, count, keep going
[[nodiscard]] util::Expected<std::optional<TelemetryPayload>>
telemetry_from_payload(const json::Value& payload);

/// One worker's row in the /status board.
struct WorkerBoardEntry {
  std::string worker;
  std::string state;  ///< "connected" | "disconnected" | "lost"
  std::size_t tasks_done = 0;
  std::int64_t clock_offset_ns = 0;
  bool clock_synced = false;
  std::string health;             ///< last piggybacked worker verdict
  std::uint64_t last_seen_ns = 0; ///< manager clock; 0 = never heard from
  bool stale = false;             ///< computed at view time, mirrored here
};

/// One shard's row in the /status board.
struct ShardBoardEntry {
  std::size_t shard = 0;
  std::string state;  ///< queued|assigned|running|retrying|done|quarantined
  std::string worker;
  std::size_t attempts = 0;
};

/// Manager-side fleet aggregation: snapshots + spans + clock offsets per
/// worker, a task/worker status board, an embedded HTTP endpoint and a
/// progress logger. All entry points are thread-safe (the dispatch worker
/// threads, the HTTP thread and the progress thread all poke it).
class TelemetryHub {
 public:
  TelemetryHub() = default;
  ~TelemetryHub();

  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  // --- ingestion (dispatch worker threads) ------------------------------
  /// Records the handshake clock-offset estimate for `worker`:
  /// manager_ns = worker_ns - offset_ns.
  void note_clock_sync(const std::string& worker, std::int64_t offset_ns);

  /// Folds one kHeartbeat payload in (empty = a plain heartbeat).
  /// Malformed telemetry degrades: the parse-error counter is bumped and
  /// the frame counts as liveness only.
  void ingest_heartbeat(const std::string& worker, std::string_view payload);

  /// Folds the telemetry member of a parsed kPartial payload in (same
  /// degradation rule).
  void ingest_partial_telemetry(const std::string& worker,
                                const json::Value& partial_payload);

  // --- status board (dispatch scheduler) --------------------------------
  void set_shard_total(std::size_t total);
  void note_task_state(std::size_t shard, std::string_view state,
                       const std::string& worker, std::size_t attempts);
  void note_worker_state(const std::string& worker, std::string_view state);

  // --- configuration ----------------------------------------------------
  /// Staleness horizon: a non-connected worker silent for longer than this
  /// (or one declared "lost") is tagged stale in /status and the fleet
  /// snapshot. <= 0 disables silence-based staleness ("lost" still tags).
  void set_heartbeat_grace(double seconds);

  /// Requires `Authorization: Bearer <token>` on every HTTP request
  /// (constant-time compare; 401 otherwise). Empty = open endpoint.
  void set_auth_token(std::string token);

  /// Replaces the fleet health rule set (defaults to
  /// obs::default_fleet_health_rules()).
  void set_health_rules(std::vector<obs::HealthRule> rules);

  // --- views ------------------------------------------------------------
  /// Fleet-wide merged snapshot: the manager's own registry (source
  /// "manager") plus every worker, per-source labeled + totals. Series of
  /// stale workers carry an extra `stale="true"` label and the
  /// mosaic_fleet_workers_stale gauge counts them.
  [[nodiscard]] obs::Snapshot fleet_snapshot() const;

  /// Fleet health: the rule set evaluated on fleet_snapshot(), folded with
  /// every worker's last piggybacked verdict (worst wins).
  [[nodiscard]] obs::HealthReport fleet_health() const;

  /// /healthz body: fleet verdict + per-worker rollups.
  [[nodiscard]] std::string healthz_json_text() const;
  [[nodiscard]] std::string prometheus_text() const;
  [[nodiscard]] std::string metrics_json_text() const;
  [[nodiscard]] std::string status_json_text() const;
  [[nodiscard]] std::string progress_line() const;

  /// Writes the fleet snapshot to `path` (JSON) + `path + ".prom"`.
  [[nodiscard]] util::Status write_fleet_metrics(const std::string& path);

  /// Writes the merged Chrome trace (manager lane + one named lane per
  /// worker, clock-aligned) to `path`.
  [[nodiscard]] util::Status write_fleet_trace(const std::string& path);

  // --- embedded HTTP endpoint -------------------------------------------
  /// Binds and serves GET /metrics, /metrics.json, /status, /healthz and
  /// /profile (obs::HttpServer routes) on a background thread until stop().
  /// Port 0 binds ephemerally; endpoint_port() reports the resolved port.
  [[nodiscard]] util::Status start_endpoint(const Address& address);
  [[nodiscard]] std::uint16_t endpoint_port() const noexcept {
    return http_.port();
  }

  // --- progress logger --------------------------------------------------
  /// Logs progress_line() every `interval_seconds` (<= 0 starts nothing).
  void start_progress(double interval_seconds);

  /// Joins the HTTP and progress threads (idempotent; destructor calls it).
  void stop();

 private:
  void run_progress(double interval_seconds);
  void register_routes();
  /// The body both ingest entry points share; `frame` names the carrier
  /// in the degradation warning.
  void ingest(const std::string& worker, const char* frame,
              util::Expected<std::optional<TelemetryPayload>> telemetry);
  void apply_telemetry(const std::string& worker, TelemetryPayload payload);
  void note_worker_seen(const std::string& worker, std::string_view health);

  /// Refreshes every entry's `stale` flag against `now` and returns the
  /// names of the stale workers. Caller holds board_mutex_.
  [[nodiscard]] std::vector<std::string> refresh_staleness_locked(
      std::uint64_t now_ns) const;

  // Mutable: const views (fleet_snapshot and friends) refresh the manager's
  // own lane at scrape time. FleetRegistry is internally synchronized.
  mutable obs::FleetRegistry registry_;

  mutable std::mutex board_mutex_;
  std::size_t shard_total_ = 0;
  std::map<std::size_t, ShardBoardEntry> shards_;
  mutable std::map<std::string, WorkerBoardEntry> workers_;
  double heartbeat_grace_seconds_ = 0.0;
  std::vector<obs::HealthRule> health_rules_;

  obs::HttpServer http_;
  std::atomic<bool> stop_{false};
  std::thread progress_thread_;
};

}  // namespace mosaic::dist

#include "dist/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "json/reader.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "util/backoff.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"

namespace mosaic::dist {

using json::Array;
using json::Object;
using json::Value;
using util::Expected;
using util::Status;

namespace {

struct FleetMetrics {
  obs::Gauge& workers;
  obs::Counter& snapshots;
  obs::Counter& spans;
  obs::Counter& parse_errors;
  obs::Gauge& stale_workers;
  obs::Counter& unauthorized;

  static FleetMetrics& get() {
    static auto& registry = obs::Registry::global();
    static FleetMetrics metrics{
        registry.gauge(obs::names::kFleetWorkers,
                       "workers currently connected to the manager"),
        registry.counter(obs::names::kFleetSnapshots,
                         "worker telemetry snapshots ingested"),
        registry.counter(obs::names::kFleetSpans,
                         "worker spans ingested into the fleet trace"),
        registry.counter(obs::names::kFleetTelemetryParseErrors,
                         "malformed telemetry payloads degraded to plain "
                         "heartbeats"),
        registry.gauge(obs::names::kFleetWorkersStale,
                       "workers whose fleet series are stale (heartbeat "
                       "grace expired or worker lost)"),
        registry.counter(obs::names::kFleetEndpointUnauthorized,
                         "HTTP requests rejected for a missing or wrong "
                         "bearer token"),
    };
    return metrics;
  }
};

}  // namespace

json::Value telemetry_wire_json(bool include_spans) {
  Object out;
  std::vector<obs::SpanEvent> spans;
  if (include_spans) {
    spans = obs::SpanTracer::global().collect();
    obs::Registry::global()
        .counter(obs::names::kWorkerSpansShipped,
                 "spans shipped to the manager with partial replies")
        .add(spans.size());
  }
  // Counter bumps land *before* the snapshot is taken so the shipped
  // snapshot accounts for its own export.
  obs::Registry::global()
      .counter(obs::names::kWorkerTelemetrySnapshots,
               "metric snapshots shipped to the manager")
      .add();
  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  // The worker's own verdict rides on every frame; its registry updates
  // (level gauge, evaluation counter) land after the snapshot was taken,
  // so they simply ship with the next frame.
  const obs::HealthReport health =
      obs::evaluate_health(snapshot, obs::default_health_rules());
  out.set("snapshot", obs::metrics_to_json(snapshot));
  out.set("health", obs::health_summary(health));
  if (include_spans) out.set("spans", obs::spans_to_wire_json(spans));
  return Value(std::move(out));
}

std::string heartbeat_telemetry_payload() {
  Object out;
  out.set("telemetry", telemetry_wire_json(/*include_spans=*/false));
  std::string payload = json::serialize(Value(std::move(out)),
                                        /*pretty=*/false);
  obs::Registry::global()
      .counter(obs::names::kWorkerTelemetryBytes,
               "serialized telemetry payload bytes shipped on heartbeats")
      .add(payload.size());
  return payload;
}

Expected<std::optional<TelemetryPayload>> telemetry_from_payload(
    const json::Value& payload) {
  const json::Reader frame(payload, "telemetry");
  if (frame.ok() && !frame.has("telemetry")) {
    return std::optional<TelemetryPayload>();
  }
  const json::Reader rider = frame.object("telemetry");
  TelemetryPayload out;
  out.snapshot = obs::snapshot_from_metrics_json(rider.object("snapshot"));
  out.spans = obs::spans_from_wire_json(
      rider.array("spans", json::Presence::kOptional));
  out.health = rider.string("health", "");
  if (!frame.ok()) return frame.error();
  return std::optional<TelemetryPayload>(std::move(out));
}

TelemetryHub::~TelemetryHub() { stop(); }

void TelemetryHub::note_clock_sync(const std::string& worker,
                                   std::int64_t offset_ns) {
  registry_.set_clock_offset_ns(worker, offset_ns);
  // Labeled {peer=...}, not {worker=...}: the fleet merge prepends a
  // worker label to every manager series, and a second label with the same
  // key would make the merged series name invalid.
  obs::Registry::global()
      .gauge(obs::labeled(obs::names::kFleetClockOffsetNs, "peer", worker),
             "estimated span-clock offset of this peer (ns)")
      .set(offset_ns);
  const std::scoped_lock lock(board_mutex_);
  WorkerBoardEntry& entry = workers_[worker];
  entry.worker = worker;
  entry.clock_offset_ns = offset_ns;
  entry.clock_synced = true;
}

void TelemetryHub::apply_telemetry(const std::string& worker,
                                   TelemetryPayload payload) {
  FleetMetrics::get().snapshots.add();
  if (!payload.spans.empty()) {
    FleetMetrics::get().spans.add(payload.spans.size());
    registry_.update_spans(worker, std::move(payload.spans));
  }
  registry_.update_snapshot(worker, std::move(payload.snapshot));
}

void TelemetryHub::note_worker_seen(const std::string& worker,
                                    std::string_view health) {
  const std::scoped_lock lock(board_mutex_);
  WorkerBoardEntry& entry = workers_[worker];
  entry.worker = worker;
  entry.last_seen_ns = obs::SpanTracer::now_ns();
  if (!health.empty()) entry.health = std::string(health);
}

void TelemetryHub::ingest_heartbeat(const std::string& worker,
                                    std::string_view payload) {
  // An empty payload is an older worker's plain heartbeat.
  const auto parsed = json::parse(payload.empty() ? "{}" : payload);
  if (!parsed.has_value()) return ingest(worker, "heartbeat", parsed.error());
  ingest(worker, "heartbeat", telemetry_from_payload(*parsed));
}

void TelemetryHub::ingest_partial_telemetry(
    const std::string& worker, const json::Value& partial_payload) {
  ingest(worker, "partial", telemetry_from_payload(partial_payload));
}

void TelemetryHub::ingest(
    const std::string& worker, const char* frame,
    Expected<std::optional<TelemetryPayload>> telemetry) {
  // Any frame — even one whose telemetry is malformed — is liveness.
  note_worker_seen(worker, {});
  if (!telemetry.has_value()) {
    // Malformed telemetry degrades to a plain frame: the liveness signal
    // already counted, the task keeps running.
    FleetMetrics::get().parse_errors.add();
    MOSAIC_LOG_WARN("dispatch: %s %s telemetry dropped: %s", worker.c_str(),
                    frame, telemetry.error().to_string().c_str());
    return;
  }
  if (!telemetry->has_value()) return;  // no rider (old worker)
  if (!(*telemetry)->health.empty()) {
    note_worker_seen(worker, (*telemetry)->health);
  }
  apply_telemetry(worker, std::move(**telemetry));
}

void TelemetryHub::set_shard_total(std::size_t total) {
  const std::scoped_lock lock(board_mutex_);
  shard_total_ = total;
}

void TelemetryHub::note_task_state(std::size_t shard, std::string_view state,
                                   const std::string& worker,
                                   std::size_t attempts) {
  const std::scoped_lock lock(board_mutex_);
  ShardBoardEntry& entry = shards_[shard];
  entry.shard = shard;
  entry.state = std::string(state);
  entry.worker = worker;
  entry.attempts = attempts;
  if (state == "done") {
    const auto it = workers_.find(worker);
    if (it != workers_.end()) ++it->second.tasks_done;
  }
}

void TelemetryHub::note_worker_state(const std::string& worker,
                                     std::string_view state) {
  std::size_t connected = 0;
  {
    const std::scoped_lock lock(board_mutex_);
    WorkerBoardEntry& entry = workers_[worker];
    entry.worker = worker;
    entry.state = std::string(state);
    if (state == "connected") entry.last_seen_ns = obs::SpanTracer::now_ns();
    for (const auto& [name, board] : workers_) {
      if (board.state == "connected") ++connected;
    }
  }
  FleetMetrics::get().workers.set(static_cast<std::int64_t>(connected));
}

void TelemetryHub::set_heartbeat_grace(double seconds) {
  const std::scoped_lock lock(board_mutex_);
  heartbeat_grace_seconds_ = seconds;
}

void TelemetryHub::set_auth_token(std::string token) {
  http_.set_auth_token(std::move(token));
}

void TelemetryHub::set_health_rules(std::vector<obs::HealthRule> rules) {
  const std::scoped_lock lock(board_mutex_);
  health_rules_ = std::move(rules);
}

std::vector<std::string> TelemetryHub::refresh_staleness_locked(
    std::uint64_t now_ns) const {
  std::vector<std::string> stale;
  const double grace_s = heartbeat_grace_seconds_;
  for (auto& [name, entry] : workers_) {
    // "lost" is a declaration of death — stale immediately. Anything else
    // that is not currently connected goes stale once it has been silent
    // past the heartbeat grace; a connected-but-idle worker never does
    // (idle workers legitimately send nothing between tasks).
    bool is_stale = entry.state == "lost";
    if (!is_stale && grace_s > 0.0 && entry.state != "connected" &&
        entry.last_seen_ns > 0 && now_ns > entry.last_seen_ns) {
      const double silent_s =
          static_cast<double>(now_ns - entry.last_seen_ns) * 1e-9;
      is_stale = silent_s > grace_s;
    }
    entry.stale = is_stale;
    if (is_stale) stale.push_back(name);
  }
  return stale;
}

namespace {

/// Inserts `,stale="true"` after the leading worker label of a fleet
/// series belonging to a stale worker: m{worker="X"} -> m{worker="X",
/// stale="true"}. Series without a worker label (fleet totals) pass
/// through untouched.
void tag_stale_series(std::string& name,
                      const std::vector<std::string>& stale) {
  constexpr std::string_view kPrefix = "worker=\"";
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) return;
  if (name.compare(brace + 1, kPrefix.size(), kPrefix) != 0) return;
  const std::size_t value_begin = brace + 1 + kPrefix.size();
  const std::size_t value_end = name.find('"', value_begin);
  if (value_end == std::string::npos) return;
  const std::string_view worker =
      std::string_view(name).substr(value_begin, value_end - value_begin);
  for (const std::string& candidate : stale) {
    if (worker == candidate) {
      name.insert(value_end + 1, ",stale=\"true\"");
      return;
    }
  }
}

}  // namespace

obs::Snapshot TelemetryHub::fleet_snapshot() const {
  std::vector<std::string> stale;
  {
    const std::scoped_lock lock(board_mutex_);
    stale = refresh_staleness_locked(obs::SpanTracer::now_ns());
  }
  // Gauge first so the manager's own snapshot (taken next) carries it —
  // the fleet health rule set resolves it from the merged view.
  FleetMetrics::get().stale_workers.set(
      static_cast<std::int64_t>(stale.size()));
  // The manager is just another source; refresh its lane at scrape time so
  // /metrics is live mid-run.
  registry_.update_snapshot("manager", obs::Registry::global().snapshot());
  obs::Snapshot merged = registry_.merged();
  if (!stale.empty()) {
    // A stale worker's last-known values keep being reported (they are
    // cumulative facts), but every one of its series is tagged so a
    // dashboard cannot mistake them for live data.
    for (auto& sample : merged.counters) tag_stale_series(sample.name, stale);
    for (auto& sample : merged.gauges) tag_stale_series(sample.name, stale);
    for (auto& sample : merged.histograms) {
      tag_stale_series(sample.name, stale);
    }
    const auto by_name = [](const auto& a, const auto& b) {
      return a.name < b.name;
    };
    std::sort(merged.counters.begin(), merged.counters.end(), by_name);
    std::sort(merged.gauges.begin(), merged.gauges.end(), by_name);
    std::sort(merged.histograms.begin(), merged.histograms.end(), by_name);
  }
  return merged;
}

obs::HealthReport TelemetryHub::fleet_health() const {
  std::vector<obs::HealthRule> rules;
  {
    const std::scoped_lock lock(board_mutex_);
    rules = health_rules_;
  }
  if (rules.empty()) rules = obs::default_fleet_health_rules();
  obs::HealthReport report = evaluate_health(fleet_snapshot(), rules);
  // Fold in each worker's own verdict: worker-side rules see per-process
  // detail (quarantine growth, pool saturation) that fleet counters blur.
  // Each non-ok worker contributes a named check so the summary says *which*
  // worker raised the rollup, not just that something did.
  const std::scoped_lock lock(board_mutex_);
  for (const auto& [name, entry] : workers_) {
    if (entry.health.empty()) continue;
    const std::string_view level_name =
        std::string_view(entry.health)
            .substr(0, std::string_view(entry.health).find('('));
    const auto level = obs::health_level_from_name(level_name);
    if (!level.has_value() || *level == obs::HealthLevel::kOk) continue;
    obs::HealthCheck check;
    check.rule = "worker:" + name;
    check.metric = entry.health;  // the worker's own summary, verbatim
    check.value = static_cast<double>(*level);
    check.level = *level;
    report.level = obs::worse(report.level, *level);
    report.checks.push_back(std::move(check));
  }
  return report;
}

std::string TelemetryHub::healthz_json_text() const {
  const obs::HealthReport report = fleet_health();
  json::Value body = obs::health_to_json(report);
  Array workers;
  {
    const std::scoped_lock lock(board_mutex_);
    for (const auto& [name, entry] : workers_) {
      Object worker;
      worker.set("worker", entry.worker);
      worker.set("state", entry.state);
      worker.set("stale", entry.stale);
      worker.set("health", entry.health);
      workers.push_back(std::move(worker));
    }
  }
  body.as_object().set("summary", obs::health_summary(report));
  body.as_object().set("workers", std::move(workers));
  return json::serialize(body);
}

std::string TelemetryHub::prometheus_text() const {
  return obs::metrics_to_prometheus(fleet_snapshot());
}

std::string TelemetryHub::metrics_json_text() const {
  return json::serialize(obs::metrics_to_json(fleet_snapshot()));
}

std::string TelemetryHub::status_json_text() const {
  Object out;
  std::map<std::string, std::size_t> counts{
      {"queued", 0},     {"assigned", 0}, {"running", 0},
      {"retrying", 0},   {"done", 0},     {"quarantined", 0}};
  Array shards;
  Array workers;
  {
    const std::scoped_lock lock(board_mutex_);
    out.set("shards_total", shard_total_);
    for (const auto& [index, entry] : shards_) {
      ++counts[entry.state];
      Object shard;
      shard.set("shard", entry.shard);
      shard.set("state", entry.state);
      shard.set("worker", entry.worker);
      shard.set("attempts", entry.attempts);
      shards.push_back(std::move(shard));
    }
    (void)refresh_staleness_locked(obs::SpanTracer::now_ns());
    for (const auto& [name, entry] : workers_) {
      Object worker;
      worker.set("worker", entry.worker);
      worker.set("state", entry.state);
      worker.set("tasks_done", entry.tasks_done);
      worker.set("clock_synced", entry.clock_synced);
      worker.set("clock_offset_ns", entry.clock_offset_ns);
      worker.set("health", entry.health);
      worker.set("stale", entry.stale);
      worker.set("last_seen_ns", entry.last_seen_ns);
      workers.push_back(std::move(worker));
    }
  }
  Object count_obj;
  for (const auto& [state, count] : counts) count_obj.set(state, count);
  out.set("counts", std::move(count_obj));
  out.set("shards", std::move(shards));
  out.set("workers", std::move(workers));
  return json::serialize(Value(std::move(out)));
}

std::string TelemetryHub::progress_line() const {
  // fleet_health() takes board_mutex_ internally (via fleet_snapshot and
  // the verdict fold) — compute it before our own lock.
  const std::string health = obs::health_summary(fleet_health());
  std::map<std::string, std::size_t> counts;
  std::size_t total = 0;
  std::string worker_states;
  {
    const std::scoped_lock lock(board_mutex_);
    total = shard_total_;
    for (const auto& [index, entry] : shards_) ++counts[entry.state];
    for (const auto& [name, entry] : workers_) {
      if (!worker_states.empty()) worker_states += ", ";
      worker_states += entry.worker;
      worker_states += ' ';
      worker_states += entry.state.empty() ? "unknown" : entry.state;
      if (entry.stale) worker_states += " STALE";
      worker_states += " (";
      worker_states += std::to_string(entry.tasks_done);
      worker_states += " done";
      if (!entry.health.empty()) {
        worker_states += ", ";
        worker_states += entry.health;
      }
      worker_states += ')';
    }
  }
  if (worker_states.empty()) worker_states = "none yet";
  std::string line = "dispatch progress: shards " +
                     std::to_string(counts["done"]) + "/" +
                     std::to_string(total) + " done (" +
                     std::to_string(counts["assigned"] + counts["running"]) +
                     " running, " + std::to_string(counts["queued"]) +
                     " queued, " + std::to_string(counts["retrying"]) +
                     " retrying, " + std::to_string(counts["quarantined"]) +
                     " quarantined); health: " + health +
                     "; workers: " + worker_states;
  return line;
}

Status TelemetryHub::write_fleet_metrics(const std::string& path) {
  const obs::Snapshot snapshot = fleet_snapshot();
  if (const auto status = util::write_file_atomic(
          path, json::serialize(obs::metrics_to_json(snapshot)) + "\n");
      !status.ok()) {
    return status;
  }
  return util::write_file_atomic(path + ".prom",
                                 obs::metrics_to_prometheus(snapshot));
}

Status TelemetryHub::write_fleet_trace(const std::string& path) {
  // Pull the manager's own spans in as lane "manager" (offset 0 by
  // definition: its clock is the reference timeline).
  const std::vector<obs::SpanEvent> events =
      obs::SpanTracer::global().collect();
  std::vector<obs::FleetSpan> spans;
  spans.reserve(events.size());
  for (const obs::SpanEvent& event : events) {
    spans.push_back({event.name, event.start_ns, event.end_ns, event.tid});
  }
  registry_.update_spans("manager", std::move(spans));
  return registry_.write_chrome_trace(path);
}

Status TelemetryHub::start_endpoint(const Address& address) {
  register_routes();
  return http_.start(address);
}

void TelemetryHub::register_routes() {
  // The legacy fleet-scoped rejection counter rides on the shared server's
  // 401 path (which also bumps mosaic_http_unauthorized_total).
  http_.set_unauthorized_hook([] { FleetMetrics::get().unauthorized.add(); });
  http_.handle("/metrics", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain; version=0.0.4",
                             prometheus_text(), {}};
  });
  http_.handle("/metrics.json", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "application/json", metrics_json_text(),
                             {}};
  });
  http_.handle("/status", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "application/json", status_json_text(), {}};
  });
  http_.handle("/healthz", [this](const obs::HttpRequest&) {
    // 503 on fail makes the endpoint usable as a load-balancer /
    // orchestrator probe without parsing the body. Any check at fail forces
    // the rollup to fail, so matching the rollup key is exact, not
    // heuristic.
    std::string body = healthz_json_text();
    const bool failing =
        body.find("\"status\": \"fail\"") != std::string::npos;
    return obs::HttpResponse{failing ? 503 : 200, "application/json",
                             std::move(body), {}};
  });
}

void TelemetryHub::start_progress(double interval_seconds) {
  if (interval_seconds <= 0.0) return;
  progress_thread_ =
      std::thread([this, interval_seconds] { run_progress(interval_seconds); });
}

void TelemetryHub::stop() {
  stop_.store(true, std::memory_order_relaxed);
  http_.stop();
  if (progress_thread_.joinable()) progress_thread_.join();
}

void TelemetryHub::run_progress(double interval_seconds) {
  // Sleep in short slices so stop() returns promptly.
  double since_tick_s = 0.0;
  while (!stop_.load(std::memory_order_relaxed)) {
    constexpr double kSliceS = 0.05;
    util::sleep_for_ms(kSliceS * 1000.0);
    since_tick_s += kSliceS;
    if (since_tick_s < interval_seconds) continue;
    since_tick_s = 0.0;
    MOSAIC_LOG_INFO("%s", progress_line().c_str());
  }
  MOSAIC_LOG_INFO("%s", progress_line().c_str());
}

}  // namespace mosaic::dist

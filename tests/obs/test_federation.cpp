// Tests for telemetry federation: the span wire codec, the fleet
// merge semantics (counters sum, gauges stay per-worker, histograms add
// bucket-wise with bound-mismatch rejection), merge determinism, the merged
// Chrome trace lanes, and the manager-side payload classification that
// degrades malformed telemetry instead of failing the task.
#include "obs/federation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/net.hpp"
#include "dist/protocol.hpp"
#include "dist/telemetry.hpp"
#include "json/json.hpp"
#include "json/reader.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace mosaic::obs {
namespace {

CounterSample counter(std::string name, std::uint64_t value) {
  return {std::move(name), "", value};
}

GaugeSample gauge(std::string name, std::int64_t value) {
  return {std::move(name), "", value};
}

HistogramSample histogram(std::string name, std::vector<double> bounds,
                          std::vector<std::uint64_t> buckets, double sum) {
  HistogramSample sample;
  sample.name = std::move(name);
  sample.bounds = std::move(bounds);
  sample.buckets = std::move(buckets);
  for (const std::uint64_t bucket : sample.buckets) sample.count += bucket;
  sample.sum = sum;
  return sample;
}

const CounterSample* find_counter(const Snapshot& snapshot,
                                  std::string_view name) {
  for (const CounterSample& sample : snapshot.counters) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

const HistogramSample* find_histogram(const Snapshot& snapshot,
                                      std::string_view name) {
  for (const HistogramSample& sample : snapshot.histograms) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

TEST(FederationWire, SpansRoundTripThroughWireJson) {
  std::vector<SpanEvent> events;
  events.push_back({"parse", 100, 250, 1});
  events.push_back({"merge", 300, 900, 2});
  json::Object rider;
  rider.set("spans", spans_to_wire_json(events));
  const json::Value wire(std::move(rider));
  const json::Reader reader(wire, "spans");
  const std::vector<FleetSpan> decoded =
      spans_from_wire_json(reader.array("spans"));
  ASSERT_TRUE(reader.ok()) << reader.error().to_string();
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].name, "parse");
  EXPECT_EQ(decoded[0].start_ns, 100u);
  EXPECT_EQ(decoded[0].end_ns, 250u);
  EXPECT_EQ(decoded[1].tid, 2u);
}

TEST(FederationLabel, WorkerLabelGoesFirstAndEscapes) {
  EXPECT_EQ(with_worker_label("a_total", "h:1"), "a_total{worker=\"h:1\"}");
  // Already-labeled series get worker prepended so stripping
  // `worker="...",` recovers the bare name.
  EXPECT_EQ(with_worker_label("a_total{code=\"x\"}", "h:1"),
            "a_total{worker=\"h:1\",code=\"x\"}");
  EXPECT_EQ(with_worker_label("a_total", "q\"\\"),
            "a_total{worker=\"q\\\"\\\\\"}");
}

TEST(FederationMerge, CountersSumIntoBareTotals) {
  Snapshot one;
  one.counters.push_back(counter("tasks_total", 2));
  Snapshot two;
  two.counters.push_back(counter("tasks_total", 5));

  const Snapshot merged =
      merge_snapshots({{"w1", std::move(one)}, {"w2", std::move(two)}});
  const CounterSample* total = find_counter(merged, "tasks_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value, 7u);
  const CounterSample* w1 =
      find_counter(merged, "tasks_total{worker=\"w1\"}");
  ASSERT_NE(w1, nullptr);
  EXPECT_EQ(w1->value, 2u);
  const CounterSample* w2 =
      find_counter(merged, "tasks_total{worker=\"w2\"}");
  ASSERT_NE(w2, nullptr);
  EXPECT_EQ(w2->value, 5u);
}

TEST(FederationMerge, GaugesStayPerWorkerWithNoTotal) {
  Snapshot one;
  one.gauges.push_back(gauge("queue_depth", 4));
  Snapshot two;
  two.gauges.push_back(gauge("queue_depth", 9));

  const Snapshot merged =
      merge_snapshots({{"w1", std::move(one)}, {"w2", std::move(two)}});
  ASSERT_EQ(merged.gauges.size(), 2u);
  EXPECT_EQ(merged.gauges[0].name, "queue_depth{worker=\"w1\"}");
  EXPECT_EQ(merged.gauges[0].value, 4);
  EXPECT_EQ(merged.gauges[1].name, "queue_depth{worker=\"w2\"}");
  EXPECT_EQ(merged.gauges[1].value, 9);
  // No bare "queue_depth": summing point-in-time values is meaningless.
  for (const GaugeSample& sample : merged.gauges) {
    EXPECT_NE(sample.name, "queue_depth");
  }
}

TEST(FederationMerge, HistogramsAddBucketWise) {
  Snapshot one;
  one.histograms.push_back(
      histogram("lat_ms", {1.0, 10.0}, {1, 2, 0}, 12.0));
  Snapshot two;
  two.histograms.push_back(
      histogram("lat_ms", {1.0, 10.0}, {0, 1, 4}, 80.0));

  const Snapshot merged =
      merge_snapshots({{"w1", std::move(one)}, {"w2", std::move(two)}});
  const HistogramSample* total = find_histogram(merged, "lat_ms");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->buckets, (std::vector<std::uint64_t>{1, 3, 4}));
  EXPECT_EQ(total->count, 8u);
  EXPECT_DOUBLE_EQ(total->sum, 92.0);
  EXPECT_NE(find_histogram(merged, "lat_ms{worker=\"w1\"}"), nullptr);
  EXPECT_NE(find_histogram(merged, "lat_ms{worker=\"w2\"}"), nullptr);
}

TEST(FederationMerge, MismatchedHistogramBoundsAreRejectedFromTotals) {
  Snapshot one;
  one.histograms.push_back(
      histogram("lat_ms", {1.0, 10.0}, {1, 2, 0}, 12.0));
  Snapshot two;
  two.histograms.push_back(
      histogram("lat_ms", {5.0, 50.0}, {0, 1, 4}, 80.0));

  MergeStats stats;
  const Snapshot merged = merge_snapshots(
      {{"w1", std::move(one)}, {"w2", std::move(two)}}, &stats);
  EXPECT_EQ(stats.histogram_bound_mismatches, 1u);
  // First-seen bounds win the total; the mismatched source still shows up
  // as its own labeled series.
  const HistogramSample* total = find_histogram(merged, "lat_ms");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->bounds, (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(total->count, 3u);
  const HistogramSample* w2 =
      find_histogram(merged, "lat_ms{worker=\"w2\"}");
  ASSERT_NE(w2, nullptr);
  EXPECT_EQ(w2->bounds, (std::vector<double>{5.0, 50.0}));
}

TEST(FederationMerge, DeterministicRegardlessOfArrivalOrder) {
  const auto build = [](bool flip) {
    Snapshot one;
    one.counters.push_back(counter("tasks_total", 2));
    one.gauges.push_back(gauge("depth", 1));
    one.histograms.push_back(
        histogram("lat_ms", {1.0}, {1, 0}, 0.5));
    Snapshot two;
    two.counters.push_back(counter("tasks_total", 5));
    two.gauges.push_back(gauge("depth", 2));
    two.histograms.push_back(
        histogram("lat_ms", {1.0}, {0, 2}, 9.0));
    std::vector<std::pair<std::string, Snapshot>> sources;
    if (flip) {
      sources.emplace_back("w2", std::move(two));
      sources.emplace_back("w1", std::move(one));
    } else {
      sources.emplace_back("w1", std::move(one));
      sources.emplace_back("w2", std::move(two));
    }
    return merge_snapshots(std::move(sources));
  };

  const Snapshot forward = build(false);
  const Snapshot reversed = build(true);
  EXPECT_EQ(metrics_to_prometheus(forward), metrics_to_prometheus(reversed));
}

TEST(FederationTrace, MergedTraceHasOneNamedLanePerSource) {
  TraceLane manager;
  manager.process_name = "manager";
  manager.spans.push_back({"dispatch-run", 1'000'000, 9'000'000, 1});
  TraceLane worker;
  worker.process_name = "worker w1";
  worker.clock_shift_ns = -500'000;  // worker clock ran ahead by 500us
  worker.spans.push_back({"worker-task", 2'500'000, 4'500'000, 7});

  const std::string trace = chrome_trace_from_lanes({manager, worker});
  auto parsed = json::parse(trace);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  const auto& events =
      parsed->as_object().find("traceEvents")->as_array();

  std::vector<std::string> process_names;
  double worker_ts = -1.0;
  for (const json::Value& event : events) {
    const auto& obj = event.as_object();
    if (obj.find("name")->as_string() == "process_name") {
      process_names.push_back(obj.find("args")
                                  ->as_object()
                                  .find("name")
                                  ->as_string());
    }
    if (obj.find("ph")->as_string() == "X" &&
        obj.find("name")->as_string() == "worker-task") {
      worker_ts = obj.find("ts")->as_number();
    }
  }
  ASSERT_EQ(process_names.size(), 2u);
  EXPECT_EQ(process_names[0], "manager");
  EXPECT_EQ(process_names[1], "worker w1");
  // Timeline re-based to the earliest shifted span (manager's 1ms); the
  // worker span lands at (2.5ms - 0.5ms) - 1ms = 1ms on the shared axis.
  EXPECT_DOUBLE_EQ(worker_ts, 1000.0);
}

TEST(FederationRegistry, FleetRegistryMergesAndLabels) {
  FleetRegistry registry;
  Snapshot one;
  one.counters.push_back(counter("tasks_total", 2));
  registry.update_snapshot("w1", std::move(one));
  Snapshot two;
  two.counters.push_back(counter("tasks_total", 3));
  registry.update_snapshot("w2", std::move(two));
  // Last write wins per source: refresh w1 with a newer snapshot.
  Snapshot newer;
  newer.counters.push_back(counter("tasks_total", 4));
  registry.update_snapshot("w1", std::move(newer));

  EXPECT_EQ(registry.sources().size(), 2u);
  const Snapshot merged = registry.merged();
  const CounterSample* total = find_counter(merged, "tasks_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value, 7u);
}

std::uint64_t telemetry_parse_errors() {
  const Snapshot snapshot = Registry::global().snapshot();
  const CounterSample* sample =
      find_counter(snapshot, names::kFleetTelemetryParseErrors);
  return sample != nullptr ? sample->value : 0u;
}

/// A heartbeat payload as the manager classifies it.
util::Expected<std::optional<dist::TelemetryPayload>> classify(
    std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value()) return std::move(parsed).error();
  return dist::telemetry_from_payload(*parsed);
}

TEST(FederationTelemetry, HeartbeatPayloadClassification) {
  // Valid JSON without a telemetry member: plain liveness.
  auto plain = classify("{\"other\":1}");
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->has_value());
  // Telemetry present but missing the required snapshot: an Error the
  // manager degrades on (count it, keep the task running).
  auto malformed = classify("{\"telemetry\":{}}");
  EXPECT_FALSE(malformed.has_value());
  // Not an object: same degradation path.
  EXPECT_FALSE(classify("[]").has_value());

  // Through the hub: an empty payload (a pre-federation heartbeat) is no
  // error, unparseable bytes are one.
  dist::TelemetryHub hub;
  const std::uint64_t errors_before = telemetry_parse_errors();
  hub.ingest_heartbeat("w", "");
  EXPECT_EQ(telemetry_parse_errors(), errors_before);
  hub.ingest_heartbeat("w", "{nope");
  EXPECT_EQ(telemetry_parse_errors(), errors_before + 1);
}

TEST(FederationTelemetry, TaskRequestTelemetryFlagsRoundTripAndDefaultOff) {
  dist::TaskRequest task;
  task.shard = {0, 2};
  task.paths = {"a.mbt"};
  const std::string off_payload = dist::task_request_to_payload(task);
  // Off = absent: pre-federation payload bytes, old workers parse it.
  EXPECT_EQ(off_payload.find("telemetry"), std::string::npos);
  EXPECT_EQ(off_payload.find("collect_spans"), std::string::npos);

  task.telemetry = true;
  task.collect_spans = true;
  auto decoded =
      dist::task_request_from_payload(dist::task_request_to_payload(task));
  ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
  EXPECT_TRUE(decoded->telemetry);
  EXPECT_TRUE(decoded->collect_spans);

  auto decoded_off = dist::task_request_from_payload(off_payload);
  ASSERT_TRUE(decoded_off.has_value());
  EXPECT_FALSE(decoded_off->telemetry);
  EXPECT_FALSE(decoded_off->collect_spans);
}

const GaugeSample* find_gauge(const Snapshot& snapshot,
                              std::string_view name) {
  for (const GaugeSample& sample : snapshot.gauges) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

TEST(FederationTelemetry, HeartbeatShipsWholeSnapshotWithHealthAndCountsBytes) {
  const auto bytes_shipped = [] {
    const Snapshot snapshot = Registry::global().snapshot();
    const CounterSample* sample =
        find_counter(snapshot, names::kWorkerTelemetryBytes);
    return sample != nullptr ? sample->value : 0u;
  };
  Registry::global().counter("heartbeat_whole_snapshot_test_total").add(3);

  // Every frame carries the whole registry: the counter ships its absolute
  // value each time, never a diff against the previous frame.
  for (int frame = 0; frame < 2; ++frame) {
    const std::uint64_t bytes_before = bytes_shipped();
    const std::string payload = dist::heartbeat_telemetry_payload();
    EXPECT_EQ(bytes_shipped(), bytes_before + payload.size());
    EXPECT_EQ(payload.find("\"delta\""), std::string::npos);

    auto parsed = classify(payload);
    ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
    ASSERT_TRUE(parsed->has_value());
    EXPECT_FALSE((*parsed)->health.empty());
    const CounterSample* shipped = find_counter(
        (*parsed)->snapshot, "heartbeat_whole_snapshot_test_total");
    ASSERT_NE(shipped, nullptr);
    EXPECT_EQ(shipped->value, 3u);
  }
}

/// A minimal worker heartbeat payload: one counter plus an explicit
/// verdict. Hub tests use this instead of heartbeat_telemetry_payload()
/// because in-process the "worker" shares the manager's registry, and a
/// real payload would echo manager-side fleet gauges back as worker series.
std::string synthetic_heartbeat(const std::string& health,
                                std::uint64_t tasks = 1) {
  Snapshot small;
  small.counters.push_back(counter("w_tasks_total", tasks));
  json::Object telemetry;
  telemetry.set("snapshot", metrics_to_json(small));
  telemetry.set("health", health);
  json::Object payload;
  payload.set("telemetry", std::move(telemetry));
  return json::serialize(json::Value(std::move(payload)));
}

TEST(FederationTelemetry, DeltaFramesFromOlderWorkersAreRejectedNotApplied) {
  dist::TelemetryHub hub;
  hub.ingest_heartbeat("w", synthetic_heartbeat("ok", 5));

  // An older worker's delta frame: a diff of 1 that, stored as the worker's
  // snapshot, would replace its cumulative 5. Older workers ship the array
  // snapshot shape, which no longer decodes.
  const std::string frame =
      R"({"telemetry":{"snapshot":{"counters":[{"name":"w_tasks_total",)"
      R"("help":"","value":1}],"gauges":[],"histograms":[]},)"
      R"("delta":true,"health":"ok"}})";
  EXPECT_FALSE(classify(frame).has_value());

  const std::uint64_t errors_before = telemetry_parse_errors();
  hub.ingest_heartbeat("w", frame);
  EXPECT_EQ(telemetry_parse_errors(), errors_before + 1);
  const Snapshot fleet = hub.fleet_snapshot();
  const CounterSample* tasks =
      find_counter(fleet, with_worker_label("w_tasks_total", "w"));
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->value, 5u);
}

TEST(FederationTelemetry, OldShapeSnapshotRiderIsCountedAsMalformed) {
  // A whole-snapshot rider from a worker that predates the --metrics shape:
  // series as arrays of {name, help, value} objects, histogram bounds and
  // per-bucket counts as parallel arrays.
  const std::string frame =
      R"({"telemetry":{"snapshot":{)"
      R"("counters":[{"name":"c_total","help":"h","value":7}],)"
      R"("gauges":[{"name":"depth","help":"h","value":-3}],)"
      R"("histograms":[{"name":"lat_ms","help":"h","bounds":[1,10],)"
      R"("buckets":[2,3,1],"sum":44.5}]},"health":"ok"}})";
  EXPECT_FALSE(classify(frame).has_value());

  dist::TelemetryHub hub;
  const std::uint64_t errors_before = telemetry_parse_errors();
  hub.ingest_heartbeat("old", frame);
  EXPECT_EQ(telemetry_parse_errors(), errors_before + 1);
  // Degraded to a plain heartbeat: the worker is seen, none of its series
  // are stored.
  EXPECT_NE(hub.status_json_text().find("\"worker\": \"old\""),
            std::string::npos);
  EXPECT_EQ(find_counter(hub.fleet_snapshot(),
                         with_worker_label("c_total", "old")),
            nullptr);
}

TEST(FederationHub, LostWorkerTagsItsSeriesStale) {
  dist::TelemetryHub hub;
  hub.note_worker_state("w", "connected");
  hub.ingest_heartbeat("w", synthetic_heartbeat("ok"));

  Snapshot live = hub.fleet_snapshot();
  const GaugeSample* stale_gauge =
      find_gauge(
      live, with_worker_label(names::kFleetWorkersStale, "manager"));
  ASSERT_NE(stale_gauge, nullptr);
  EXPECT_EQ(stale_gauge->value, 0);

  hub.note_worker_state("w", "lost");
  Snapshot after = hub.fleet_snapshot();
  stale_gauge = find_gauge(
      after, with_worker_label(names::kFleetWorkersStale, "manager"));
  ASSERT_NE(stale_gauge, nullptr);
  EXPECT_EQ(stale_gauge->value, 1);
  bool tagged = false;
  for (const CounterSample& sample : after.counters) {
    if (sample.name.find("worker=\"w\",stale=\"true\"") !=
        std::string::npos) {
      tagged = true;
    }
  }
  EXPECT_TRUE(tagged);
  // The manager's own lane is live, never stale-tagged.
  for (const CounterSample& sample : after.counters) {
    EXPECT_EQ(sample.name.find("worker=\"manager\",stale"),
              std::string::npos)
        << sample.name;
  }
}

TEST(FederationHub, HeartbeatGraceExpiryMarksSilentWorkersStale) {
  dist::TelemetryHub hub;
  hub.set_heartbeat_grace(0.2);
  hub.ingest_heartbeat("gone", synthetic_heartbeat("ok"));
  hub.note_worker_state("gone", "disconnected");
  hub.ingest_heartbeat("idle", synthetic_heartbeat("ok"));
  hub.note_worker_state("idle", "connected");

  // Within the grace window nothing is stale yet.
  const Snapshot fresh = hub.fleet_snapshot();
  const GaugeSample* stale_gauge = find_gauge(
      fresh, with_worker_label(names::kFleetWorkersStale, "manager"));
  ASSERT_NE(stale_gauge, nullptr);
  EXPECT_EQ(stale_gauge->value, 0);

  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  // Silent past the grace: the disconnected worker goes stale, the
  // connected-but-idle worker never does.
  const Snapshot silent = hub.fleet_snapshot();
  stale_gauge = find_gauge(
      silent, with_worker_label(names::kFleetWorkersStale, "manager"));
  ASSERT_NE(stale_gauge, nullptr);
  EXPECT_EQ(stale_gauge->value, 1);
  bool idle_tagged = false;
  for (const CounterSample& sample : hub.fleet_snapshot().counters) {
    if (sample.name.find("worker=\"idle\",stale") != std::string::npos) {
      idle_tagged = true;
    }
  }
  EXPECT_FALSE(idle_tagged);
}

TEST(FederationHub, HealthzFailsWithinGraceOfAWorkerLoss) {
  dist::TelemetryHub hub;
  hub.set_heartbeat_grace(0.05);
  hub.note_worker_state("w", "connected");
  hub.ingest_heartbeat("w", synthetic_heartbeat("ok"));
  EXPECT_NE(hub.fleet_health().level, HealthLevel::kFail);

  hub.note_worker_state("w", "lost");
  const HealthReport report = hub.fleet_health();
  EXPECT_EQ(report.level, HealthLevel::kFail);
  EXPECT_NE(health_summary(report).find("worker-staleness"),
            std::string::npos);
  const std::string body = hub.healthz_json_text();
  EXPECT_NE(body.find("\"status\": \"fail\""), std::string::npos);
  EXPECT_NE(body.find("worker-staleness"), std::string::npos);
  // The per-worker rollup names the lost worker too.
  EXPECT_NE(body.find("\"worker\": \"w\""), std::string::npos);
}

TEST(FederationHub, WorkerVerdictFoldsIntoFleetHealth) {
  dist::TelemetryHub hub;
  // Fleet rules that cannot fire on their own, so any non-ok rollup can
  // only come from the worker's piggybacked verdict.
  hub.set_health_rules({{"never", "no_such_metric_total", "", -1.0, -1.0}});
  hub.note_worker_state("w", "connected");

  Snapshot small;
  small.counters.push_back(counter("w_total", 1));
  json::Object telemetry;
  telemetry.set("snapshot", metrics_to_json(small));
  telemetry.set("health", "fail(boom)");
  json::Object payload;
  payload.set("telemetry", std::move(telemetry));
  hub.ingest_heartbeat("w", json::serialize(json::Value(std::move(payload))));

  const HealthReport report = hub.fleet_health();
  EXPECT_EQ(report.level, HealthLevel::kFail);
  EXPECT_NE(health_summary(report).find("worker:w"), std::string::npos);
}

/// One raw HTTP exchange against the hub's embedded endpoint.
std::string http_get(std::uint16_t port, const std::string& path,
                     const std::string& extra_headers = "") {
  auto conn = dist::connect_to({"127.0.0.1", port}, 2.0);
  if (!conn.has_value()) return "connect failed";
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: t\r\n" +
                              extra_headers + "Connection: close\r\n\r\n";
  if (!conn->send_all(request.data(), request.size()).ok()) {
    return "send failed";
  }
  std::string response;
  char byte = 0;
  while (conn->recv_exact(&byte, 1, 2.0).ok()) response.push_back(byte);
  return response;
}

TEST(FederationHub, EndpointRequiresBearerTokenWhenConfigured) {
  dist::TelemetryHub hub;
  hub.set_auth_token("sekrit");
  auto status = hub.start_endpoint({"127.0.0.1", 0});
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  const std::uint16_t port = hub.endpoint_port();

  const std::string anonymous = http_get(port, "/metrics");
  EXPECT_NE(anonymous.find("401"), std::string::npos) << anonymous;
  EXPECT_NE(anonymous.find("WWW-Authenticate: Bearer"), std::string::npos);

  const std::string wrong =
      http_get(port, "/metrics", "Authorization: Bearer nope\r\n");
  EXPECT_NE(wrong.find("401"), std::string::npos);

  const std::string authed =
      http_get(port, "/metrics", "Authorization: Bearer sekrit\r\n");
  EXPECT_NE(authed.find("200"), std::string::npos) << authed;
  EXPECT_NE(authed.find("mosaic_"), std::string::npos);

  // Rejections are observable: the unauthorized counter counted both.
  const Snapshot fleet = hub.fleet_snapshot();
  const CounterSample* rejected =
      find_counter(fleet, std::string(names::kFleetEndpointUnauthorized));
  ASSERT_NE(rejected, nullptr);
  EXPECT_GE(rejected->value, 2u);
  hub.stop();
}

TEST(FederationHub, HealthzEndpointTurns503WhenAWorkerGoesStale) {
  dist::TelemetryHub hub;
  hub.set_heartbeat_grace(0.05);
  auto status = hub.start_endpoint({"127.0.0.1", 0});
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  const std::uint16_t port = hub.endpoint_port();

  hub.note_worker_state("w", "connected");
  hub.ingest_heartbeat("w", synthetic_heartbeat("ok"));
  const std::string healthy = http_get(port, "/healthz");
  EXPECT_NE(healthy.find("HTTP/1.1 200"), std::string::npos) << healthy;

  hub.note_worker_state("w", "lost");
  const std::string failing = http_get(port, "/healthz");
  EXPECT_NE(failing.find("HTTP/1.1 503"), std::string::npos) << failing;
  EXPECT_NE(failing.find("worker-staleness"), std::string::npos);
  hub.stop();
}

}  // namespace
}  // namespace mosaic::obs

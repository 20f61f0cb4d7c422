// Canonical names of every metric MOSAIC exports. One place to keep the
// instrumentation sites, the heartbeat reader, the tests and the README
// metric table in agreement.
//
// Conventions: `mosaic_` prefix; counters end in `_total`; histograms are
// named after their unit (`_ms`, bare counts otherwise); label sets are
// encoded in the series name via obs::labeled().
#pragma once

#include <string_view>

namespace mosaic::obs::names {

// Ingest front end (src/ingest).
inline constexpr std::string_view kIngestScanned =
    "mosaic_ingest_files_scanned_total";
inline constexpr std::string_view kIngestProcessed =
    "mosaic_ingest_files_processed_total";
inline constexpr std::string_view kIngestLoaded = "mosaic_ingest_loaded_total";
inline constexpr std::string_view kIngestFailed = "mosaic_ingest_failed_total";
inline constexpr std::string_view kIngestRetryAttempts =
    "mosaic_ingest_retry_attempts_total";
inline constexpr std::string_view kIngestRecovered =
    "mosaic_ingest_recovered_total";
inline constexpr std::string_view kIngestQuarantined =
    "mosaic_ingest_quarantined_total";
inline constexpr std::string_view kIngestBackoffMs =
    "mosaic_ingest_retry_backoff_ms";
inline constexpr std::string_view kIngestRetriesPerFile =
    "mosaic_ingest_retries_per_file";
inline constexpr std::string_view kIngestParseMs = "mosaic_ingest_parse_ms";

// Sharded batch execution (src/ingest/shard.hpp). Set only when a run owns
// a slice of the corpus (--shard K/N or --shards N), so dashboards can tell
// shard partials from whole-corpus runs.
inline constexpr std::string_view kShardIndex = "mosaic_shard_index";
inline constexpr std::string_view kShardCount = "mosaic_shard_count";

// Pre-processing funnel (src/core/preprocess). Per-ErrorCode eviction
// series carry a {code="..."} label; validity evictions additionally feed
// the {kind="..."} corruption series. A shard kept by a resumed --shards
// run adds its partial's funnel to the same series (core::count_funnel),
// which is what keeps a resumed run's funnel metrics byte-identical to the
// uninterrupted run's.
inline constexpr std::string_view kFunnelEvictions =
    "mosaic_funnel_evictions_total";
inline constexpr std::string_view kFunnelCorruption =
    "mosaic_funnel_corruption_total";
inline constexpr std::string_view kFunnelValid = "mosaic_funnel_valid_total";

// Thread pool (src/parallel).
inline constexpr std::string_view kPoolThreads = "mosaic_pool_threads";
inline constexpr std::string_view kPoolQueueDepth = "mosaic_pool_queue_depth";
inline constexpr std::string_view kPoolActiveWorkers =
    "mosaic_pool_active_workers";
inline constexpr std::string_view kPoolTasks = "mosaic_pool_tasks_total";
inline constexpr std::string_view kPoolTaskMs = "mosaic_pool_task_ms";
inline constexpr std::string_view kPoolSuppressedErrors =
    "mosaic_pool_suppressed_errors_total";

// Per-stage pipeline latency (src/core/pipeline).
inline constexpr std::string_view kStageMergeMs = "mosaic_stage_merge_ms";
inline constexpr std::string_view kStageSegmentMs = "mosaic_stage_segment_ms";
inline constexpr std::string_view kStagePeriodicityMs =
    "mosaic_stage_periodicity_ms";
inline constexpr std::string_view kStageTemporalityMs =
    "mosaic_stage_temporality_ms";
inline constexpr std::string_view kStageMetadataMs =
    "mosaic_stage_metadata_ms";
inline constexpr std::string_view kStageCategorizeMs =
    "mosaic_stage_categorize_ms";
inline constexpr std::string_view kStageAnalyzeMs = "mosaic_stage_analyze_ms";
inline constexpr std::string_view kTracesAnalyzed =
    "mosaic_traces_analyzed_total";

// Clustering kernels (src/cluster).
inline constexpr std::string_view kMeanShiftIterations =
    "mosaic_meanshift_iterations";
inline constexpr std::string_view kMeanShiftPoints =
    "mosaic_meanshift_points_total";
inline constexpr std::string_view kFftSize = "mosaic_fft_size";

// Report stages (src/report).
inline constexpr std::string_view kReportJaccardMs =
    "mosaic_report_jaccard_ms";
inline constexpr std::string_view kReportAccuracyMs =
    "mosaic_report_accuracy_ms";
inline constexpr std::string_view kReportAggregateMs =
    "mosaic_report_aggregate_ms";
inline constexpr std::string_view kReportConfusionMs =
    "mosaic_report_confusion_ms";

// Decision provenance journal (src/obs/provenance).
inline constexpr std::string_view kProvenanceRecords =
    "mosaic_provenance_records_total";

// Distributed dispatch manager (src/dist/dispatch). Task-lifecycle
// counters: every terminal state and every recovery action is a series, so
// a dashboard can tell a healthy fleet from one living off retries.
inline constexpr std::string_view kDispatchTasksDone =
    "mosaic_dispatch_tasks_done_total";
inline constexpr std::string_view kDispatchRetries =
    "mosaic_dispatch_retries_total";
inline constexpr std::string_view kDispatchReassigned =
    "mosaic_dispatch_reassigned_total";
inline constexpr std::string_view kDispatchQuarantined =
    "mosaic_dispatch_quarantined_total";
inline constexpr std::string_view kDispatchWorkersLost =
    "mosaic_dispatch_workers_lost_total";
inline constexpr std::string_view kDispatchDegradedTasks =
    "mosaic_dispatch_degraded_tasks_total";
inline constexpr std::string_view kDispatchResumedTasks =
    "mosaic_dispatch_resumed_tasks_total";
inline constexpr std::string_view kDispatchTaskMs = "mosaic_dispatch_task_ms";

// Worker pool side (src/dist/worker).
inline constexpr std::string_view kWorkerSessions =
    "mosaic_worker_sessions_total";
inline constexpr std::string_view kWorkerTasks = "mosaic_worker_tasks_total";
inline constexpr std::string_view kWorkerTaskErrors =
    "mosaic_worker_task_errors_total";
inline constexpr std::string_view kWorkerHeartbeats =
    "mosaic_worker_heartbeats_total";
inline constexpr std::string_view kWorkerTaskMs = "mosaic_worker_task_ms";

// Telemetry federation (src/obs/federation, src/dist/telemetry). Worker-side
// shipping counters travel *inside* the shipped snapshots, so the manager's
// fleet view shows how much telemetry each worker exported; the fleet-side
// series exist only on the manager. kFleetClockOffsetNs carries a
// {peer="host:port"} label per fleet member (peer, not worker: the fleet
// merge prepends worker="manager" to every manager series, and a duplicate
// label key would make the merged name invalid).
inline constexpr std::string_view kWorkerTelemetrySnapshots =
    "mosaic_worker_telemetry_snapshots_total";
inline constexpr std::string_view kWorkerSpansShipped =
    "mosaic_worker_spans_shipped_total";
inline constexpr std::string_view kDispatchHeartbeats =
    "mosaic_dispatch_heartbeats_total";
inline constexpr std::string_view kDispatchConnectMs =
    "mosaic_dispatch_connect_ms";
inline constexpr std::string_view kDispatchMergeMs =
    "mosaic_dispatch_merge_ms";
inline constexpr std::string_view kFleetWorkers = "mosaic_fleet_workers";
inline constexpr std::string_view kFleetSnapshots =
    "mosaic_fleet_snapshots_total";
inline constexpr std::string_view kFleetSpans = "mosaic_fleet_spans_total";
inline constexpr std::string_view kFleetTelemetryParseErrors =
    "mosaic_fleet_telemetry_parse_errors_total";
inline constexpr std::string_view kFleetClockOffsetNs =
    "mosaic_fleet_clock_offset_ns";

// Telemetry wire cost (src/dist/telemetry): bytes of the whole-snapshot
// riders a worker ships on its heartbeats.
inline constexpr std::string_view kWorkerTelemetryBytes =
    "mosaic_worker_telemetry_bytes_total";

// Endpoint auth + staleness (src/dist/telemetry).
inline constexpr std::string_view kFleetEndpointUnauthorized =
    "mosaic_fleet_endpoint_unauthorized_total";
inline constexpr std::string_view kFleetWorkersStale =
    "mosaic_fleet_workers_stale";

// Health engine (src/obs/health). kHealthLevel encodes the overall verdict
// as 0 = ok, 1 = warn, 2 = fail.
inline constexpr std::string_view kHealthLevel = "mosaic_health_level";
inline constexpr std::string_view kHealthEvaluations =
    "mosaic_health_evaluations_total";

// Embedded HTTP endpoint (src/obs/http), shared by dispatch and the daemon.
inline constexpr std::string_view kHttpRequests = "mosaic_http_requests_total";
inline constexpr std::string_view kHttpUnauthorized =
    "mosaic_http_unauthorized_total";

// Analysis result cache (src/core/result_cache), keyed by the dedup digest.
inline constexpr std::string_view kCacheHits = "mosaic_cache_hits_total";
inline constexpr std::string_view kCacheMisses = "mosaic_cache_misses_total";
inline constexpr std::string_view kCacheEvictions =
    "mosaic_cache_evictions_total";
inline constexpr std::string_view kCacheBytes = "mosaic_cache_bytes";
inline constexpr std::string_view kCacheEntries = "mosaic_cache_entries";

// Always-on daemon (src/dist/daemon). Submissions split by outcome:
// analyzed (cache miss), cache hit, or rejected (per-ErrorCode {code=...}
// label on the rejected series).
inline constexpr std::string_view kDaemonSubmissions =
    "mosaic_daemon_submissions_total";
inline constexpr std::string_view kDaemonAnalyzed =
    "mosaic_daemon_analyzed_total";
inline constexpr std::string_view kDaemonRejected =
    "mosaic_daemon_rejected_total";
inline constexpr std::string_view kDaemonScans = "mosaic_daemon_scans_total";

}  // namespace mosaic::obs::names

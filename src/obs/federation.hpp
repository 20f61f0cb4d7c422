// Telemetry federation: merging per-process metric snapshots and span
// buffers into one fleet-wide view.
//
// Distributed dispatch (src/dist) runs one obs::Registry and one SpanTracer
// per worker process; everything they measure would die with the process.
// Workers therefore serialize Snapshots and span rings to JSON (the wire
// helpers below), ship them to the manager piggybacked on protocol frames,
// and the manager folds them into a FleetRegistry:
//
//   - counters   sum across sources, and every source also keeps its own
//                `{worker="host:port"}`-labeled series,
//   - gauges     stay per-source only (summing instantaneous values across
//                processes is meaningless),
//   - histograms add bucket-wise when bucket bounds match; a source whose
//                bounds disagree is kept as its labeled series but excluded
//                from the fleet total (counted in MergeStats).
//
// The merge is deterministic: sources are folded in name order and the
// output is name-sorted, so the fleet view does not depend on worker
// arrival order. Span lanes are clock-aligned by a per-source offset
// (estimated at connection handshake) and rendered as one named Chrome
// trace process per source, so a merged multi-worker trace is readable in
// Perfetto: lane "manager", lane "worker 127.0.0.1:9101", ...
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json/json.hpp"
#include "json/reader.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace mosaic::obs {

/// A span that crossed a process boundary: like SpanEvent, but owning its
/// name (the originating process's string literals are not addressable
/// here). Timestamps stay in the *source* process's ns-since-start clock.
struct FleetSpan {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// Span ring -> wire JSON array (compact keys; a full ring is shipped once
/// per task, not per heartbeat).
[[nodiscard]] json::Value spans_to_wire_json(
    const std::vector<SpanEvent>& spans);

/// Wire JSON array -> owned spans; malformed entries fail `spans`.
[[nodiscard]] std::vector<FleetSpan> spans_from_wire_json(
    const json::Reader& spans);

/// Prepends a `worker="<worker>"` label to a series name, preserving any
/// labels already encoded in it:
///   ("m_total", "h:1")              -> m_total{worker="h:1"}
///   ("m_total{code=\"x\"}", "h:1")  -> m_total{worker="h:1",code="x"}
/// The worker label comes first so stripping `worker="...",?` recovers the
/// fleet-total series name exactly (the CI sum check relies on this).
[[nodiscard]] std::string with_worker_label(std::string_view series,
                                            std::string_view worker);

/// What the merge had to drop or reject.
struct MergeStats {
  std::size_t histogram_bound_mismatches = 0;
};

/// Folds per-source snapshots into one fleet Snapshot (semantics above).
/// Sources are processed in name order regardless of input order.
[[nodiscard]] Snapshot merge_snapshots(
    std::vector<std::pair<std::string, Snapshot>> sources,
    MergeStats* stats = nullptr);

/// One process lane of a merged Chrome trace. `clock_shift_ns` is added to
/// every timestamp to move the lane onto the reference (manager) timeline.
struct TraceLane {
  std::string process_name;
  std::int64_t clock_shift_ns = 0;
  std::vector<FleetSpan> spans;  ///< sorted by (tid, start) for determinism
};

/// Renders lanes as Chrome trace_event JSON: lane i gets pid i+1 plus
/// process_name/thread_name "M" metadata, spans become "X" complete events.
/// Timestamps are re-based so the earliest event across all lanes is t=0
/// (clock shifts may otherwise push a lane negative, which trace viewers
/// handle poorly).
[[nodiscard]] std::string chrome_trace_from_lanes(
    const std::vector<TraceLane>& lanes);

/// The manager-side fleet aggregation point: latest snapshot, span buffer
/// and clock offset per source, merged on demand. Thread-safe; snapshots
/// are cumulative so "last write wins" per source is the correct fold.
class FleetRegistry {
 public:
  /// Replaces `source`'s snapshot (registers the source on first call).
  void update_snapshot(const std::string& source, Snapshot snapshot);

  /// Replaces `source`'s span buffer (span rings are cumulative too).
  void update_spans(const std::string& source, std::vector<FleetSpan> spans);

  /// Offset of `source`'s span clock relative to the reference clock:
  /// reference_ns = source_ns - offset_ns.
  void set_clock_offset_ns(const std::string& source, std::int64_t offset_ns);

  [[nodiscard]] std::vector<std::string> sources() const;
  [[nodiscard]] std::size_t source_count() const;

  /// Fleet-wide merged snapshot (labeled per-source series + totals).
  [[nodiscard]] Snapshot merged(MergeStats* stats = nullptr) const;

  /// Merged Chrome trace: one named lane per source, "manager" first (pid
  /// 1) when present, the rest in name order.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Atomically (temp + rename) writes chrome_trace_json() to `path`.
  [[nodiscard]] util::Status write_chrome_trace(const std::string& path) const;

 private:
  struct Source {
    Snapshot snapshot;
    std::vector<FleetSpan> spans;
    std::int64_t offset_ns = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Source> sources_;
};

}  // namespace mosaic::obs

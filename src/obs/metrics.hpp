// Lock-cheap metrics registry: named counters, gauges and fixed-bucket
// histograms for the whole pipeline (paper §IV-E measures throughput and
// per-stage cost; this is the subsystem that makes those numbers observable
// in every run, not just in dedicated benchmarks).
//
// Design constraints, in order:
//   1. Instrumentation sits on the thread-pool hot path (per trace, per
//      stage, per retry). An update must cost one relaxed atomic RMW on a
//      thread-local shard — no mutex, no false sharing between workers.
//   2. Scrapes are rare (end of run, heartbeat ticks) and may be O(shards).
//   3. Metric handles are stable for the process lifetime: call sites cache
//      a reference once (function-local static) and never look up again.
//   4. Everything can be disabled at runtime (set_metrics_enabled(false)),
//      reducing an update to one relaxed load and a predictable branch —
//      tests/obs/test_instrumentation_counts.cpp pins that a disabled
//      registry sees no update and no clock read over 1,000 analyses.
//
// Exposition: snapshot() produces a name-sorted Snapshot which serializes to
// JSON (metrics_to_json) and Prometheus text format (metrics_to_prometheus).
// Label sets are encoded in the metric name itself, Prometheus-style:
//   mosaic_funnel_evictions_total{code="io-error"}
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "json/reader.hpp"

namespace mosaic::obs {

/// Number of cache-line-padded slots each counter/histogram fans out over.
/// Threads pick a slot round-robin on first use; 16 slots keep contention
/// negligible up to the core counts the paper evaluates on.
inline constexpr std::size_t kShards = 16;

/// Global runtime switch. Disabled updates are a relaxed load + branch.
void set_metrics_enabled(bool enabled) noexcept;
[[nodiscard]] bool metrics_enabled() noexcept;

/// Shard slot of the calling thread (stable per thread).
[[nodiscard]] std::size_t shard_index() noexcept;

/// Monotonic counter, sharded per thread.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    if (!metrics_enabled()) return;
    shards_[shard_index()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Sum over shards. Racing increments may or may not be included — exact
  /// once the writers have quiesced (e.g. after ThreadPool::wait_idle).
  [[nodiscard]] std::uint64_t value() const noexcept;

  /// Test/bench seam: zeroes all shards. Not safe vs concurrent writers.
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Last-write-wins instantaneous value (queue depth, active workers).
/// A single atomic: gauges are updated at scheduling frequency, not per-op.
class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    if (!metrics_enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    if (!metrics_enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram (Prometheus semantics: `bounds` are inclusive
/// upper edges; one implicit +Inf bucket catches the rest). Bucket counts
/// and the running sum are sharded like Counter.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket (non-cumulative) counts, bounds().size() + 1 entries.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;  ///< sorted ascending
  std::array<Shard, kShards> shards_;
};

/// Point-in-time view of every registered instrument, name-sorted.
struct CounterSample {
  std::string name;
  std::string help;
  std::uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  std::string help;
  std::int64_t value = 0;
};
struct HistogramSample {
  std::string name;
  std::string help;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< non-cumulative, bounds+1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
};
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Process-wide instrument registry. Instruments are created on first use
/// and live forever; the returned references are stable.
class Registry {
 public:
  /// The process-wide registry (leaky singleton: worker threads may still
  /// touch instruments during static teardown).
  [[nodiscard]] static Registry& global();

  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  /// Re-registering a histogram name must repeat the same bounds.
  Histogram& histogram(std::string_view name, std::span<const double> bounds,
                       std::string_view help = "");

  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every instrument (names stay registered). Test/bench seam; not
  /// safe while writers are running.
  void reset();

 private:
  template <typename T>
  struct Entry {
    std::string help;
    std::unique_ptr<T> instrument;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry<Counter>, std::less<>> counters_;
  std::map<std::string, Entry<Gauge>, std::less<>> gauges_;
  std::map<std::string, Entry<Histogram>, std::less<>> histograms_;
};

/// Default latency bucket edges in milliseconds (10us .. 10s, log-spaced);
/// shared by every *_ms histogram so exported shapes are comparable.
[[nodiscard]] std::span<const double> latency_buckets_ms() noexcept;

/// Renders a snapshot as a JSON object:
///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
/// Keys are sorted, so two snapshots with equal values serialize
/// byte-identically.
[[nodiscard]] json::Value metrics_to_json(const Snapshot& snapshot);

/// Reads a snapshot back from the metrics_to_json() shape: a --metrics
/// artifact, `mosaic health` input, or a worker's telemetry rider.
/// Cumulative buckets are de-cumulated; help text is not carried.
[[nodiscard]] Snapshot snapshot_from_metrics_json(const json::Reader& metrics);

/// Renders a snapshot in Prometheus text exposition format (# TYPE lines,
/// cumulative _bucket/_sum/_count series for histograms).
[[nodiscard]] std::string metrics_to_prometheus(const Snapshot& snapshot);

/// Builds a labeled series name: labeled("m_total", "code", "io-error")
/// -> m_total{code="io-error"}.
[[nodiscard]] std::string labeled(std::string_view name, std::string_view key,
                                  std::string_view value);

/// RAII stage timer: observes elapsed milliseconds into `hist` at scope
/// exit, plus `earlier_ms` spent on the stage's behalf before the scope
/// (a share of work done for several items at once). The clock
/// (SpanTracer::now_ns) is only read when metrics are enabled.
class ScopedTimerMs {
 public:
  explicit ScopedTimerMs(Histogram& hist, double earlier_ms = 0.0) noexcept;
  ~ScopedTimerMs();
  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

 private:
  Histogram* hist_;  ///< null when metrics were disabled at entry
  double earlier_ms_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace mosaic::obs

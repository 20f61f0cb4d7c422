// Per-thread span tracing with Chrome trace_event export.
//
// MOSAIC_SPAN("segment") opens an RAII scope that records a begin/end pair
// on the steady clock into the calling thread's ring buffer. Buffers are
// fixed-capacity (oldest spans are overwritten, with a drop counter), so a
// batch run over hundreds of thousands of traces cannot exhaust memory.
// write_chrome_trace() exports everything recorded so far as Chrome
// trace_event JSON ("X" complete events), loadable in chrome://tracing and
// Perfetto, giving a per-thread, per-stage visual profile of a run:
// ingest -> parse -> merge -> segment -> periodicity -> temporality ->
// metadata -> categorize.
//
// Tracing is off by default; a disabled MOSAIC_SPAN costs one relaxed load
// and a branch (no clock read, no buffer write).
// tests/obs/test_instrumentation_counts.cpp pins that, and the exact number
// of clock reads and span records with tracing on, through clock_reads().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mosaic::obs {

/// One completed span. `name` must be a string literal (or otherwise outlive
/// the tracer) — spans are recorded on hot paths and must not allocate.
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;  ///< steady clock, relative to process start
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;  ///< dense per-thread id assigned on first record
};

/// Process-wide tracer owning one ring buffer per recording thread.
class SpanTracer {
 public:
  [[nodiscard]] static SpanTracer& global();

  /// Starts recording. `per_thread_capacity` bounds each thread's buffer
  /// (clamped to a floor of 16); when full, the oldest spans are overwritten
  /// and counted as dropped.
  void enable(std::size_t per_thread_capacity = 1 << 16);
  void disable() noexcept;
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one completed span (no-op when disabled).
  void record(const char* name, std::uint64_t start_ns,
              std::uint64_t end_ns) noexcept;

  /// Collects every buffered span, sorted by (tid, start, end) so output is
  /// deterministic for identical executions. Does not clear the buffers.
  [[nodiscard]] std::vector<SpanEvent> collect() const;

  /// Spans overwritten because a thread's ring filled up.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Serializes collected spans as Chrome trace_event JSON.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Atomically (temp + rename) writes chrome_trace_json() to `path`.
  [[nodiscard]] util::Status write_chrome_trace(const std::string& path) const;

  /// Clears all buffers and thread registrations (capacity and enabled
  /// state are kept). Safe only while no spans are being recorded.
  void reset();

  /// Steady-clock nanoseconds since the process first read this clock: the
  /// one clock every obs timer (StageScope, SpanScope, ScopedTimerMs) reads.
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  /// now_ns() calls made so far by the calling thread.
  [[nodiscard]] static std::uint64_t clock_reads() noexcept;

 private:
  struct ThreadBuffer {
    mutable std::mutex mutex;
    std::vector<SpanEvent> ring;
    std::size_t next = 0;  ///< overwrite position once the ring is full
    std::uint64_t dropped = 0;
    std::uint32_t tid = 0;
  };

  ThreadBuffer& buffer_for_this_thread() noexcept;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};  ///< bumped by reset()
  std::atomic<std::size_t> capacity_{1 << 16};
  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span scope; prefer the MOSAIC_SPAN macro.
class SpanScope {
 public:
  explicit SpanScope(const char* name) noexcept {
    if (SpanTracer::global().enabled()) {
      name_ = name;
      start_ns_ = SpanTracer::now_ns();
    }
  }
  ~SpanScope() {
    if (name_ != nullptr) {
      SpanTracer::global().record(name_, start_ns_, SpanTracer::now_ns());
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace mosaic::obs

#define MOSAIC_OBS_CONCAT_INNER(a, b) a##b
#define MOSAIC_OBS_CONCAT(a, b) MOSAIC_OBS_CONCAT_INNER(a, b)
/// Times the enclosing scope as a named span (string literal).
#define MOSAIC_SPAN(name) \
  const ::mosaic::obs::SpanScope MOSAIC_OBS_CONCAT(mosaic_span_, \
                                                   __LINE__){name}

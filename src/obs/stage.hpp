// Combined per-stage instrumentation scope.
//
// StageScope times the enclosing scope once and feeds both the stage
// latency histogram and the span tracer from the same pair of clock reads.
// The separate ScopedTimerMs + MOSAIC_SPAN composition reads the steady
// clock four times per stage; on a pipeline whose stages run in
// microseconds those duplicate reads are the dominant instrumentation cost,
// so the hot path uses this fused scope instead.
//
// With metrics and tracer off, or sampled out, the scope costs at most two
// relaxed loads and a few branches — no clock read
// (tests/obs/test_instrumentation_counts.cpp counts the reads).
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace mosaic::obs {

/// RAII scope observing elapsed milliseconds into `hist` and recording a
/// span named `span_name` (string literal) — one clock read at entry, one
/// at exit, shared by both sinks.
class StageScope {
 public:
  /// `active == false` makes the scope a no-op (one branch, no clock read);
  /// the hot path uses this to sample per-stage detail per trace.
  StageScope(bool active, Histogram& hist, const char* span_name) noexcept
      : hist_(active && metrics_enabled() ? &hist : nullptr),
        name_(active && SpanTracer::global().enabled() ? span_name : nullptr) {
    if (hist_ != nullptr || name_ != nullptr) {
      start_ns_ = SpanTracer::now_ns();
    }
  }
  ~StageScope() {
    if (hist_ != nullptr || name_ != nullptr) {
      const std::uint64_t end_ns = SpanTracer::now_ns();
      if (hist_ != nullptr) {
        hist_->observe(static_cast<double>(end_ns - start_ns_) * 1e-6);
      }
      if (name_ != nullptr) {
        SpanTracer::global().record(name_, start_ns_, end_ns);
      }
    }
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  Histogram* hist_;    ///< null when metrics were disabled at entry
  const char* name_;   ///< null when tracing was disabled at entry
  std::uint64_t start_ns_ = 0;
};

}  // namespace mosaic::obs

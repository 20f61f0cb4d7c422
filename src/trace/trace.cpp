#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>

namespace mosaic::trace {

std::uint64_t Trace::total_bytes_read() const noexcept {
  std::uint64_t total = 0;
  for (const auto& file : files) total += file.bytes_read;
  return total;
}

std::uint64_t Trace::total_bytes_written() const noexcept {
  std::uint64_t total = 0;
  for (const auto& file : files) total += file.bytes_written;
  return total;
}

const char* corruption_kind_name(CorruptionKind kind) noexcept {
  switch (kind) {
    case CorruptionKind::kNone: return "none";
    case CorruptionKind::kNonPositiveRuntime: return "non-positive-runtime";
    case CorruptionKind::kZeroRanks: return "zero-ranks";
    case CorruptionKind::kNegativeTimestamp: return "negative-timestamp";
    case CorruptionKind::kInvertedWindow: return "inverted-window";
    case CorruptionKind::kAccessOutsideJob: return "access-outside-job";
    case CorruptionKind::kAccessOutsideOpen: return "access-outside-open";
    case CorruptionKind::kCounterMismatch: return "counter-mismatch";
    case CorruptionKind::kNonFiniteValue: return "non-finite-value";
  }
  return "unknown";
}

std::optional<CorruptionKind> corruption_kind_from_name(
    std::string_view name) noexcept {
  for (int i = 0; i <= static_cast<int>(CorruptionKind::kNonFiniteValue);
       ++i) {
    const auto kind = static_cast<CorruptionKind>(i);
    if (name == corruption_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

namespace {

bool finite(double v) noexcept { return std::isfinite(v); }

/// Window check helper: a window is "present" when both ends differ from
/// kNoTimestamp.
bool window_present(double first, double last) noexcept {
  return first != kNoTimestamp || last != kNoTimestamp;
}

/// Branch-light clean predicate for one access window. Accumulated with
/// bitwise & so the common all-clean case evaluates without short-circuit
/// branches. Any non-finite timestamp fails a comparison (NaN compares false,
/// ±inf violates a bound), so no explicit isfinite is needed on the pass
/// side — the slow path re-derives the exact corruption kind.
bool window_clean(double first, double last, std::uint64_t bytes,
                  std::uint64_t calls, double open_ts, double close_ts,
                  double job_end, double slack) noexcept {
  if (first == kNoTimestamp && last == kNoTimestamp) return bytes == 0;
  return bool(unsigned(first >= 0.0) & unsigned(last >= first) &
              unsigned(last <= job_end) & unsigned(first >= open_ts - slack) &
              unsigned(last <= close_ts + slack) &
              unsigned(!(bytes > 0 && calls == 0)));
}

/// Fast validity predicate for one record: exactly equivalent to the detailed
/// classifier below (clean here <=> no corruption found there), but pure
/// comparisons, no allocation, no per-timestamp loop. validate() runs this
/// per record and only drops into the detailed path to name the corruption.
bool record_clean(const FileRecord& file, double job_end,
                  double slack) noexcept {
  const bool envelope =
      bool(unsigned(file.open_ts >= 0.0) &
           unsigned(file.close_ts >= file.open_ts) &
           unsigned(file.close_ts <= job_end));
  return envelope &&
         window_clean(file.first_read_ts, file.last_read_ts, file.bytes_read,
                      file.reads, file.open_ts, file.close_ts, job_end,
                      slack) &&
         window_clean(file.first_write_ts, file.last_write_ts,
                      file.bytes_written, file.writes, file.open_ts,
                      file.close_ts, job_end, slack);
}

/// Detailed classification of one record already known to be unclean. This is
/// the reference semantics: check order fixes which corruption kind wins when
/// several apply, so it must not be reordered independently of record_clean.
ValidityReport classify_record(const FileRecord& file, double job_end,
                               double slack_seconds) {
  const auto fail = [](CorruptionKind kind, std::string detail) {
    return ValidityReport{kind, std::move(detail)};
  };
  const auto where = [&file] {
    return "file " + std::to_string(file.file_id);
  };

  for (double ts : {file.open_ts, file.close_ts, file.first_read_ts,
                    file.last_read_ts, file.first_write_ts,
                    file.last_write_ts}) {
    if (!finite(ts)) return fail(CorruptionKind::kNonFiniteValue, where());
  }
  if (file.open_ts < 0.0 || file.close_ts < 0.0) {
    return fail(CorruptionKind::kNegativeTimestamp, where());
  }
  if (file.close_ts < file.open_ts) {
    return fail(CorruptionKind::kInvertedWindow, where() + " close<open");
  }
  if (file.close_ts > job_end) {
    // The paper's example of corruption: a deallocation recorded before
    // the end of execution leaves a close timestamp beyond the job window.
    return fail(CorruptionKind::kAccessOutsideJob, where() + " close>job end");
  }

  const auto check_window = [&](double first, double last, std::uint64_t bytes,
                                std::uint64_t calls,
                                const char* what) -> ValidityReport {
    if (!window_present(first, last)) {
      if (bytes > 0) {
        return fail(CorruptionKind::kCounterMismatch,
                    where() + " " + what + " bytes without window");
      }
      return ValidityReport{};
    }
    if (first < 0.0 || last < 0.0) {
      return fail(CorruptionKind::kNegativeTimestamp, where());
    }
    if (last < first) {
      return fail(CorruptionKind::kInvertedWindow,
                  where() + " " + what + " last<first");
    }
    if (last > job_end) {
      return fail(CorruptionKind::kAccessOutsideJob,
                  where() + " " + what + " after job end");
    }
    if (first < file.open_ts - slack_seconds ||
        last > file.close_ts + slack_seconds) {
      return fail(CorruptionKind::kAccessOutsideOpen, where());
    }
    if (bytes > 0 && calls == 0) {
      return fail(CorruptionKind::kCounterMismatch,
                  where() + " " + what + " bytes without calls");
    }
    return ValidityReport{};
  };

  if (auto report = check_window(file.first_read_ts, file.last_read_ts,
                                 file.bytes_read, file.reads, "read");
      !report.valid()) {
    return report;
  }
  if (auto report = check_window(file.first_write_ts, file.last_write_ts,
                                 file.bytes_written, file.writes, "write");
      !report.valid()) {
    return report;
  }
  return ValidityReport{};
}

}  // namespace

ValidityReport validate(const Trace& trace, double slack_seconds) {
  const auto fail = [](CorruptionKind kind, std::string detail) {
    return ValidityReport{kind, std::move(detail)};
  };

  if (!finite(trace.meta.run_time) || !finite(trace.meta.start_time)) {
    return fail(CorruptionKind::kNonFiniteValue, "job metadata");
  }
  if (trace.meta.run_time <= 0.0) {
    return fail(CorruptionKind::kNonPositiveRuntime,
                "run_time=" + std::to_string(trace.meta.run_time));
  }
  if (trace.meta.nprocs == 0) {
    return fail(CorruptionKind::kZeroRanks, "nprocs=0");
  }

  const double job_end = trace.meta.run_time + slack_seconds;
  for (const auto& file : trace.files) {
    if (record_clean(file, job_end, slack_seconds)) [[likely]] continue;
    if (auto report = classify_record(file, job_end, slack_seconds);
        !report.valid()) {
      return report;
    }
  }
  return ValidityReport{};
}

std::vector<IoOp> extract_ops(const Trace& trace, OpKind kind,
                              double min_width) {
  std::vector<IoOp> ops;
  extract_ops(trace, kind, min_width, ops);
  return ops;
}

void extract_ops(const Trace& trace, OpKind kind, double min_width,
                 std::vector<IoOp>& ops) {
  ops.clear();
  ops.reserve(trace.files.size());
  for (const auto& file : trace.files) {
    const bool is_read = kind == OpKind::kRead;
    const std::uint64_t bytes = is_read ? file.bytes_read : file.bytes_written;
    const double first = is_read ? file.first_read_ts : file.first_write_ts;
    const double last = is_read ? file.last_read_ts : file.last_write_ts;
    if (bytes == 0 || !window_present(first, last)) continue;
    IoOp op;
    op.start = first;
    op.end = std::max(last, first + min_width);
    op.bytes = bytes;
    op.rank = file.rank;
    op.kind = kind;
    ops.push_back(op);
  }
  std::sort(ops.begin(), ops.end(), [](const IoOp& a, const IoOp& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.end < b.end;
  });
}

std::vector<MetaEvent> metadata_timeline(const Trace& trace) {
  std::vector<MetaEvent> events;
  metadata_timeline(trace, events);
  return events;
}

void metadata_timeline(const Trace& trace, std::vector<MetaEvent>& events) {
  events.clear();
  events.reserve(trace.files.size() * 2);
  for (const auto& file : trace.files) {
    // Darshan never timestamps SEEKs; MOSAIC co-locates them with OPENs.
    if (file.opens + file.seeks > 0) {
      events.push_back({file.open_ts, file.opens + file.seeks});
    }
    if (file.closes > 0) {
      events.push_back({file.close_ts, file.closes});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const MetaEvent& a, const MetaEvent& b) { return a.time < b.time; });
}

}  // namespace mosaic::trace

// Decision provenance: a structured analysis journal recording, per trace,
// the evidence every axis used to reach its category verdict.
//
// The paper's 92% accuracy figure (§IV-E) was established by *manually*
// inspecting 512 traces; its 8% error concentrates in temporality edge
// cases. A pipeline that emits only final labels cannot show an operator
// why a trace was categorized a certain way or where misclassifications
// cluster. This module captures the intermediate structure behind each
// decision — merge funnel, segment counts, Mean-Shift cluster candidates
// with their CV acceptance tests, FFT peaks against the periodicity
// threshold, temporality chunk spreads, metadata ratios, and the final
// category-rule firings — as plain data that serializes to JSONL and
// renders as a human-readable decision path (`mosaic explain`).
//
// Capture is gated exactly like MOSAIC_SPAN: disabled, the per-trace check
// is one relaxed load; enabled, records are taken for about one in every
// `sample_every` traces, chosen by a hash of the trace's app key and job
// id, so every driver samples the same traces.
// tests/obs/test_instrumentation_counts.cpp counts both: no allocation or
// metric update when off, exactly one record per sampled trace when on.
//
// The structs here are deliberately dependency-free (strings and numbers
// only): core fills them, report joins them against sim ground truth, and
// neither direction adds a link-time cycle.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "util/error.hpp"

namespace mosaic::obs {

/// Merge-pass funnel for one op kind (paper §III-B2): how many raw events
/// the two passes fused and how the covered time window changed.
struct MergeProvenance {
  std::uint64_t raw_ops = 0;          ///< extracted events before merging
  std::uint64_t after_concurrent = 0; ///< after overlapping-op fusion
  std::uint64_t merged_ops = 0;       ///< after neighbor-gap fusion
  double covered_seconds_before = 0.0;  ///< sum of op durations, raw
  double covered_seconds_after = 0.0;   ///< sum of op durations, merged
};

/// One Mean-Shift cluster evaluated as a periodic-group candidate, with the
/// raw-space CV sanity tests that accepted or rejected it.
struct MeanShiftCandidate {
  std::uint64_t size = 0;          ///< segments in the cluster
  double period_seconds = 0.0;     ///< mean segment length
  double duration_cv = 0.0;        ///< tested against duration_cv_limit
  double volume_cv = 0.0;          ///< tested against volume_cv_limit
  double center_length = 0.0;      ///< mode coordinate, scaled feature space
  double center_log_volume = 0.0;  ///< mode coordinate, scaled feature space
  bool accepted = false;
  std::string rejected_by;  ///< "", "group-size", "duration-cv", "volume-cv"
};

/// Mean-Shift backend evidence for one kind.
struct MeanShiftProvenance {
  bool ran = false;
  double bandwidth = 0.0;            ///< kernel radius used
  double duration_cv_limit = 0.0;    ///< Thresholds::group_duration_cv
  double volume_cv_limit = 0.0;      ///< Thresholds::group_volume_cv
  std::uint64_t points = 0;          ///< segments embedded
  std::uint64_t iterations = 0;      ///< total shift iterations over points
  std::vector<MeanShiftCandidate> candidates;
};

/// One spectral peak tested by the frequency backend.
struct FrequencyPeak {
  double period_seconds = 0.0;
  double score = 0.0;  ///< harmonic-comb score, tested against min_score
  std::uint64_t occurrences = 0;
  bool accepted = false;
};

/// FFT backend evidence for one kind.
struct FrequencyProvenance {
  bool ran = false;
  double bin_seconds = 0.0;  ///< activity-signal resolution
  double min_score = 0.0;    ///< Thresholds::frequency_min_score
  std::vector<FrequencyPeak> peaks;
};

/// An accepted periodic group as reported in the final result.
struct PeriodicGroupProvenance {
  double period_seconds = 0.0;
  double mean_bytes = 0.0;
  double busy_ratio = 0.0;
  std::uint64_t occurrences = 0;
  std::string magnitude;  ///< "second" | "minute" | "hour" | "day_or_more"
};

/// Periodicity verdict plus the backend evidence behind it.
struct PeriodicityProvenance {
  std::string backend;  ///< "mean-shift" | "frequency" | "hybrid"
  bool periodic = false;
  /// Margin from the decision boundary in [0,1]: how far the deciding
  /// statistic sat from the threshold that would have flipped the verdict.
  double confidence = 0.0;
  MeanShiftProvenance mean_shift;
  FrequencyProvenance frequency;
  std::vector<PeriodicGroupProvenance> groups;
};

/// Temporality evidence for one kind: the chunk profile, the statistic each
/// rule compared, and which rule fired (paper §III-B3b).
struct TemporalityProvenance {
  std::vector<double> chunk_bytes;
  double total_bytes = 0.0;
  double min_bytes_threshold = 0.0;  ///< significance bound (paper: 100 MB)
  double chunk_cv = 0.0;             ///< spread across chunks
  double steady_cv_threshold = 0.0;
  double dominance_factor = 0.0;
  std::int64_t dominant_chunk = -1;  ///< index of the dominating chunk, or -1
  std::string rule;  ///< "insignificant" | "steady" | "chunk-dominance" |
                     ///< "middle-dominance" | "unclassified"
  std::string label;
  double confidence = 0.0;  ///< margin from the decision boundary, [0,1]
};

/// Everything recorded for one op kind (read or write).
struct KindProvenance {
  MergeProvenance merge;
  std::uint64_t segments = 0;
  PeriodicityProvenance periodicity;
  TemporalityProvenance temporality;
};

/// Metadata-impact evidence: the measured ratios next to every threshold the
/// three rules compared them with (paper §III-B3c).
struct MetadataProvenance {
  std::uint64_t total_requests = 0;
  std::uint64_t nprocs = 0;  ///< insignificance compares requests < ranks
  double max_requests_per_second = 0.0;
  double mean_requests_per_second = 0.0;
  std::uint64_t spike_seconds = 0;
  double high_spike_threshold = 0.0;
  double spike_threshold = 0.0;
  std::uint64_t multiple_spike_count = 0;
  double high_density_mean_threshold = 0.0;
  bool insignificant = true;
  bool high_spike = false;
  bool multiple_spikes = false;
  bool high_density = false;
  double confidence = 0.0;  ///< margin of the closest rule comparison, [0,1]
};

/// The complete decision path of one analyzed trace.
struct TraceProvenance {
  std::string app_key;
  std::uint64_t job_id = 0;
  double runtime = 0.0;
  std::uint64_t nprocs = 0;
  KindProvenance read;
  KindProvenance write;
  MetadataProvenance metadata;
  /// Category-rule firings from flatten_categories, in evaluation order —
  /// one human-readable line per decision, including gates that *suppressed*
  /// a category (e.g. periodicity dropped because the kind is insignificant).
  std::vector<std::string> rules;
  /// The final flattened category set, by snake-case name.
  std::vector<std::string> categories;
};

/// Serializes one record as a JSON object (stable key order).
[[nodiscard]] json::Value provenance_to_json(const TraceProvenance& record);

/// Estimated heap footprint of one record: the struct itself plus every
/// buffer it owns (string capacities past the small-string buffer, vector
/// capacities), without allocator overhead. The daemon's result cache
/// accounts its entries with it.
[[nodiscard]] std::size_t provenance_heap_bytes(const TraceProvenance& record);

/// Inverse of provenance_to_json; missing keys default, wrong shapes error.
[[nodiscard]] util::Expected<TraceProvenance> provenance_from_json(
    const json::Value& value);

/// Renders the decision path as human-readable text — what `mosaic explain`
/// prints: merge -> segment -> periodicity -> temporality -> metadata ->
/// rule firings -> categories.
[[nodiscard]] std::string explain_text(const TraceProvenance& record);

/// Process-wide provenance collector. Off by default; when enabled it
/// samples about one in every `sample_every` analyzed traces. Sampled
/// records are buffered in memory (bounded by the ring) and written as one
/// JSONL line per trace, atomically, at end of run.
class ProvenanceJournal {
 public:
  [[nodiscard]] static ProvenanceJournal& global();

  /// Ring capacity used when enable() is not given an explicit one. Sized
  /// for a 1-in-8 audit of a ~32k-trace batch; callers drilling into larger
  /// fleets pass their own bound.
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Starts sampling 1-in-`sample_every` traces (0 is clamped to 1). The
  /// journal buffers at most `capacity` records as a ring — once full, new
  /// records overwrite the oldest and dropped() counts the evictions — so
  /// a long batch run cannot grow the buffer without bound.
  void enable(std::uint64_t sample_every = 1,
              std::size_t capacity = kDefaultCapacity);
  void disable() noexcept;
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sample_every() const noexcept;

  /// True when the analysis of the trace with app key `user`/`app` and job
  /// id `job_id` should capture provenance: one relaxed load when disabled.
  /// When enabled, a hash of the app key and job id decides, so a trace is
  /// sampled or not whatever driver, thread or arrival order analyzes it.
  /// Allocates nothing.
  [[nodiscard]] bool should_sample(std::string_view user, std::string_view app,
                                   std::uint64_t job_id) const noexcept;

  void record(TraceProvenance record);

  /// All buffered records, sorted by (app_key, job_id) so output is
  /// deterministic regardless of worker interleaving.
  [[nodiscard]] std::vector<TraceProvenance> collect() const;

  /// Number of buffered records.
  [[nodiscard]] std::size_t size() const;

  /// Records overwritten because the ring filled up.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Writes collect() as JSONL (one compact object per line) via the atomic
  /// temp+rename writer.
  [[nodiscard]] util::Status write_jsonl(const std::string& path) const;

  /// Writes collect() to `<dir>/provenance.jsonl`, creating `dir`, and
  /// returns the line a run prints about it. When the ring overwrote
  /// records the file holds only the newest: the line names how many were
  /// dropped, and a warning is logged.
  [[nodiscard]] util::Expected<std::string> write_to_dir(
      const std::string& dir) const;

  /// Drops all buffered records (enabled state and sampling rate are kept).
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> sample_every_{1};
  std::atomic<std::size_t> capacity_{kDefaultCapacity};
  mutable std::mutex mutex_;
  std::vector<TraceProvenance> records_;  // ring once capacity_ is reached
  std::size_t next_ = 0;                  ///< ring cursor, guarded by mutex_
  std::uint64_t dropped_ = 0;             ///< guarded by mutex_
};

/// Reads a JSONL provenance file back into records. Blank lines are
/// skipped; a malformed line is an error naming its line number.
[[nodiscard]] util::Expected<std::vector<TraceProvenance>>
read_provenance_jsonl(const std::string& path);

}  // namespace mosaic::obs

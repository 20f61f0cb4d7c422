// The end-to-end MOSAIC pipeline (paper Fig. 1).
//
//   validity check + dedup  ->  per-kind merging  ->  segmentation +
//   Mean-Shift periodicity  ->  4-chunk temporality  ->  metadata rules
//   ->  category set
//
// Analyzer handles one trace; analyze_population drives the whole dataset,
// optionally in parallel, and keeps the pre-processing funnel and the
// runs-per-application weights needed by the reports.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/categories.hpp"
#include "core/metadata.hpp"
#include "core/periodicity.hpp"
#include "core/preprocess.hpp"
#include "core/temporality.hpp"
#include "core/thresholds.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/trace.hpp"

namespace mosaic::obs {
struct KindProvenance;
struct TraceProvenance;
}  // namespace mosaic::obs

namespace mosaic::core {

/// Analysis of one op kind (read or write) of one trace.
struct KindAnalysis {
  TemporalityResult temporality;
  PeriodicityResult periodicity;
  std::size_t raw_ops = 0;     ///< ops extracted before merging
  std::size_t merged_ops = 0;  ///< ops after both merge passes
};

/// Reusable per-worker scratch for Analyzer: every intermediate buffer the
/// merge -> segment -> periodicity -> temporality -> metadata stages need.
/// After the first few traces the buffers reach their high-water capacity
/// and the steady-state analysis path stops allocating scratch entirely —
/// only the returned TraceResult still owns fresh memory (DESIGN.md §12).
/// One instance per thread; instances must not be shared concurrently.
struct AnalyzerWorkspace {
  std::vector<trace::IoOp> ops;       ///< extract + in-place merge buffer
  std::vector<Segment> segments;      ///< segmentation output
  std::vector<trace::MetaEvent> meta_timeline;  ///< metadata event stream
  PeriodicityWorkspace periodicity;   ///< detector scratch (both backends)
  util::Histogram meta_histogram{0.0, 1.0, 1};  ///< per-second request bins
};

/// Full categorization of one trace — what MOSAIC writes per trace to its
/// JSON output (§III-B4).
struct TraceResult {
  std::string app_key;
  std::uint64_t job_id = 0;
  double runtime = 0.0;
  std::uint32_t nprocs = 1;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  KindAnalysis read;
  KindAnalysis write;
  MetadataResult metadata;

  /// The flattened non-exclusive category set.
  CategorySet categories;
};

/// Per-trace categorization engine. Stateless w.r.t. traces; safe to share
/// across threads.
class Analyzer {
 public:
  explicit Analyzer(Thresholds thresholds = {}) : thresholds_(thresholds) {}

  /// Categorizes a single (valid) trace. When the global
  /// obs::ProvenanceJournal is enabled, a sampled subset of calls records
  /// its full decision path into the journal.
  [[nodiscard]] TraceResult analyze(const trace::Trace& trace) const;

  /// As above, but all scratch comes from `workspace` — the batch path keeps
  /// one workspace per pool worker so steady-state analysis does not
  /// allocate. Results are bit-identical to the convenience form.
  [[nodiscard]] TraceResult analyze(const trace::Trace& trace,
                                    AnalyzerWorkspace& workspace) const;

  /// As the first form, but always captures the decision path into
  /// `evidence` (journal sampling does not apply) — the entry point
  /// `mosaic explain` uses for live analysis.
  [[nodiscard]] TraceResult analyze(const trace::Trace& trace,
                                    obs::TraceProvenance* evidence) const;

  /// Runs the per-kind pipeline (merging, segmentation, periodicity,
  /// temporality) on an explicit operation stream instead of a trace's
  /// aggregated file records. This is the entry point for DXT-level data,
  /// where per-operation events are available and aggregation has not
  /// collapsed long-open files into single windows (paper SIV-A).
  /// Non-null `evidence` captures the per-kind decision evidence.
  /// `stage_detail` controls whether per-stage histograms/spans fire for
  /// this call; analyze() samples it on the hot path (see pipeline.cpp).
  [[nodiscard]] KindAnalysis analyze_ops(std::vector<trace::IoOp> ops,
                                         double runtime,
                                         obs::KindProvenance* evidence =
                                             nullptr,
                                         bool stage_detail = true) const;

  [[nodiscard]] const Thresholds& thresholds() const noexcept {
    return thresholds_;
  }

 private:
  [[nodiscard]] TraceResult analyze_impl(const trace::Trace& trace,
                                         obs::TraceProvenance* evidence,
                                         AnalyzerWorkspace& workspace) const;

  /// Shared per-kind pipeline body. Consumes workspace.ops (the extracted
  /// raw operation stream) in place.
  [[nodiscard]] KindAnalysis analyze_ops_impl(AnalyzerWorkspace& workspace,
                                              double runtime,
                                              obs::KindProvenance* evidence,
                                              bool stage_detail) const;

  [[nodiscard]] KindAnalysis analyze_kind(const trace::Trace& trace,
                                          trace::OpKind kind,
                                          obs::KindProvenance* evidence,
                                          bool stage_detail,
                                          AnalyzerWorkspace& workspace) const;

  Thresholds thresholds_;
};

/// Derives the flat category set from the per-axis results. Exposed for
/// tests; Analyzer::analyze calls it internally. Periodicity categories are
/// only assigned for kinds whose volume is significant, mirroring the
/// paper's exclusion of non-I/O-intensive traces.
/// Non-null `rule_trace` receives one human-readable line per rule decision,
/// in evaluation order — including the gates that *suppressed* a category.
[[nodiscard]] CategorySet flatten_categories(
    const KindAnalysis& read, const KindAnalysis& write,
    const MetadataResult& metadata, const Thresholds& thresholds = {},
    std::vector<std::string>* rule_trace = nullptr);

/// Result of analyzing a whole trace population.
struct BatchResult {
  PreprocessStats preprocess;
  /// Valid executions per application key; weights the all-runs statistics.
  std::map<std::string, std::size_t> runs_per_app;
  /// One result per retained (deduplicated) trace.
  std::vector<TraceResult> results;
};

/// Pre-processes and categorizes a population. The funnel runs by reference
/// and only the dedup winners are copied into analyzer-owned storage. When
/// `pool` is non-null the per-trace analyses run on it (the paper's Dispy
/// role); results keep the deterministic input order either way.
[[nodiscard]] BatchResult analyze_population(
    std::span<const trace::Trace> traces, const Thresholds& thresholds = {},
    parallel::ThreadPool* pool = nullptr);

/// Categorizes an already pre-processed population — the entry point for the
/// streaming ingest path, whose funnel (including load failures) is built
/// incrementally while files are read. Consumes `pre`.
[[nodiscard]] BatchResult analyze_preprocessed(
    PreprocessResult pre, const Thresholds& thresholds = {},
    parallel::ThreadPool* pool = nullptr);

}  // namespace mosaic::core

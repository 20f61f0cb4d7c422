#include "core/pipeline.hpp"

#include <cstdarg>
#include <cstdio>
#include <utility>

#include "core/merge.hpp"
#include "core/segmentation.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/provenance.hpp"
#include "obs/stage.hpp"

namespace mosaic::core {

namespace {

/// Appends one printf-formatted rule line to the trace (no-op when null).
__attribute__((format(printf, 2, 3))) void trace_rule(
    std::vector<std::string>* rule_trace, const char* fmt, ...) {
  if (rule_trace == nullptr) return;
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  rule_trace->emplace_back(buffer);
}

/// Per-stage instruments, resolved once; a detailed trace pays one relaxed
/// load per stage plus two clock reads, nothing else.
struct StageMetrics {
  obs::Histogram& merge_ms;
  obs::Histogram& segment_ms;
  obs::Histogram& periodicity_ms;
  obs::Histogram& temporality_ms;
  obs::Histogram& metadata_ms;
  obs::Histogram& categorize_ms;
  obs::Histogram& analyze_ms;
  obs::Counter& traces_analyzed;

  static StageMetrics& get() {
    static auto& registry = obs::Registry::global();
    static const auto buckets = obs::latency_buckets_ms();
    static StageMetrics metrics{
        registry.histogram(obs::names::kStageMergeMs, buckets,
                           "merge_ops stage latency (ms)"),
        registry.histogram(obs::names::kStageSegmentMs, buckets,
                           "segment_ops stage latency (ms)"),
        registry.histogram(obs::names::kStagePeriodicityMs, buckets,
                           "periodicity detection stage latency (ms)"),
        registry.histogram(obs::names::kStageTemporalityMs, buckets,
                           "temporality classification stage latency (ms)"),
        registry.histogram(obs::names::kStageMetadataMs, buckets,
                           "metadata classification stage latency (ms)"),
        registry.histogram(obs::names::kStageCategorizeMs, buckets,
                           "category flattening stage latency (ms)"),
        registry.histogram(obs::names::kStageAnalyzeMs, buckets,
                           "full per-trace analysis latency (ms)"),
        registry.counter(obs::names::kTracesAnalyzed,
                         "traces fully analyzed by the pipeline"),
    };
    return metrics;
  }
};

/// Periodicity label block for one kind, gated on significance.
void flatten_periodicity(CategorySet& out, trace::OpKind kind,
                         const KindAnalysis& analysis,
                         const Thresholds& thresholds,
                         std::vector<std::string>* rule_trace) {
  const char* kind_name = kind == trace::OpKind::kRead ? "read" : "write";
  if (analysis.temporality.label == Temporality::kInsignificant) {
    if (analysis.periodicity.periodic) {
      trace_rule(rule_trace,
                 "[%s] periodicity suppressed: kind volume is insignificant",
                 kind_name);
    }
    return;
  }
  const PeriodicityResult& periodicity = analysis.periodicity;
  if (!periodicity.periodic) {
    trace_rule(rule_trace, "[%s] not periodic: no category", kind_name);
    return;
  }

  const bool read = kind == trace::OpKind::kRead;
  out.insert(read ? Category::kReadPeriodic : Category::kWritePeriodic);
  trace_rule(rule_trace, "[%s] periodic: %zu group(s) -> %s_periodic",
             kind_name, periodicity.groups.size(), kind_name);

  // Categories are non-exclusive: a trace with two periodic operations of
  // different magnitudes carries both magnitude labels.
  for (const PeriodicGroup& group : periodicity.groups) {
    trace_rule(rule_trace,
               "[%s] periodic group: period %.3gs (x%zu) -> %s_periodic_%s",
               kind_name, group.period_seconds, group.occurrences, kind_name,
               period_magnitude_name(group.magnitude));
    switch (group.magnitude) {
      case PeriodMagnitude::kSecond:
        out.insert(read ? Category::kReadPeriodicSecond
                        : Category::kWritePeriodicSecond);
        break;
      case PeriodMagnitude::kMinute:
        out.insert(read ? Category::kReadPeriodicMinute
                        : Category::kWritePeriodicMinute);
        break;
      case PeriodMagnitude::kHour:
        out.insert(read ? Category::kReadPeriodicHour
                        : Category::kWritePeriodicHour);
        break;
      case PeriodMagnitude::kDayOrMore:
        out.insert(read ? Category::kReadPeriodicDayOrMore
                        : Category::kWritePeriodicDayOrMore);
        break;
    }
  }

  // Busy time follows the dominant periodic operation.
  const double busy = periodicity.dominant().busy_ratio;
  if (busy >= thresholds.busy_ratio_split) {
    out.insert(read ? Category::kReadPeriodicHighBusyTime
                    : Category::kWritePeriodicHighBusyTime);
    trace_rule(rule_trace,
               "[%s] busy ratio %.3f >= %.3f -> %s_periodic_high_busy_time",
               kind_name, busy, thresholds.busy_ratio_split, kind_name);
  } else {
    out.insert(read ? Category::kReadPeriodicLowBusyTime
                    : Category::kWritePeriodicLowBusyTime);
    trace_rule(rule_trace,
               "[%s] busy ratio %.3f < %.3f -> %s_periodic_low_busy_time",
               kind_name, busy, thresholds.busy_ratio_split, kind_name);
  }
}

}  // namespace

CategorySet flatten_categories(const KindAnalysis& read,
                               const KindAnalysis& write,
                               const MetadataResult& metadata,
                               const Thresholds& thresholds,
                               std::vector<std::string>* rule_trace) {
  CategorySet out;
  const Category read_temporality =
      temporality_category(trace::OpKind::kRead, read.temporality.label);
  const Category write_temporality =
      temporality_category(trace::OpKind::kWrite, write.temporality.label);
  out.insert(read_temporality);
  out.insert(write_temporality);
  trace_rule(rule_trace, "[read] temporality %s -> %s",
             temporality_name(read.temporality.label),
             std::string(category_name(read_temporality)).c_str());
  trace_rule(rule_trace, "[write] temporality %s -> %s",
             temporality_name(write.temporality.label),
             std::string(category_name(write_temporality)).c_str());
  flatten_periodicity(out, trace::OpKind::kRead, read, thresholds, rule_trace);
  flatten_periodicity(out, trace::OpKind::kWrite, write, thresholds,
                      rule_trace);

  if (metadata.insignificant) {
    out.insert(Category::kMetadataInsignificantLoad);
    trace_rule(rule_trace,
               "[metadata] %llu request(s), fewer than one per rank -> "
               "metadata_insignificant_load",
               static_cast<unsigned long long>(metadata.total_requests));
  } else {
    if (metadata.high_spike) {
      out.insert(Category::kMetadataHighSpike);
      trace_rule(rule_trace,
                 "[metadata] peak %.0f req/s >= %.0f -> metadata_high_spike",
                 metadata.max_requests_per_second,
                 thresholds.high_spike_requests);
    }
    if (metadata.multiple_spikes) {
      out.insert(Category::kMetadataMultipleSpikes);
      trace_rule(rule_trace,
                 "[metadata] %zu spike second(s) >= %zu -> "
                 "metadata_multiple_spikes",
                 metadata.spike_seconds, thresholds.multiple_spike_count);
    }
    if (metadata.high_density) {
      out.insert(Category::kMetadataHighDensity);
      trace_rule(rule_trace,
                 "[metadata] mean %.1f req/s >= %.0f with %zu spike(s) -> "
                 "metadata_high_density",
                 metadata.mean_requests_per_second,
                 thresholds.high_density_mean_requests,
                 metadata.spike_seconds);
    }
    if (!metadata.high_spike && !metadata.multiple_spikes &&
        !metadata.high_density) {
      trace_rule(rule_trace,
                 "[metadata] significant load but no spike rule fired");
    }
  }
  return out;
}

KindAnalysis Analyzer::analyze_ops(std::vector<trace::IoOp> ops,
                                   double runtime,
                                   obs::KindProvenance* evidence,
                                   bool stage_detail) const {
  AnalyzerWorkspace workspace;
  workspace.ops = std::move(ops);
  return analyze_ops_impl(workspace, runtime, evidence, stage_detail);
}

KindAnalysis Analyzer::analyze_ops_impl(AnalyzerWorkspace& workspace,
                                        double runtime,
                                        obs::KindProvenance* evidence,
                                        bool stage_detail) const {
  std::vector<trace::IoOp>& ops = workspace.ops;
  KindAnalysis analysis;
  analysis.raw_ops = ops.size();
  StageMetrics& metrics = StageMetrics::get();

  {
    const obs::StageScope stage(stage_detail, metrics.merge_ms, "merge");
    ops = merge_ops(std::move(ops), runtime, thresholds_,
                    evidence != nullptr ? &evidence->merge : nullptr);
  }
  analysis.merged_ops = ops.size();

  obs::PeriodicityProvenance* periodicity_evidence =
      evidence != nullptr ? &evidence->periodicity : nullptr;

  // Mean-Shift periodicity runs over segments, so the segmentation stage is
  // only timed on the backends that need it.
  const auto segment = [&]() -> std::span<const Segment> {
    const obs::StageScope stage(stage_detail, metrics.segment_ms, "segment");
    segment_ops(ops, workspace.segments);
    if (evidence != nullptr) evidence->segments = workspace.segments.size();
    return workspace.segments;
  };
  {
    const obs::StageScope stage(stage_detail, metrics.periodicity_ms,
                                "periodicity");
    switch (thresholds_.periodicity_backend) {
      case PeriodicityBackend::kMeanShift:
        analysis.periodicity =
            detect_periodicity(segment(), thresholds_, periodicity_evidence,
                               workspace.periodicity, stage_detail);
        if (evidence != nullptr) evidence->periodicity.backend = "mean-shift";
        break;
      case PeriodicityBackend::kFrequency:
        analysis.periodicity = detect_periodicity_frequency(
            ops, runtime, thresholds_, periodicity_evidence,
            workspace.periodicity);
        if (evidence != nullptr) evidence->periodicity.backend = "frequency";
        break;
      case PeriodicityBackend::kHybrid:
        analysis.periodicity =
            detect_periodicity(segment(), thresholds_, periodicity_evidence,
                               workspace.periodicity, stage_detail);
        if (!analysis.periodicity.periodic) {
          analysis.periodicity = detect_periodicity_frequency(
              ops, runtime, thresholds_, periodicity_evidence,
              workspace.periodicity);
        }
        if (evidence != nullptr) evidence->periodicity.backend = "hybrid";
        break;
    }
  }
  {
    const obs::StageScope stage(stage_detail, metrics.temporality_ms,
                                "temporality");
    analysis.temporality =
        classify_temporality(ops, runtime, thresholds_,
                             evidence != nullptr ? &evidence->temporality
                                                 : nullptr);
  }
  return analysis;
}

KindAnalysis Analyzer::analyze_kind(const trace::Trace& trace,
                                    trace::OpKind kind,
                                    obs::KindProvenance* evidence,
                                    bool stage_detail,
                                    AnalyzerWorkspace& workspace) const {
  trace::extract_ops(trace, kind, thresholds_.min_op_width, workspace.ops);
  return analyze_ops_impl(workspace, trace.meta.run_time, evidence,
                          stage_detail);
}

TraceResult Analyzer::analyze(const trace::Trace& trace) const {
  AnalyzerWorkspace workspace;
  return analyze(trace, workspace);
}

TraceResult Analyzer::analyze(const trace::Trace& trace,
                              AnalyzerWorkspace& workspace) const {
  // Journal gate: one relaxed load when provenance is off; when on, about
  // one in every sample_every traces, picked by app key and job id, pays
  // the capture cost.
  obs::ProvenanceJournal& journal = obs::ProvenanceJournal::global();
  if (journal.should_sample(trace.meta.user, trace.meta.app_name,
                            trace.meta.job_id)) {
    obs::TraceProvenance evidence;
    TraceResult result = analyze_impl(trace, &evidence, workspace);
    journal.record(std::move(evidence));
    return result;
  }
  return analyze_impl(trace, nullptr, workspace);
}

TraceResult Analyzer::analyze(const trace::Trace& trace,
                              obs::TraceProvenance* evidence) const {
  AnalyzerWorkspace workspace;
  return analyze_impl(trace, evidence, workspace);
}

TraceResult Analyzer::analyze_impl(const trace::Trace& trace,
                                   obs::TraceProvenance* evidence,
                                   AnalyzerWorkspace& workspace) const {
  StageMetrics& metrics = StageMetrics::get();

  // All latency scopes — the whole-trace "analyze" scope here and the
  // per-stage detail scopes (merge x2, segment x2, periodicity x2,
  // temporality x2, metadata, categorize) — are sampled 1-in-32 per thread:
  // the histograms keep an unbiased latency distribution while the
  // un-sampled majority of traces pays a few branches per scope, no clock
  // read. A trace analyzes in about a microsecond, so timing every trace
  // (and force-detailing every provenance-sampled trace, as earlier
  // revisions did) cost more than the analysis stages being timed.
  // The Mean-Shift iteration and point metrics follow the same sample.
  // tests/obs/test_instrumentation_counts.cpp pins the rule exactly: 11
  // scopes and 22 clock reads per detailed trace, none on the others.
  // Provenance capture does not imply timing detail: the journal records the
  // decision path, the histograms record latency, and the two sample
  // independently. The first trace on each thread is always detailed (tick
  // starts at 0) so short runs still populate every stage series.
  constexpr std::uint32_t kStageDetailMask = 32 - 1;
  thread_local std::uint32_t stage_detail_tick = 0;
  const bool stage_detail = (stage_detail_tick++ & kStageDetailMask) == 0;
  const obs::StageScope analyze_scope(stage_detail, metrics.analyze_ms,
                                      "analyze");

  TraceResult result;
  result.app_key = trace.app_key();
  result.job_id = trace.meta.job_id;
  result.runtime = trace.meta.run_time;
  result.nprocs = trace.meta.nprocs;
  result.bytes_read = trace.total_bytes_read();
  result.bytes_written = trace.total_bytes_written();
  if (evidence != nullptr) {
    evidence->app_key = result.app_key;
    evidence->job_id = result.job_id;
    evidence->runtime = result.runtime;
    evidence->nprocs = result.nprocs;
  }

  result.read =
      analyze_kind(trace, trace::OpKind::kRead,
                   evidence != nullptr ? &evidence->read : nullptr,
                   stage_detail, workspace);
  result.write =
      analyze_kind(trace, trace::OpKind::kWrite,
                   evidence != nullptr ? &evidence->write : nullptr,
                   stage_detail, workspace);
  {
    const obs::StageScope stage(stage_detail, metrics.metadata_ms,
                                "metadata");
    trace::metadata_timeline(trace, workspace.meta_timeline);
    result.metadata = classify_metadata(
        workspace.meta_timeline, trace.meta.run_time, trace.meta.nprocs,
        thresholds_, evidence != nullptr ? &evidence->metadata : nullptr,
        workspace.meta_histogram);
  }
  {
    const obs::StageScope stage(stage_detail, metrics.categorize_ms,
                                "categorize");
    result.categories = flatten_categories(
        result.read, result.write, result.metadata, thresholds_,
        evidence != nullptr ? &evidence->rules : nullptr);
  }
  if (evidence != nullptr) {
    for (const Category category : result.categories.to_vector()) {
      evidence->categories.emplace_back(category_name(category));
    }
  }
  metrics.traces_analyzed.add();
  return result;
}

BatchResult analyze_population(std::span<const trace::Trace> traces,
                               const Thresholds& thresholds,
                               parallel::ThreadPool* pool) {
  return analyze_preprocessed(preprocess(traces), thresholds, pool);
}

BatchResult analyze_preprocessed(PreprocessResult pre,
                                 const Thresholds& thresholds,
                                 parallel::ThreadPool* pool) {
  BatchResult batch;
  batch.preprocess = pre.stats;
  batch.runs_per_app = std::move(pre.runs_per_app);

  const Analyzer analyzer(thresholds);
  batch.results.resize(pre.retained.size());
  if (pool != nullptr) {
    // One workspace per pool worker: parallel_for chunks only ever run on
    // pool threads, so worker_index() selects a private workspace with no
    // synchronization, and each worker's buffers reach their high-water
    // capacity after a handful of traces.
    std::vector<AnalyzerWorkspace> workspaces(pool->thread_count());
    parallel::parallel_for(
        *pool, pre.retained.size(), [&](std::size_t begin, std::size_t end) {
          const std::size_t worker = parallel::ThreadPool::worker_index();
          MOSAIC_ASSERT(worker < workspaces.size());
          AnalyzerWorkspace& workspace = workspaces[worker];
          for (std::size_t i = begin; i < end; ++i) {
            batch.results[i] = analyzer.analyze(pre.retained[i], workspace);
          }
        });
  } else {
    AnalyzerWorkspace workspace;
    for (std::size_t i = 0; i < pre.retained.size(); ++i) {
      batch.results[i] = analyzer.analyze(pre.retained[i], workspace);
    }
  }
  return batch;
}

}  // namespace mosaic::core

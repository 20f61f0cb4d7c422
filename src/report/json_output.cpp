#include "report/json_output.hpp"

#include "util/fs.hpp"

namespace mosaic::report {

using json::Array;
using json::Object;
using json::Value;

namespace {

Value kind_analysis_to_json(const core::KindAnalysis& analysis) {
  Object out;
  out.set("temporality", core::temporality_name(analysis.temporality.label));
  out.set("total_bytes", analysis.temporality.total_bytes);
  Array chunks;
  for (const double volume : analysis.temporality.chunk_bytes) {
    chunks.emplace_back(volume);
  }
  out.set("chunk_bytes", std::move(chunks));
  out.set("raw_ops", analysis.raw_ops);
  out.set("merged_ops", analysis.merged_ops);

  Object periodicity;
  periodicity.set("periodic", analysis.periodicity.periodic);
  Array groups;
  for (const core::PeriodicGroup& group : analysis.periodicity.groups) {
    Object g;
    g.set("period_seconds", group.period_seconds);
    g.set("magnitude", core::period_magnitude_name(group.magnitude));
    g.set("mean_bytes", group.mean_bytes);
    g.set("busy_ratio", group.busy_ratio);
    g.set("occurrences", group.occurrences);
    groups.emplace_back(std::move(g));
  }
  periodicity.set("groups", std::move(groups));
  out.set("periodicity", std::move(periodicity));
  return out;
}

Value metadata_to_json(const core::MetadataResult& metadata) {
  Object out;
  out.set("insignificant", metadata.insignificant);
  out.set("high_spike", metadata.high_spike);
  out.set("multiple_spikes", metadata.multiple_spikes);
  out.set("high_density", metadata.high_density);
  out.set("total_requests", metadata.total_requests);
  out.set("max_requests_per_second", metadata.max_requests_per_second);
  out.set("spike_seconds", metadata.spike_seconds);
  out.set("mean_requests_per_second", metadata.mean_requests_per_second);
  return out;
}

}  // namespace

Value trace_result_to_json(const core::TraceResult& result) {
  Object out;
  out.set("app", result.app_key);
  out.set("job_id", result.job_id);
  out.set("runtime_seconds", result.runtime);
  out.set("nprocs", static_cast<std::uint64_t>(result.nprocs));
  out.set("bytes_read", result.bytes_read);
  out.set("bytes_written", result.bytes_written);

  Array categories;
  for (const std::string& name : result.categories.names()) {
    categories.emplace_back(name);
  }
  out.set("categories", std::move(categories));

  out.set("read", kind_analysis_to_json(result.read));
  out.set("write", kind_analysis_to_json(result.write));
  out.set("metadata", metadata_to_json(result.metadata));
  return out;
}

Value batch_to_json(const core::BatchResult& batch, bool include_traces) {
  Object out;

  Object funnel;
  funnel.set("input_traces", batch.preprocess.input_traces);
  funnel.set("load_failed", batch.preprocess.load_failed);
  funnel.set("corrupted", batch.preprocess.corrupted);
  funnel.set("valid", batch.preprocess.valid);
  funnel.set("unique_applications", batch.preprocess.unique_applications);
  funnel.set("retained", batch.preprocess.retained);
  Object breakdown;
  for (const auto& [kind, count] : batch.preprocess.corruption_breakdown) {
    breakdown.set(kind, count);
  }
  funnel.set("corruption_breakdown", std::move(breakdown));
  Object evictions;
  for (const auto& [code, count] : batch.preprocess.eviction_breakdown) {
    evictions.set(code, count);
  }
  funnel.set("eviction_breakdown", std::move(evictions));
  out.set("preprocessing", std::move(funnel));

  const CategoryDistribution distribution = aggregate_categories(batch);
  Object categories;
  for (const core::Category category : core::all_categories()) {
    Object entry;
    entry.set("single_run_fraction", distribution.single_fraction(category));
    entry.set("all_runs_fraction", distribution.weighted_fraction(category));
    entry.set("trace_count",
              distribution.single[static_cast<std::size_t>(category)]);
    categories.set(std::string(core::category_name(category)),
                   std::move(entry));
  }
  out.set("categories", std::move(categories));
  out.set("trace_count", distribution.trace_count);
  out.set("run_count", distribution.run_count);

  if (include_traces) {
    Array traces;
    traces.reserve(batch.results.size());
    for (const core::TraceResult& result : batch.results) {
      traces.push_back(trace_result_to_json(result));
    }
    out.set("traces", std::move(traces));
  }
  return out;
}

util::Status write_batch_json(const core::BatchResult& batch,
                              const std::string& path, bool include_traces) {
  // Atomic so a batch killed mid-write leaves the previous summary intact
  // rather than a torn JSON document.
  return util::write_file_atomic(
      path, json::serialize(batch_to_json(batch, include_traces)));
}

}  // namespace mosaic::report

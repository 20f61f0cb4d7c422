#include "report/json_output.hpp"

#include "json/reader.hpp"
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

template <typename Label>
Label label_from_name(const json::Reader& r, std::string_view key,
                      Label last, const char* (*name_of)(Label) noexcept) {
  const std::string_view name = r.string(key);
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (name == name_of(static_cast<Label>(i))) return static_cast<Label>(i);
  }
  r.fail(key, "names an unknown label '" + std::string(name) + "'");
  return Label{};
}

core::KindAnalysis kind_analysis_from_json(const json::Reader& r) {
  core::KindAnalysis analysis;
  analysis.temporality.label =
      label_from_name(r, "temporality", core::Temporality::kUnclassified,
                      core::temporality_name);
  analysis.temporality.total_bytes = r.number("total_bytes");
  analysis.temporality.chunk_bytes = r.array("chunk_bytes").elements<double>();
  analysis.raw_ops = r.integer<std::size_t>("raw_ops");
  analysis.merged_ops = r.integer<std::size_t>("merged_ops");

  const json::Reader periodicity = r.object("periodicity");
  analysis.periodicity.periodic = periodicity.boolean("periodic");
  const json::Reader groups = periodicity.array("groups");
  for (std::size_t i = 0; i < groups.size() && r.ok(); ++i) {
    const json::Reader g = groups.object(i);
    core::PeriodicGroup group;
    group.period_seconds = g.number("period_seconds");
    group.magnitude =
        label_from_name(g, "magnitude", core::PeriodMagnitude::kDayOrMore,
                        core::period_magnitude_name);
    group.mean_bytes = g.number("mean_bytes");
    group.busy_ratio = g.number("busy_ratio");
    group.occurrences = g.integer<std::size_t>("occurrences");
    analysis.periodicity.groups.push_back(group);
  }
  return analysis;
}

core::MetadataResult metadata_from_json(const json::Reader& r) {
  core::MetadataResult metadata;
  metadata.insignificant = r.boolean("insignificant");
  metadata.high_spike = r.boolean("high_spike");
  metadata.multiple_spikes = r.boolean("multiple_spikes");
  metadata.high_density = r.boolean("high_density");
  metadata.total_requests = r.integer<std::uint64_t>("total_requests");
  metadata.max_requests_per_second = r.number("max_requests_per_second");
  metadata.spike_seconds = r.integer<std::size_t>("spike_seconds");
  metadata.mean_requests_per_second = r.number("mean_requests_per_second");
  return metadata;
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

util::Expected<core::TraceResult> trace_result_from_json(
    const json::Value& value) {
  const json::Reader r(value, "trace result JSON");
  core::TraceResult result;
  result.app_key = r.string("app");
  result.job_id = r.integer<std::uint64_t>("job_id");
  result.runtime = r.number("runtime_seconds");
  result.nprocs = r.integer<std::uint32_t>("nprocs");
  result.bytes_read = r.integer<std::uint64_t>("bytes_read");
  result.bytes_written = r.integer<std::uint64_t>("bytes_written");
  const json::Reader categories = r.array("categories");
  for (std::size_t i = 0; i < categories.size() && r.ok(); ++i) {
    const std::string_view name = categories.string(i);
    const auto category = core::category_from_name(name);
    if (category.has_value()) {
      result.categories.insert(*category);
    } else {
      categories.fail(i, "names an unknown category '" + std::string(name) +
                             "'");
    }
  }
  result.read = kind_analysis_from_json(r.object("read"));
  result.write = kind_analysis_from_json(r.object("write"));
  result.metadata = metadata_from_json(r.object("metadata"));
  return r.finish(std::move(result));
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

#include "obs/federation.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "util/fs.hpp"

namespace mosaic::obs {

using json::Array;
using json::Object;
using json::Value;

json::Value spans_to_wire_json(const std::vector<SpanEvent>& spans) {
  Array out;
  out.reserve(spans.size());
  for (const SpanEvent& span : spans) {
    Object s;
    s.set("n", std::string(span.name));
    s.set("s", span.start_ns);
    s.set("e", span.end_ns);
    s.set("t", static_cast<std::uint64_t>(span.tid));
    out.push_back(std::move(s));
  }
  return Value(std::move(out));
}

std::vector<FleetSpan> spans_from_wire_json(const json::Reader& spans) {
  std::vector<FleetSpan> out;
  out.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size() && spans.ok(); ++i) {
    const json::Reader span = spans.object(i);
    out.push_back({std::string(span.string("n")),
                   span.integer<std::uint64_t>("s"),
                   span.integer<std::uint64_t>("e"),
                   span.integer<std::uint32_t>("t")});
  }
  return out;
}

std::string with_worker_label(std::string_view series,
                              std::string_view worker) {
  std::string label = "worker=\"";
  for (const char c : worker) {
    if (c == '"' || c == '\\') label += '\\';
    label += c;
  }
  label += '"';
  const std::size_t brace = series.find('{');
  std::string out;
  out.reserve(series.size() + label.size() + 3);
  if (brace == std::string_view::npos) {
    out += series;
    out += '{';
    out += label;
    out += '}';
    return out;
  }
  out += series.substr(0, brace + 1);
  out += label;
  out += ',';
  out += series.substr(brace + 1);
  return out;
}

Snapshot merge_snapshots(
    std::vector<std::pair<std::string, Snapshot>> sources,
    MergeStats* stats) {
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  Snapshot out;
  std::map<std::string, CounterSample> counter_totals;
  std::map<std::string, HistogramSample> histogram_totals;
  for (const auto& [worker, snapshot] : sources) {
    for (const CounterSample& sample : snapshot.counters) {
      out.counters.push_back(
          {with_worker_label(sample.name, worker), sample.help, sample.value});
      CounterSample& total = counter_totals[sample.name];
      total.name = sample.name;
      if (total.help.empty()) total.help = sample.help;
      total.value += sample.value;
    }
    for (const GaugeSample& sample : snapshot.gauges) {
      // Per-source only: instantaneous values do not sum across processes.
      out.gauges.push_back(
          {with_worker_label(sample.name, worker), sample.help, sample.value});
    }
    for (const HistogramSample& sample : snapshot.histograms) {
      HistogramSample labeled_sample = sample;
      labeled_sample.name = with_worker_label(sample.name, worker);
      out.histograms.push_back(std::move(labeled_sample));
      const auto it = histogram_totals.find(sample.name);
      if (it == histogram_totals.end()) {
        histogram_totals.emplace(sample.name, sample);
        continue;
      }
      HistogramSample& total = it->second;
      if (total.bounds != sample.bounds ||
          total.buckets.size() != sample.buckets.size()) {
        // Bound disagreement makes bucket-wise addition meaningless; keep
        // the labeled series, reject the contribution to the fleet total.
        if (stats != nullptr) ++stats->histogram_bound_mismatches;
        continue;
      }
      for (std::size_t b = 0; b < total.buckets.size(); ++b) {
        total.buckets[b] += sample.buckets[b];
      }
      total.count += sample.count;
      total.sum += sample.sum;
    }
  }
  for (auto& [name, total] : counter_totals) {
    out.counters.push_back(std::move(total));
  }
  for (auto& [name, total] : histogram_totals) {
    out.histograms.push_back(std::move(total));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

namespace {

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

/// Microseconds with fixed 3-decimal precision: deterministic text for
/// identical inputs, sub-ns resolution is noise anyway.
void append_us(std::string& out, std::uint64_t ns) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buffer;
}

}  // namespace

std::string chrome_trace_from_lanes(const std::vector<TraceLane>& lanes) {
  // Re-base so the earliest shifted event lands at t=0.
  std::int64_t min_start = std::numeric_limits<std::int64_t>::max();
  std::size_t span_count = 0;
  for (const TraceLane& lane : lanes) {
    span_count += lane.spans.size();
    for (const FleetSpan& span : lane.spans) {
      min_start = std::min(min_start,
                           static_cast<std::int64_t>(span.start_ns) +
                               lane.clock_shift_ns);
    }
  }
  if (span_count == 0) min_start = 0;

  // Serialized by hand (not via json::Value): a long batch run holds
  // hundreds of thousands of events and the DOM representation would double
  // peak memory for no benefit.
  std::string out;
  out.reserve(span_count * 96 + lanes.size() * 96 + 256);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (std::size_t lane_index = 0; lane_index < lanes.size(); ++lane_index) {
    const TraceLane& lane = lanes[lane_index];
    const std::string pid = std::to_string(lane_index + 1);
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
    out += pid;
    out += ", \"args\": {\"name\": \"";
    append_json_escaped(out, lane.process_name);
    out += "\"}}";
    std::uint32_t last_tid = ~std::uint32_t{0};
    for (const FleetSpan& span : lane.spans) {
      if (span.tid != last_tid) {
        last_tid = span.tid;
        out += ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": ";
        out += pid;
        out += ", \"tid\": ";
        out += std::to_string(span.tid);
        out += ", \"args\": {\"name\": \"worker-";
        out += std::to_string(span.tid);
        out += "\"}}";
      }
      const std::int64_t shifted = static_cast<std::int64_t>(span.start_ns) +
                                   lane.clock_shift_ns - min_start;
      out += ",\n{\"name\": \"";
      append_json_escaped(out, span.name);
      out += "\", \"cat\": \"mosaic\", \"ph\": \"X\", \"pid\": ";
      out += pid;
      out += ", \"tid\": ";
      out += std::to_string(span.tid);
      out += ", \"ts\": ";
      append_us(out, shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0);
      out += ", \"dur\": ";
      append_us(out, span.end_ns > span.start_ns
                         ? span.end_ns - span.start_ns
                         : 0);
      out += "}";
    }
  }
  out += "\n]}\n";
  return out;
}

void FleetRegistry::update_snapshot(const std::string& source,
                                    Snapshot snapshot) {
  const std::scoped_lock lock(mutex_);
  sources_[source].snapshot = std::move(snapshot);
}

void FleetRegistry::update_spans(const std::string& source,
                                 std::vector<FleetSpan> spans) {
  const std::scoped_lock lock(mutex_);
  sources_[source].spans = std::move(spans);
}

void FleetRegistry::set_clock_offset_ns(const std::string& source,
                                        std::int64_t offset_ns) {
  const std::scoped_lock lock(mutex_);
  sources_[source].offset_ns = offset_ns;
}

std::vector<std::string> FleetRegistry::sources() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(sources_.size());
  for (const auto& [name, source] : sources_) names.push_back(name);
  return names;
}

Snapshot FleetRegistry::merged(MergeStats* stats) const {
  std::vector<std::pair<std::string, Snapshot>> sources;
  {
    const std::scoped_lock lock(mutex_);
    sources.reserve(sources_.size());
    for (const auto& [name, source] : sources_) {
      sources.emplace_back(name, source.snapshot);
    }
  }
  return merge_snapshots(std::move(sources), stats);
}

std::string FleetRegistry::chrome_trace_json() const {
  std::vector<TraceLane> lanes;
  {
    const std::scoped_lock lock(mutex_);
    lanes.reserve(sources_.size());
    // "manager" gets pid 1 when present; std::map order puts the remaining
    // sources in name order either way, so lane assignment is deterministic.
    const auto emit = [&lanes](const std::string& name,
                               const Source& source) {
      TraceLane lane;
      lane.process_name = name == "manager" ? name : "worker " + name;
      lane.clock_shift_ns = -source.offset_ns;
      lane.spans = source.spans;
      lanes.push_back(std::move(lane));
    };
    const auto manager = sources_.find("manager");
    if (manager != sources_.end()) emit(manager->first, manager->second);
    for (const auto& [name, source] : sources_) {
      if (name == "manager") continue;
      emit(name, source);
    }
  }
  return chrome_trace_from_lanes(lanes);
}

util::Status FleetRegistry::write_chrome_trace(const std::string& path) const {
  return util::write_file_atomic(path, chrome_trace_json());
}

}  // namespace mosaic::obs

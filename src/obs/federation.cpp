#include "obs/federation.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "util/fs.hpp"

namespace mosaic::obs {

using json::Array;
using json::Object;
using json::Value;
using util::Error;
using util::ErrorCode;
using util::Expected;

namespace {

Error wire_error(std::string what) {
  return Error{ErrorCode::kParseError, "telemetry wire: " + std::move(what)};
}

/// Member lookup that distinguishes "absent" from "wrong type" in the error.
Expected<const Value*> require(const Object& obj, const char* key,
                               bool (Value::*is_type)() const,
                               const char* type_name) {
  const Value* member = obj.find(key);
  if (member == nullptr) {
    return wire_error(std::string("missing '") + key + "'");
  }
  if (!(member->*is_type)()) {
    return wire_error(std::string("'") + key + "' is not " + type_name);
  }
  return member;
}

}  // namespace

json::Value snapshot_to_wire_json(const Snapshot& snapshot) {
  Object out;
  Array counters;
  counters.reserve(snapshot.counters.size());
  for (const CounterSample& sample : snapshot.counters) {
    Object c;
    c.set("name", sample.name);
    c.set("help", sample.help);
    c.set("value", sample.value);
    counters.push_back(std::move(c));
  }
  out.set("counters", std::move(counters));
  Array gauges;
  gauges.reserve(snapshot.gauges.size());
  for (const GaugeSample& sample : snapshot.gauges) {
    Object g;
    g.set("name", sample.name);
    g.set("help", sample.help);
    g.set("value", sample.value);
    gauges.push_back(std::move(g));
  }
  out.set("gauges", std::move(gauges));
  Array histograms;
  histograms.reserve(snapshot.histograms.size());
  for (const HistogramSample& sample : snapshot.histograms) {
    Object h;
    h.set("name", sample.name);
    h.set("help", sample.help);
    Array bounds;
    bounds.reserve(sample.bounds.size());
    for (const double bound : sample.bounds) bounds.push_back(bound);
    h.set("bounds", std::move(bounds));
    Array buckets;
    buckets.reserve(sample.buckets.size());
    for (const std::uint64_t bucket : sample.buckets) {
      buckets.push_back(bucket);
    }
    h.set("buckets", std::move(buckets));
    h.set("sum", sample.sum);
    histograms.push_back(std::move(h));
  }
  out.set("histograms", std::move(histograms));
  return Value(std::move(out));
}

Expected<Snapshot> snapshot_from_wire_json(const json::Value& value) {
  if (!value.is_object()) return wire_error("snapshot is not an object");
  const Object& obj = value.as_object();
  Snapshot snapshot;

  auto counters = require(obj, "counters", &Value::is_array, "an array");
  if (!counters.has_value()) return counters.error();
  for (const Value& member : (*counters)->as_array()) {
    if (!member.is_object()) return wire_error("counter is not an object");
    const Object& c = member.as_object();
    auto name = require(c, "name", &Value::is_string, "a string");
    if (!name.has_value()) return name.error();
    auto help = require(c, "help", &Value::is_string, "a string");
    if (!help.has_value()) return help.error();
    auto v = require(c, "value", &Value::is_number, "a number");
    if (!v.has_value()) return v.error();
    snapshot.counters.push_back(
        {(*name)->as_string(), (*help)->as_string(),
         static_cast<std::uint64_t>((*v)->as_number())});
  }

  auto gauges = require(obj, "gauges", &Value::is_array, "an array");
  if (!gauges.has_value()) return gauges.error();
  for (const Value& member : (*gauges)->as_array()) {
    if (!member.is_object()) return wire_error("gauge is not an object");
    const Object& g = member.as_object();
    auto name = require(g, "name", &Value::is_string, "a string");
    if (!name.has_value()) return name.error();
    auto help = require(g, "help", &Value::is_string, "a string");
    if (!help.has_value()) return help.error();
    auto v = require(g, "value", &Value::is_number, "a number");
    if (!v.has_value()) return v.error();
    snapshot.gauges.push_back({(*name)->as_string(), (*help)->as_string(),
                               static_cast<std::int64_t>((*v)->as_number())});
  }

  auto histograms = require(obj, "histograms", &Value::is_array, "an array");
  if (!histograms.has_value()) return histograms.error();
  for (const Value& member : (*histograms)->as_array()) {
    if (!member.is_object()) return wire_error("histogram is not an object");
    const Object& h = member.as_object();
    auto name = require(h, "name", &Value::is_string, "a string");
    if (!name.has_value()) return name.error();
    auto help = require(h, "help", &Value::is_string, "a string");
    if (!help.has_value()) return help.error();
    auto bounds = require(h, "bounds", &Value::is_array, "an array");
    if (!bounds.has_value()) return bounds.error();
    auto buckets = require(h, "buckets", &Value::is_array, "an array");
    if (!buckets.has_value()) return buckets.error();
    auto sum = require(h, "sum", &Value::is_number, "a number");
    if (!sum.has_value()) return sum.error();
    HistogramSample sample;
    sample.name = (*name)->as_string();
    sample.help = (*help)->as_string();
    for (const Value& bound : (*bounds)->as_array()) {
      if (!bound.is_number()) return wire_error("histogram bound not numeric");
      sample.bounds.push_back(bound.as_number());
    }
    for (const Value& bucket : (*buckets)->as_array()) {
      if (!bucket.is_number()) {
        return wire_error("histogram bucket not numeric");
      }
      const auto count = static_cast<std::uint64_t>(bucket.as_number());
      sample.buckets.push_back(count);
      sample.count += count;
    }
    if (sample.buckets.size() != sample.bounds.size() + 1) {
      return wire_error("histogram '" + sample.name + "' has " +
                        std::to_string(sample.buckets.size()) +
                        " buckets for " + std::to_string(sample.bounds.size()) +
                        " bounds (want bounds + 1)");
    }
    sample.sum = (*sum)->as_number();
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

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

Expected<std::vector<FleetSpan>> spans_from_wire_json(
    const json::Value& value) {
  if (!value.is_array()) return wire_error("spans are not an array");
  std::vector<FleetSpan> spans;
  spans.reserve(value.as_array().size());
  for (const Value& member : value.as_array()) {
    if (!member.is_object()) return wire_error("span is not an object");
    const Object& s = member.as_object();
    auto name = require(s, "n", &Value::is_string, "a string");
    if (!name.has_value()) return name.error();
    auto start = require(s, "s", &Value::is_number, "a number");
    if (!start.has_value()) return start.error();
    auto end = require(s, "e", &Value::is_number, "a number");
    if (!end.has_value()) return end.error();
    auto tid = require(s, "t", &Value::is_number, "a number");
    if (!tid.has_value()) return tid.error();
    FleetSpan span;
    span.name = (*name)->as_string();
    span.start_ns = static_cast<std::uint64_t>((*start)->as_number());
    span.end_ns = static_cast<std::uint64_t>((*end)->as_number());
    span.tid = static_cast<std::uint32_t>((*tid)->as_number());
    spans.push_back(std::move(span));
  }
  return spans;
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

std::size_t FleetRegistry::source_count() const {
  const std::scoped_lock lock(mutex_);
  return sources_.size();
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

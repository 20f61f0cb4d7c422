#include "obs/provenance.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace mosaic::obs {

namespace {

json::Array doubles_to_json(const std::vector<double>& values) {
  json::Array out;
  out.reserve(values.size());
  for (const double v : values) out.emplace_back(v);
  return out;
}

json::Array strings_to_json(const std::vector<std::string>& values) {
  json::Array out;
  out.reserve(values.size());
  for (const std::string& v : values) out.emplace_back(v);
  return out;
}

json::Value merge_to_json(const MergeProvenance& m) {
  json::Object out;
  out.set("raw_ops", m.raw_ops);
  out.set("after_concurrent", m.after_concurrent);
  out.set("merged_ops", m.merged_ops);
  out.set("covered_seconds_before", m.covered_seconds_before);
  out.set("covered_seconds_after", m.covered_seconds_after);
  return out;
}

json::Value mean_shift_to_json(const MeanShiftProvenance& ms) {
  json::Object out;
  out.set("ran", ms.ran);
  out.set("bandwidth", ms.bandwidth);
  out.set("duration_cv_limit", ms.duration_cv_limit);
  out.set("volume_cv_limit", ms.volume_cv_limit);
  out.set("points", ms.points);
  out.set("iterations", ms.iterations);
  json::Array candidates;
  for (const MeanShiftCandidate& c : ms.candidates) {
    json::Object cand;
    cand.set("size", c.size);
    cand.set("period_seconds", c.period_seconds);
    cand.set("duration_cv", c.duration_cv);
    cand.set("volume_cv", c.volume_cv);
    cand.set("center_length", c.center_length);
    cand.set("center_log_volume", c.center_log_volume);
    cand.set("accepted", c.accepted);
    cand.set("rejected_by", c.rejected_by);
    candidates.emplace_back(std::move(cand));
  }
  out.set("candidates", std::move(candidates));
  return out;
}

json::Value frequency_to_json(const FrequencyProvenance& f) {
  json::Object out;
  out.set("ran", f.ran);
  out.set("bin_seconds", f.bin_seconds);
  out.set("min_score", f.min_score);
  json::Array peaks;
  for (const FrequencyPeak& p : f.peaks) {
    json::Object peak;
    peak.set("period_seconds", p.period_seconds);
    peak.set("score", p.score);
    peak.set("occurrences", p.occurrences);
    peak.set("accepted", p.accepted);
    peaks.emplace_back(std::move(peak));
  }
  out.set("peaks", std::move(peaks));
  return out;
}

json::Value periodicity_to_json(const PeriodicityProvenance& p) {
  json::Object out;
  out.set("backend", p.backend);
  out.set("periodic", p.periodic);
  out.set("confidence", p.confidence);
  out.set("mean_shift", mean_shift_to_json(p.mean_shift));
  out.set("frequency", frequency_to_json(p.frequency));
  json::Array groups;
  for (const PeriodicGroupProvenance& g : p.groups) {
    json::Object group;
    group.set("period_seconds", g.period_seconds);
    group.set("mean_bytes", g.mean_bytes);
    group.set("busy_ratio", g.busy_ratio);
    group.set("occurrences", g.occurrences);
    group.set("magnitude", g.magnitude);
    groups.emplace_back(std::move(group));
  }
  out.set("groups", std::move(groups));
  return out;
}

json::Value temporality_to_json(const TemporalityProvenance& t) {
  json::Object out;
  out.set("chunk_bytes", doubles_to_json(t.chunk_bytes));
  out.set("total_bytes", t.total_bytes);
  out.set("min_bytes_threshold", t.min_bytes_threshold);
  out.set("chunk_cv", t.chunk_cv);
  out.set("steady_cv_threshold", t.steady_cv_threshold);
  out.set("dominance_factor", t.dominance_factor);
  out.set("dominant_chunk", t.dominant_chunk);
  out.set("rule", t.rule);
  out.set("label", t.label);
  out.set("confidence", t.confidence);
  return out;
}

json::Value kind_to_json(const KindProvenance& k) {
  json::Object out;
  out.set("merge", merge_to_json(k.merge));
  out.set("segments", k.segments);
  out.set("periodicity", periodicity_to_json(k.periodicity));
  out.set("temporality", temporality_to_json(k.temporality));
  return out;
}

json::Value metadata_to_json(const MetadataProvenance& m) {
  json::Object out;
  out.set("total_requests", m.total_requests);
  out.set("nprocs", m.nprocs);
  out.set("max_requests_per_second", m.max_requests_per_second);
  out.set("mean_requests_per_second", m.mean_requests_per_second);
  out.set("spike_seconds", m.spike_seconds);
  out.set("high_spike_threshold", m.high_spike_threshold);
  out.set("spike_threshold", m.spike_threshold);
  out.set("multiple_spike_count", m.multiple_spike_count);
  out.set("high_density_mean_threshold", m.high_density_mean_threshold);
  out.set("insignificant", m.insignificant);
  out.set("high_spike", m.high_spike);
  out.set("multiple_spikes", m.multiple_spikes);
  out.set("high_density", m.high_density);
  out.set("confidence", m.confidence);
  return out;
}

// --- parsing helpers --------------------------------------------------------

const json::Value* member(const json::Value& value, std::string_view key) {
  return value.is_object() ? value.as_object().find(key) : nullptr;
}

double get_number(const json::Value& value, std::string_view key,
                  double fallback = 0.0) {
  const json::Value* v = member(value, key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::uint64_t get_uint(const json::Value& value, std::string_view key) {
  return static_cast<std::uint64_t>(get_number(value, key));
}

bool get_bool(const json::Value& value, std::string_view key) {
  const json::Value* v = member(value, key);
  return v != nullptr && v->is_bool() && v->as_bool();
}

std::string get_string(const json::Value& value, std::string_view key) {
  const json::Value* v = member(value, key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

MergeProvenance merge_from_json(const json::Value& v) {
  MergeProvenance m;
  m.raw_ops = get_uint(v, "raw_ops");
  m.after_concurrent = get_uint(v, "after_concurrent");
  m.merged_ops = get_uint(v, "merged_ops");
  m.covered_seconds_before = get_number(v, "covered_seconds_before");
  m.covered_seconds_after = get_number(v, "covered_seconds_after");
  return m;
}

MeanShiftProvenance mean_shift_from_json(const json::Value& v) {
  MeanShiftProvenance ms;
  ms.ran = get_bool(v, "ran");
  ms.bandwidth = get_number(v, "bandwidth");
  ms.duration_cv_limit = get_number(v, "duration_cv_limit");
  ms.volume_cv_limit = get_number(v, "volume_cv_limit");
  ms.points = get_uint(v, "points");
  ms.iterations = get_uint(v, "iterations");
  if (const json::Value* arr = member(v, "candidates");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& item : arr->as_array()) {
      MeanShiftCandidate c;
      c.size = get_uint(item, "size");
      c.period_seconds = get_number(item, "period_seconds");
      c.duration_cv = get_number(item, "duration_cv");
      c.volume_cv = get_number(item, "volume_cv");
      c.center_length = get_number(item, "center_length");
      c.center_log_volume = get_number(item, "center_log_volume");
      c.accepted = get_bool(item, "accepted");
      c.rejected_by = get_string(item, "rejected_by");
      ms.candidates.push_back(std::move(c));
    }
  }
  return ms;
}

FrequencyProvenance frequency_from_json(const json::Value& v) {
  FrequencyProvenance f;
  f.ran = get_bool(v, "ran");
  f.bin_seconds = get_number(v, "bin_seconds");
  f.min_score = get_number(v, "min_score");
  if (const json::Value* arr = member(v, "peaks");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& item : arr->as_array()) {
      FrequencyPeak p;
      p.period_seconds = get_number(item, "period_seconds");
      p.score = get_number(item, "score");
      p.occurrences = get_uint(item, "occurrences");
      p.accepted = get_bool(item, "accepted");
      f.peaks.push_back(p);
    }
  }
  return f;
}

PeriodicityProvenance periodicity_from_json(const json::Value& v) {
  PeriodicityProvenance p;
  p.backend = get_string(v, "backend");
  p.periodic = get_bool(v, "periodic");
  p.confidence = get_number(v, "confidence");
  if (const json::Value* ms = member(v, "mean_shift"); ms != nullptr) {
    p.mean_shift = mean_shift_from_json(*ms);
  }
  if (const json::Value* f = member(v, "frequency"); f != nullptr) {
    p.frequency = frequency_from_json(*f);
  }
  if (const json::Value* arr = member(v, "groups");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& item : arr->as_array()) {
      PeriodicGroupProvenance g;
      g.period_seconds = get_number(item, "period_seconds");
      g.mean_bytes = get_number(item, "mean_bytes");
      g.busy_ratio = get_number(item, "busy_ratio");
      g.occurrences = get_uint(item, "occurrences");
      g.magnitude = get_string(item, "magnitude");
      p.groups.push_back(std::move(g));
    }
  }
  return p;
}

TemporalityProvenance temporality_from_json(const json::Value& v) {
  TemporalityProvenance t;
  if (const json::Value* arr = member(v, "chunk_bytes");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& item : arr->as_array()) {
      if (item.is_number()) t.chunk_bytes.push_back(item.as_number());
    }
  }
  t.total_bytes = get_number(v, "total_bytes");
  t.min_bytes_threshold = get_number(v, "min_bytes_threshold");
  t.chunk_cv = get_number(v, "chunk_cv");
  t.steady_cv_threshold = get_number(v, "steady_cv_threshold");
  t.dominance_factor = get_number(v, "dominance_factor");
  t.dominant_chunk =
      static_cast<std::int64_t>(get_number(v, "dominant_chunk", -1.0));
  t.rule = get_string(v, "rule");
  t.label = get_string(v, "label");
  t.confidence = get_number(v, "confidence");
  return t;
}

KindProvenance kind_from_json(const json::Value& v) {
  KindProvenance k;
  if (const json::Value* m = member(v, "merge"); m != nullptr) {
    k.merge = merge_from_json(*m);
  }
  k.segments = get_uint(v, "segments");
  if (const json::Value* p = member(v, "periodicity"); p != nullptr) {
    k.periodicity = periodicity_from_json(*p);
  }
  if (const json::Value* t = member(v, "temporality"); t != nullptr) {
    k.temporality = temporality_from_json(*t);
  }
  return k;
}

MetadataProvenance metadata_from_json(const json::Value& v) {
  MetadataProvenance m;
  m.total_requests = get_uint(v, "total_requests");
  m.nprocs = get_uint(v, "nprocs");
  m.max_requests_per_second = get_number(v, "max_requests_per_second");
  m.mean_requests_per_second = get_number(v, "mean_requests_per_second");
  m.spike_seconds = get_uint(v, "spike_seconds");
  m.high_spike_threshold = get_number(v, "high_spike_threshold");
  m.spike_threshold = get_number(v, "spike_threshold");
  m.multiple_spike_count = get_uint(v, "multiple_spike_count");
  m.high_density_mean_threshold = get_number(v, "high_density_mean_threshold");
  m.insignificant = get_bool(v, "insignificant");
  m.high_spike = get_bool(v, "high_spike");
  m.multiple_spikes = get_bool(v, "multiple_spikes");
  m.high_density = get_bool(v, "high_density");
  m.confidence = get_number(v, "confidence");
  return m;
}

// --- explain rendering ------------------------------------------------------

void append_format(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_format(std::string& out, const char* fmt, ...) {
  char line[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof line, fmt, args);
  va_end(args);
  out += line;
}

void explain_kind(std::string& out, const char* kind,
                  const KindProvenance& k) {
  append_format(out,
                "[%s] merge: %" PRIu64 " raw ops -> %" PRIu64
                " after concurrent merge -> %" PRIu64
                " after neighbor merge (covered %s -> %s)\n",
                kind, k.merge.raw_ops, k.merge.after_concurrent,
                k.merge.merged_ops,
                util::format_duration(k.merge.covered_seconds_before).c_str(),
                util::format_duration(k.merge.covered_seconds_after).c_str());
  append_format(out, "[%s] segment: %" PRIu64 " inter-operation segments\n",
                kind, k.segments);

  const PeriodicityProvenance& p = k.periodicity;
  append_format(out, "[%s] periodicity (backend %s):\n", kind,
                p.backend.c_str());
  if (p.mean_shift.ran) {
    append_format(out,
                  "    mean-shift: %" PRIu64
                  " points, bandwidth %.3f, %" PRIu64 " iterations, %zu "
                  "cluster candidate(s)\n",
                  p.mean_shift.points, p.mean_shift.bandwidth,
                  p.mean_shift.iterations, p.mean_shift.candidates.size());
    for (std::size_t i = 0; i < p.mean_shift.candidates.size(); ++i) {
      const MeanShiftCandidate& c = p.mean_shift.candidates[i];
      if (c.accepted) {
        append_format(out,
                      "      cluster %zu: %" PRIu64
                      " segments, period %.3fs, duration CV %.3f <= %.3f, "
                      "volume CV %.3f <= %.3f -> accepted\n",
                      i, c.size, c.period_seconds, c.duration_cv,
                      p.mean_shift.duration_cv_limit, c.volume_cv,
                      p.mean_shift.volume_cv_limit);
      } else {
        append_format(out,
                      "      cluster %zu: %" PRIu64
                      " segments, period %.3fs, duration CV %.3f, volume CV "
                      "%.3f -> rejected (%s)\n",
                      i, c.size, c.period_seconds, c.duration_cv, c.volume_cv,
                      c.rejected_by.c_str());
      }
    }
  }
  if (p.frequency.ran) {
    append_format(out,
                  "    frequency: bin %.3fs, min comb score %.3f, %zu "
                  "peak(s)\n",
                  p.frequency.bin_seconds, p.frequency.min_score,
                  p.frequency.peaks.size());
    for (const FrequencyPeak& peak : p.frequency.peaks) {
      append_format(out,
                    "      peak: period %.3fs, score %.3f %s %.3f, "
                    "%" PRIu64 " occurrences -> %s\n",
                    peak.period_seconds, peak.score,
                    peak.score >= p.frequency.min_score ? ">=" : "<",
                    p.frequency.min_score, peak.occurrences,
                    peak.accepted ? "accepted" : "rejected");
    }
  }
  if (p.periodic) {
    append_format(out, "    -> periodic, %zu group(s) (confidence %.3f)\n",
                  p.groups.size(), p.confidence);
    for (const PeriodicGroupProvenance& g : p.groups) {
      append_format(out,
                    "      group: period %s (%s) x%" PRIu64
                    ", %s per occurrence, busy %.1f%%\n",
                    util::format_duration(g.period_seconds).c_str(),
                    g.magnitude.c_str(), g.occurrences,
                    util::format_bytes(g.mean_bytes).c_str(),
                    g.busy_ratio * 100.0);
    }
  } else {
    append_format(out, "    -> not periodic (confidence %.3f)\n",
                  p.confidence);
  }

  const TemporalityProvenance& t = k.temporality;
  out += "[";
  out += kind;
  out += "] temporality: chunks [";
  for (std::size_t i = 0; i < t.chunk_bytes.size(); ++i) {
    const double share =
        t.total_bytes > 0.0 ? t.chunk_bytes[i] / t.total_bytes : 0.0;
    append_format(out, "%s%.1f%%", i == 0 ? "" : ", ", share * 100.0);
  }
  append_format(out, "] of %s (threshold %s)\n",
                util::format_bytes(t.total_bytes).c_str(),
                util::format_bytes(t.min_bytes_threshold).c_str());
  append_format(out, "    chunk CV %.3f vs steady %.3f, dominance %.1fx",
                t.chunk_cv, t.steady_cv_threshold, t.dominance_factor);
  if (t.dominant_chunk >= 0) {
    append_format(out, ", chunk %lld dominates",
                  static_cast<long long>(t.dominant_chunk));
  }
  append_format(out, "\n    rule '%s' -> %s (confidence %.3f)\n",
                t.rule.c_str(), t.label.c_str(), t.confidence);
}

}  // namespace

json::Value provenance_to_json(const TraceProvenance& record) {
  json::Object out;
  out.set("app_key", record.app_key);
  out.set("job_id", record.job_id);
  out.set("runtime", record.runtime);
  out.set("nprocs", record.nprocs);
  out.set("read", kind_to_json(record.read));
  out.set("write", kind_to_json(record.write));
  out.set("metadata", metadata_to_json(record.metadata));
  out.set("rules", strings_to_json(record.rules));
  out.set("categories", strings_to_json(record.categories));
  return out;
}

util::Expected<TraceProvenance> provenance_from_json(const json::Value& value) {
  if (!value.is_object()) {
    return util::Error(util::ErrorCode::kParseError,
                       "provenance record is not a JSON object");
  }
  TraceProvenance record;
  record.app_key = get_string(value, "app_key");
  record.job_id = get_uint(value, "job_id");
  record.runtime = get_number(value, "runtime");
  record.nprocs = get_uint(value, "nprocs");
  if (const json::Value* v = member(value, "read"); v != nullptr) {
    record.read = kind_from_json(*v);
  }
  if (const json::Value* v = member(value, "write"); v != nullptr) {
    record.write = kind_from_json(*v);
  }
  if (const json::Value* v = member(value, "metadata"); v != nullptr) {
    record.metadata = metadata_from_json(*v);
  }
  if (const json::Value* v = member(value, "rules");
      v != nullptr && v->is_array()) {
    for (const json::Value& item : v->as_array()) {
      if (item.is_string()) record.rules.push_back(item.as_string());
    }
  }
  if (const json::Value* v = member(value, "categories");
      v != nullptr && v->is_array()) {
    for (const json::Value& item : v->as_array()) {
      if (item.is_string()) record.categories.push_back(item.as_string());
    }
  }
  return record;
}

std::string explain_text(const TraceProvenance& record) {
  std::string out;
  append_format(out,
                "trace %s job %" PRIu64 " (runtime %s, %" PRIu64 " ranks)\n\n",
                record.app_key.c_str(), record.job_id,
                util::format_duration(record.runtime).c_str(), record.nprocs);
  explain_kind(out, "read", record.read);
  explain_kind(out, "write", record.write);

  const MetadataProvenance& m = record.metadata;
  append_format(out,
                "[metadata] %" PRIu64 " requests on %" PRIu64
                " ranks, peak %.1f req/s (spike >= %.0f, high spike >= "
                "%.0f), %" PRIu64 " spike second(s) (multiple >= %" PRIu64
                "), mean %.2f req/s (high density >= %.0f)\n",
                m.total_requests, m.nprocs, m.max_requests_per_second,
                m.spike_threshold, m.high_spike_threshold, m.spike_seconds,
                m.multiple_spike_count, m.mean_requests_per_second,
                m.high_density_mean_threshold);
  append_format(out,
                "    -> insignificant=%s high_spike=%s multiple_spikes=%s "
                "high_density=%s (confidence %.3f)\n",
                m.insignificant ? "yes" : "no", m.high_spike ? "yes" : "no",
                m.multiple_spikes ? "yes" : "no",
                m.high_density ? "yes" : "no", m.confidence);

  out += "\nrules:\n";
  for (const std::string& rule : record.rules) {
    out += "  - " + rule + "\n";
  }
  out += "\ncategories:\n";
  for (const std::string& category : record.categories) {
    out += "  " + category + "\n";
  }
  return out;
}

ProvenanceJournal& ProvenanceJournal::global() {
  // Leaky singleton, same lifetime discipline as Registry / SpanTracer.
  static auto* journal = new ProvenanceJournal();
  return *journal;
}

void ProvenanceJournal::enable(std::uint64_t sample_every,
                               std::size_t capacity) {
  sample_every_.store(sample_every == 0 ? 1 : sample_every,
                      std::memory_order_relaxed);
  capacity_.store(capacity == 0 ? 1 : capacity, std::memory_order_relaxed);
  tick_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void ProvenanceJournal::disable() noexcept {
  enabled_.store(false, std::memory_order_relaxed);
}

std::uint64_t ProvenanceJournal::sample_every() const noexcept {
  return sample_every_.load(std::memory_order_relaxed);
}

bool ProvenanceJournal::should_sample() noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return false;
  const std::uint64_t every = sample_every_.load(std::memory_order_relaxed);
  return tick_.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

void ProvenanceJournal::record(TraceProvenance record) {
  static Counter& records_counter = Registry::global().counter(
      names::kProvenanceRecords, "provenance records captured by the journal");
  records_counter.add();
  const std::scoped_lock lock(mutex_);
  const std::size_t capacity = capacity_.load(std::memory_order_relaxed);
  if (records_.size() < capacity) {
    records_.push_back(std::move(record));
  } else {
    records_[next_] = std::move(record);
    next_ = (next_ + 1) % records_.size();
    ++dropped_;
  }
}

std::vector<TraceProvenance> ProvenanceJournal::collect() const {
  std::vector<TraceProvenance> out;
  {
    const std::scoped_lock lock(mutex_);
    out = records_;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceProvenance& a, const TraceProvenance& b) {
              if (a.app_key != b.app_key) return a.app_key < b.app_key;
              return a.job_id < b.job_id;
            });
  return out;
}

std::size_t ProvenanceJournal::size() const {
  const std::scoped_lock lock(mutex_);
  return records_.size();
}

util::Status ProvenanceJournal::write_jsonl(const std::string& path) const {
  std::string payload;
  for (const TraceProvenance& record : collect()) {
    payload += json::serialize(provenance_to_json(record), /*pretty=*/false);
    payload += '\n';
  }
  return util::write_file_atomic(path, payload);
}

std::uint64_t ProvenanceJournal::dropped() const {
  const std::scoped_lock lock(mutex_);
  return dropped_;
}

void ProvenanceJournal::reset() {
  const std::scoped_lock lock(mutex_);
  records_.clear();
  next_ = 0;
  dropped_ = 0;
}

util::Expected<std::vector<TraceProvenance>> read_provenance_jsonl(
    const std::string& path) {
  return json::read_jsonl(path, provenance_from_json);
}

}  // namespace mosaic::obs

#include "obs/provenance.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "json/reader.hpp"
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

// --- parsing: every member is optional (absent -> the struct default) ----

std::vector<std::string> strings_from_json(const json::Reader& r,
                                           std::string_view key) {
  return r.array(key, json::Presence::kOptional).elements<std::string>();
}

MergeProvenance merge_from_json(const json::Reader& r) {
  MergeProvenance m;
  m.raw_ops = r.integer<std::uint64_t>("raw_ops", 0);
  m.after_concurrent = r.integer<std::uint64_t>("after_concurrent", 0);
  m.merged_ops = r.integer<std::uint64_t>("merged_ops", 0);
  m.covered_seconds_before = r.number("covered_seconds_before", 0.0);
  m.covered_seconds_after = r.number("covered_seconds_after", 0.0);
  return m;
}

MeanShiftProvenance mean_shift_from_json(const json::Reader& r) {
  MeanShiftProvenance ms;
  ms.ran = r.boolean("ran", false);
  ms.bandwidth = r.number("bandwidth", 0.0);
  ms.duration_cv_limit = r.number("duration_cv_limit", 0.0);
  ms.volume_cv_limit = r.number("volume_cv_limit", 0.0);
  ms.points = r.integer<std::uint64_t>("points", 0);
  ms.iterations = r.integer<std::uint64_t>("iterations", 0);
  const json::Reader candidates =
      r.array("candidates", json::Presence::kOptional);
  for (std::size_t i = 0; i < candidates.size() && r.ok(); ++i) {
    const json::Reader c = candidates.object(i);
    ms.candidates.push_back({c.integer<std::uint64_t>("size", 0),
                             c.number("period_seconds", 0.0),
                             c.number("duration_cv", 0.0),
                             c.number("volume_cv", 0.0),
                             c.number("center_length", 0.0),
                             c.number("center_log_volume", 0.0),
                             c.boolean("accepted", false),
                             std::string(c.string("rejected_by", ""))});
  }
  return ms;
}

FrequencyProvenance frequency_from_json(const json::Reader& r) {
  FrequencyProvenance f;
  f.ran = r.boolean("ran", false);
  f.bin_seconds = r.number("bin_seconds", 0.0);
  f.min_score = r.number("min_score", 0.0);
  const json::Reader peaks = r.array("peaks", json::Presence::kOptional);
  for (std::size_t i = 0; i < peaks.size() && r.ok(); ++i) {
    const json::Reader p = peaks.object(i);
    f.peaks.push_back({p.number("period_seconds", 0.0), p.number("score", 0.0),
                       p.integer<std::uint64_t>("occurrences", 0),
                       p.boolean("accepted", false)});
  }
  return f;
}

PeriodicityProvenance periodicity_from_json(const json::Reader& r) {
  using json::Presence;
  PeriodicityProvenance p;
  p.backend = r.string("backend", "");
  p.periodic = r.boolean("periodic", false);
  p.confidence = r.number("confidence", 0.0);
  p.mean_shift =
      mean_shift_from_json(r.object("mean_shift", Presence::kOptional));
  p.frequency = frequency_from_json(r.object("frequency", Presence::kOptional));
  const json::Reader groups = r.array("groups", Presence::kOptional);
  for (std::size_t i = 0; i < groups.size() && r.ok(); ++i) {
    const json::Reader g = groups.object(i);
    p.groups.push_back({g.number("period_seconds", 0.0),
                        g.number("mean_bytes", 0.0),
                        g.number("busy_ratio", 0.0),
                        g.integer<std::uint64_t>("occurrences", 0),
                        std::string(g.string("magnitude", ""))});
  }
  return p;
}

TemporalityProvenance temporality_from_json(const json::Reader& r) {
  TemporalityProvenance t;
  t.chunk_bytes =
      r.array("chunk_bytes", json::Presence::kOptional).elements<double>();
  t.total_bytes = r.number("total_bytes", 0.0);
  t.min_bytes_threshold = r.number("min_bytes_threshold", 0.0);
  t.chunk_cv = r.number("chunk_cv", 0.0);
  t.steady_cv_threshold = r.number("steady_cv_threshold", 0.0);
  t.dominance_factor = r.number("dominance_factor", 0.0);
  t.dominant_chunk = r.integer<std::int64_t>("dominant_chunk", -1);
  t.rule = r.string("rule", "");
  t.label = r.string("label", "");
  t.confidence = r.number("confidence", 0.0);
  return t;
}

KindProvenance kind_from_json(const json::Reader& r) {
  using json::Presence;
  KindProvenance k;
  k.merge = merge_from_json(r.object("merge", Presence::kOptional));
  k.segments = r.integer<std::uint64_t>("segments", 0);
  k.periodicity =
      periodicity_from_json(r.object("periodicity", Presence::kOptional));
  k.temporality =
      temporality_from_json(r.object("temporality", Presence::kOptional));
  return k;
}

MetadataProvenance metadata_from_json(const json::Reader& r) {
  MetadataProvenance m;
  m.total_requests = r.integer<std::uint64_t>("total_requests", 0);
  m.nprocs = r.integer<std::uint64_t>("nprocs", 0);
  m.max_requests_per_second = r.number("max_requests_per_second", 0.0);
  m.mean_requests_per_second = r.number("mean_requests_per_second", 0.0);
  m.spike_seconds = r.integer<std::uint64_t>("spike_seconds", 0);
  m.high_spike_threshold = r.number("high_spike_threshold", 0.0);
  m.spike_threshold = r.number("spike_threshold", 0.0);
  m.multiple_spike_count = r.integer<std::uint64_t>("multiple_spike_count", 0);
  m.high_density_mean_threshold =
      r.number("high_density_mean_threshold", 0.0);
  m.insignificant = r.boolean("insignificant", false);
  m.high_spike = r.boolean("high_spike", false);
  m.multiple_spikes = r.boolean("multiple_spikes", false);
  m.high_density = r.boolean("high_density", false);
  m.confidence = r.number("confidence", 0.0);
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
  using json::Presence;
  const json::Reader r(value, "provenance record");
  TraceProvenance record;
  record.app_key = r.string("app_key", "");
  record.job_id = r.integer<std::uint64_t>("job_id", 0);
  record.runtime = r.number("runtime", 0.0);
  record.nprocs = r.integer<std::uint64_t>("nprocs", 0);
  record.read = kind_from_json(r.object("read", Presence::kOptional));
  record.write = kind_from_json(r.object("write", Presence::kOptional));
  record.metadata =
      metadata_from_json(r.object("metadata", Presence::kOptional));
  record.rules = strings_from_json(r, "rules");
  record.categories = strings_from_json(r, "categories");
  return r.finish(std::move(record));
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

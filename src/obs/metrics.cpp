#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/error.hpp"

namespace mosaic::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// Shortest %g rendering that still round-trips counters and bucket edges;
/// used for both exposition formats so they agree on formatting.
std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  // Prefer the shorter %g form when it round-trips exactly.
  char shorter[64];
  std::snprintf(shorter, sizeof shorter, "%g", value);
  double parsed = 0.0;
  if (std::sscanf(shorter, "%lf", &parsed) == 1 && parsed == value) {
    return shorter;
  }
  return buffer;
}

}  // namespace

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() noexcept {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  MOSAIC_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (Shard& shard : shards_) {
    shard.buckets =
        std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t b = 0; b <= bounds_.size(); ++b) {
      shard.buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::observe(double value) noexcept {
  if (!metrics_enabled()) return;
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  Shard& shard = shards_[shard_index()];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS add: atomic<double>::fetch_add is C++20 but spotty across
  // standard libraries; the loop is contention-free on a thread-local shard.
  double current = shard.sum.load(std::memory_order_relaxed);
  while (!shard.sum.compare_exchange_weak(current, current + value,
                                          std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (std::size_t b = 0; b < counts.size(); ++b) {
      counts[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    for (std::size_t b = 0; b <= bounds_.size(); ++b) {
      total += shard.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::sum() const noexcept {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::reset() noexcept {
  for (Shard& shard : shards_) {
    for (std::size_t b = 0; b <= bounds_.size(); ++b) {
      shard.buckets[b].store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

Registry& Registry::global() {
  // Leaked on purpose: pool workers may record during static destruction.
  static Registry* instance = new Registry();
  return *instance;
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  const std::scoped_lock lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second.instrument;
  auto& entry = counters_[std::string(name)];
  entry.help = std::string(help);
  entry.instrument = std::make_unique<Counter>();
  return *entry.instrument;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  const std::scoped_lock lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second.instrument;
  auto& entry = gauges_[std::string(name)];
  entry.help = std::string(help);
  entry.instrument = std::make_unique<Gauge>();
  return *entry.instrument;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> bounds,
                               std::string_view help) {
  const std::scoped_lock lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    MOSAIC_ASSERT(std::equal(bounds.begin(), bounds.end(),
                             it->second.instrument->bounds().begin(),
                             it->second.instrument->bounds().end()));
    return *it->second.instrument;
  }
  auto& entry = histograms_[std::string(name)];
  entry.help = std::string(help);
  entry.instrument = std::make_unique<Histogram>(
      std::vector<double>(bounds.begin(), bounds.end()));
  return *entry.instrument;
}

Snapshot Registry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, entry] : counters_) {
    snap.counters.push_back({name, entry.help, entry.instrument->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, entry] : gauges_) {
    snap.gauges.push_back({name, entry.help, entry.instrument->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, entry] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.help = entry.help;
    sample.bounds = entry.instrument->bounds();
    sample.buckets = entry.instrument->bucket_counts();
    sample.count = 0;
    for (const std::uint64_t c : sample.buckets) sample.count += c;
    sample.sum = entry.instrument->sum();
    snap.histograms.push_back(std::move(sample));
  }
  return snap;
}

void Registry::reset() {
  const std::scoped_lock lock(mutex_);
  for (auto& [name, entry] : counters_) entry.instrument->reset();
  for (auto& [name, entry] : gauges_) entry.instrument->reset();
  for (auto& [name, entry] : histograms_) entry.instrument->reset();
}

std::span<const double> latency_buckets_ms() noexcept {
  static const double edges[] = {0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,
                                 2.5,  5.0,   10.0, 25.0, 50.0, 100.0, 250.0,
                                 500.0, 1000.0, 2500.0, 10000.0};
  return edges;
}

json::Value metrics_to_json(const Snapshot& snapshot) {
  json::Object out;
  json::Object counters;
  for (const CounterSample& sample : snapshot.counters) {
    counters.set(sample.name, sample.value);
  }
  out.set("counters", std::move(counters));
  json::Object gauges;
  for (const GaugeSample& sample : snapshot.gauges) {
    gauges.set(sample.name, static_cast<double>(sample.value));
  }
  out.set("gauges", std::move(gauges));
  json::Object histograms;
  for (const HistogramSample& sample : snapshot.histograms) {
    json::Object h;
    h.set("count", sample.count);
    h.set("sum", sample.sum);
    json::Array buckets;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < sample.buckets.size(); ++b) {
      cumulative += sample.buckets[b];
      json::Object bucket;
      bucket.set("le", b < sample.bounds.size()
                           ? json::Value(sample.bounds[b])
                           : json::Value("+Inf"));
      bucket.set("count", cumulative);
      buckets.push_back(std::move(bucket));
    }
    h.set("buckets", std::move(buckets));
    histograms.set(sample.name, std::move(h));
  }
  out.set("histograms", std::move(histograms));
  return out;
}

Snapshot snapshot_from_metrics_json(const json::Reader& metrics) {
  using json::Presence;
  Snapshot snapshot;
  const json::Reader counters = metrics.object("counters", Presence::kOptional);
  for (const auto& [name, value] : counters.members()) {
    snapshot.counters.push_back(
        {name, "", counters.integer<std::uint64_t>(name)});
  }
  const json::Reader gauges = metrics.object("gauges", Presence::kOptional);
  for (const auto& [name, value] : gauges.members()) {
    snapshot.gauges.push_back({name, "", gauges.integer<std::int64_t>(name)});
  }
  const json::Reader histograms =
      metrics.object("histograms", Presence::kOptional);
  for (const auto& [name, value] : histograms.members()) {
    const json::Reader h = histograms.object(name);
    HistogramSample sample;
    sample.name = name;
    sample.sum = h.number("sum", 0.0);
    // Every bucket but the last carries a finite "le" edge; the last is
    // "+Inf". Counts are cumulative, so each must reach the one before.
    const json::Reader buckets = h.array("buckets");
    if (buckets.size() == 0) h.fail("buckets", "lacks its +Inf bucket");
    for (std::size_t b = 0; b < buckets.size() && metrics.ok(); ++b) {
      const json::Reader bucket = buckets.object(b);
      const auto cumulative = bucket.integer<std::uint64_t>("count");
      if (cumulative < sample.count) {
        bucket.fail("count", "is below the previous bucket's");
      }
      sample.buckets.push_back(cumulative - sample.count);
      sample.count = cumulative;
      if (b + 1 < buckets.size()) {
        sample.bounds.push_back(bucket.number("le"));
      } else if (bucket.string("le") != "+Inf") {
        bucket.fail("le", "of the last bucket is not \"+Inf\"");
      }
    }
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

namespace {

/// Series names carry labels ("m_total{code=\"x\"}"); TYPE lines use the
/// bare metric name.
std::string_view base_name(std::string_view series) {
  const std::size_t brace = series.find('{');
  return brace == std::string_view::npos ? series : series.substr(0, brace);
}

void append_type_line(std::string& out, std::string_view series,
                      std::string_view type, std::string& last_base) {
  const std::string_view base = base_name(series);
  if (base == last_base) return;  // one TYPE line per metric family
  last_base = std::string(base);
  out += "# TYPE ";
  out += base;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::string metrics_to_prometheus(const Snapshot& snapshot) {
  std::string out;
  std::string last_base;
  for (const CounterSample& sample : snapshot.counters) {
    append_type_line(out, sample.name, "counter", last_base);
    out += sample.name;
    out += ' ';
    out += std::to_string(sample.value);
    out += '\n';
  }
  last_base.clear();
  for (const GaugeSample& sample : snapshot.gauges) {
    append_type_line(out, sample.name, "gauge", last_base);
    out += sample.name;
    out += ' ';
    out += std::to_string(sample.value);
    out += '\n';
  }
  last_base.clear();
  for (const HistogramSample& sample : snapshot.histograms) {
    append_type_line(out, sample.name, "histogram", last_base);
    // Labels encoded in the series name must wrap the per-series suffixes:
    // h{worker="w"} renders as h_bucket{worker="w",le="..."} and
    // h_sum{worker="w"} — never as h{worker="w"}_bucket{...}. Unlabeled
    // names keep the plain h_bucket{le="..."} / h_sum / h_count forms.
    const std::string_view name = sample.name;
    const std::size_t brace = name.find('{');
    const std::string_view base =
        brace == std::string_view::npos ? name : name.substr(0, brace);
    const std::string_view labels =
        brace == std::string_view::npos
            ? std::string_view()
            : name.substr(brace + 1, name.size() - brace - 2);
    const auto append_series = [&](std::string_view suffix,
                                   const std::string& extra_label) {
      out += base;
      out += suffix;
      if (labels.empty() && extra_label.empty()) return;
      out += '{';
      out += labels;
      if (!labels.empty() && !extra_label.empty()) out += ',';
      out += extra_label;
      out += '}';
    };
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < sample.buckets.size(); ++b) {
      cumulative += sample.buckets[b];
      const std::string le = b < sample.bounds.size()
                                 ? format_double(sample.bounds[b])
                                 : std::string("+Inf");
      append_series("_bucket", "le=\"" + le + "\"");
      out += ' ';
      out += std::to_string(cumulative);
      out += '\n';
    }
    append_series("_sum", "");
    out += ' ';
    out += format_double(sample.sum);
    out += '\n';
    append_series("_count", "");
    out += ' ';
    out += std::to_string(sample.count);
    out += '\n';
  }
  return out;
}

std::string labeled(std::string_view name, std::string_view key,
                    std::string_view value) {
  std::string out(name);
  out += '{';
  out += key;
  out += "=\"";
  out += value;
  out += "\"}";
  return out;
}

namespace {

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ScopedTimerMs::ScopedTimerMs(Histogram& hist) noexcept
    : hist_(metrics_enabled() ? &hist : nullptr) {
  if (hist_ != nullptr) start_ns_ = steady_now_ns();
}

ScopedTimerMs::~ScopedTimerMs() {
  if (hist_ == nullptr) return;
  hist_->observe(static_cast<double>(steady_now_ns() - start_ns_) / 1e6);
}

}  // namespace mosaic::obs

#include "batch_phase.hpp"

#include <atomic>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>

#include "core/pipeline.hpp"
#include "darshan/io.hpp"
#include "ingest/ingest.hpp"
#include "ingest/reader.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "parallel/thread_pool.hpp"
#include "report/aggregate.hpp"
#include "report/json_output.hpp"

namespace perfbench {

namespace {

using namespace mosaic;

/// Times every read through the production reader. Passed as
/// IngestOptions::reader in traced passes only; ingest calls read_mapped.
class TimingReader final : public ingest::FileReader {
 public:
  util::Expected<std::vector<std::byte>> read(const std::string& path,
                                              int attempt) override {
    const double start = now_s();
    auto bytes = ingest::system_reader().read(path, attempt);
    note(start);
    return bytes;
  }

  util::Expected<util::MappedFile> read_mapped(const std::string& path,
                                               int attempt) override {
    const double start = now_s();
    auto file = ingest::system_reader().read_mapped(path, attempt);
    note(start);
    return file;
  }

  void reset() {
    busy_ns_ = 0;
    calls_ = 0;
  }
  [[nodiscard]] double busy_s() const { return static_cast<double>(busy_ns_) / 1e9; }
  [[nodiscard]] double calls() const { return static_cast<double>(calls_); }

 private:
  void note(double start) {
    busy_ns_ += static_cast<std::uint64_t>((now_s() - start) * 1e9);
    ++calls_;
  }

  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// Layer spans of one pass, in seconds.
struct PassSpans {
  double wall = 0, scan = 0, ingest = 0, read_busy = 0, read_calls = 0,
         parse_busy = 0, analyze = 0, aggregate = 0, serialize = 0;
  /// Wall time with the host's steal taken out (SpanClock), and the CPU
  /// and steal seconds it was worked out from.
  double unstolen = 0, cpu = 0, steal = 0;
  std::size_t retained = 0;
};

obs::Histogram& parse_histogram() {
  return obs::Registry::global().histogram(obs::names::kIngestParseMs,
                                           obs::latency_buckets_ms());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

class BatchRunner {
 public:
  BatchRunner(const BatchConfig& config, Ledger& ledger)
      : config_(config), ledger_(ledger) {}

  /// One `mosaic batch` equivalent. Returns its spans, or nullopt after
  /// recording a failure. Output checks run after the clock stops.
  std::optional<PassSpans> pass(parallel::ThreadPool& pool, bool traced) {
    ledger_.attempt();
    const std::size_t threads = pool.thread_count();
    const std::string out_path = config_.work_dir + "/summary_" +
                                 std::to_string(threads) + "t.json";
    ingest::IngestOptions options;
    if (traced) {
      reader_.reset();
      options.reader = &reader_;
    }
    PassSpans spans;
    core::PreprocessStats stats;
    // Each layer span has its own clock reads; the wall span also covers
    // what lies between them, such as freeing the pass's results when the
    // scope closes, as `mosaic batch` does on return.
    SpanClock pass_clock;
    {
      double t = now_s();
      auto paths = darshan::scan_trace_dir(config_.input_dir);
      spans.scan = now_s() - t;
      if (!paths.has_value()) {
        ledger_.fail("scan: " + paths.error().to_string());
        return std::nullopt;
      }
      const double parse_ms_before = traced ? parse_histogram().sum() : 0.0;
      t = now_s();
      auto ingested = ingest::ingest_paths(*paths, options, pool);
      spans.ingest = now_s() - t;
      if (!ingested.has_value()) {
        ledger_.fail("ingest: " + ingested.error().to_string());
        return std::nullopt;
      }
      if (traced) {
        spans.parse_busy = (parse_histogram().sum() - parse_ms_before) / 1e3;
      }
      t = now_s();
      core::BatchResult batch =
          core::analyze_preprocessed(std::move(ingested->pre), {}, &pool);
      spans.analyze = now_s() - t;
      t = now_s();
      const report::CategoryDistribution distribution =
          report::aggregate_categories(batch);
      spans.aggregate = now_s() - t;
      t = now_s();
      const auto written = report::write_batch_json(batch, out_path);
      spans.serialize = now_s() - t;
      (void)distribution;
      if (!written.ok()) {
        ledger_.fail("write_batch_json: " + written.error().to_string());
        return std::nullopt;
      }
      spans.retained = batch.results.size();
      stats = std::move(batch.preprocess);
    }
    pass_clock.stop();
    spans.wall = pass_clock.wall_s();
    spans.unstolen = pass_clock.unstolen_s();
    spans.cpu = pass_clock.cpu_s();
    spans.steal = pass_clock.steal_s();
    if (traced) {
      spans.read_busy = reader_.busy_s();
      spans.read_calls = reader_.calls();
    }
    if (!check(stats, out_path)) return std::nullopt;
    stats_ = std::move(stats);
    return spans;
  }

  [[nodiscard]] const core::PreprocessStats& stats() const { return stats_; }

 private:
  /// Funnel counts against the fixture, and byte-identity of the summary
  /// against the first pass of the run (any thread count).
  bool check(const core::PreprocessStats& stats, const std::string& out_path) {
    const Manifest& m = config_.manifest;
    std::size_t corrupted = stats.corrupted;
    if (config_.perturb == Perturb::kFunnel) ++corrupted;
    // A corrupted text trace can fail to parse before the validity check,
    // so on text the planted count splits over both eviction classes.
    const std::size_t evicted =
        config_.format == "mbt" ? corrupted : corrupted + stats.load_failed;
    bool ok = true;
    if (stats.input_traces != m.files) {
      ledger_.fail("funnel input " + std::to_string(stats.input_traces) +
                   " != corpus files " + std::to_string(m.files));
      ok = false;
    }
    if (evicted != m.planted_corrupt) {
      ledger_.fail("funnel corrupted " + std::to_string(evicted) +
                   " != planted corrupt " + std::to_string(m.planted_corrupt));
      ok = false;
    }
    if (stats.retained != m.unique_apps) {
      ledger_.fail("funnel retained " + std::to_string(stats.retained) +
                   " != clean unique apps " + std::to_string(m.unique_apps));
      ok = false;
    }
    std::string summary = read_file(out_path);
    if (config_.perturb == Perturb::kSummary && !reference_.empty() &&
        !summary.empty()) {
      summary[summary.size() / 2] ^= 0x01;
    }
    if (reference_.empty()) {
      reference_ = std::move(summary);
    } else if (summary != reference_) {
      ledger_.fail("JSON summary " + out_path +
                   " differs from the run's first summary");
      ok = false;
    }
    return ok;
  }

  const BatchConfig& config_;
  Ledger& ledger_;
  TimingReader reader_;
  std::string reference_;
  core::PreprocessStats stats_;
};

/// Per-pass files/s, each pass timed without the host's steal unless
/// `wall_clock`.
std::vector<double> files_per_s(const std::vector<PassSpans>& passes,
                                std::size_t files, bool wall_clock = false) {
  std::vector<double> out;
  for (const PassSpans& p : passes) {
    out.push_back(static_cast<double>(files) /
                  (wall_clock ? p.wall : p.unstolen));
  }
  return out;
}

/// Share of the passes' wanted CPU time the host stole, in percent.
double steal_pct(const std::vector<PassSpans>& passes) {
  double cpu = 0, steal = 0;
  for (const PassSpans& p : passes) {
    cpu += p.cpu;
    steal += p.steal;
  }
  return cpu + steal > 0 ? 100.0 * steal / (cpu + steal) : 0.0;
}

void report_spread(const char* label, const std::vector<double>& values) {
  std::fprintf(stderr,
               "perfbench:   %-16s median %.6g  p10 %.6g  p90 %.6g  "
               "max %.6g  (n=%zu)\n",
               label, median(values), quantile(values, 0.1),
               quantile(values, 0.9), quantile(values, 1.0), values.size());
}

/// Per-layer medians of the traced passes at one thread count.
void layer_metrics(const std::vector<PassSpans>& traced,
                   const std::vector<PassSpans>& plain, std::size_t threads,
                   std::size_t files, std::vector<Metric>& metrics) {
  const auto n = static_cast<double>(threads);
  const auto unattributed = [](const PassSpans& p) {
    return p.wall - (p.scan + p.ingest + p.analyze + p.aggregate + p.serialize);
  };
  using Field = std::function<double(const PassSpans&)>;
  const std::vector<std::tuple<const char*, const char*, Field>> rows = {
      {"batch.wall_s", "s", [](const PassSpans& p) { return p.wall; }},
      {"darshan.scan_s", "s", [](const PassSpans& p) { return p.scan; }},
      {"ingest.wall_s", "s", [](const PassSpans& p) { return p.ingest; }},
      {"ingest.read_busy_s", "s",
       [](const PassSpans& p) { return p.read_busy; }},
      {"ingest.read_calls", "count",
       [](const PassSpans& p) { return p.read_calls; }},
      {"ingest.parse_busy_s", "s",
       [](const PassSpans& p) { return p.parse_busy; }},
      {"ingest.fold_other_s", "s",
       [n](const PassSpans& p) {
         return p.ingest - (p.read_busy + p.parse_busy) / n;
       }},
      {"core.analyze_s", "s", [](const PassSpans& p) { return p.analyze; }},
      {"core.analyze_us_per_trace", "us",
       [](const PassSpans& p) {
         return p.analyze * 1e6 /
                static_cast<double>(std::max<std::size_t>(1, p.retained));
       }},
      {"report.aggregate_s", "s",
       [](const PassSpans& p) { return p.aggregate; }},
      {"report.serialize_s", "s",
       [](const PassSpans& p) { return p.serialize; }},
      {"unattributed_s", "s", unattributed},
      {"unattributed_pct", "%",
       [&](const PassSpans& p) { return 100.0 * unattributed(p) / p.wall; }},
  };
  const std::string sfx = threads == 1 ? "_1t" : "";
  for (const auto& [name, unit, field] : rows) {
    std::vector<double> values;
    for (const PassSpans& p : traced) values.push_back(field(p));
    metrics.push_back({name + sfx, median(values), unit});
  }
  const double unattributed_pct = metrics.back().value;
  if (unattributed_pct > 5.0) {
    std::fprintf(stderr,
                 "perfbench: FLAG: unattributed time is %.2f%% of batch wall "
                 "at %zu thread(s) (limit 5%%)\n",
                 unattributed_pct, threads);
  }
  const double traced_fps = median(files_per_s(traced, files));
  const double plain_fps = median(files_per_s(plain, files));
  metrics.push_back({"trace_overhead_pct" + sfx,
                     100.0 * (plain_fps - traced_fps) / plain_fps, "%"});
}

}  // namespace

double run_batch_phase(const BatchConfig& config, Ledger& ledger,
                       std::vector<Metric>& metrics) {
  // Set-up is what `mosaic batch` builds before reading: its thread pool.
  // Built several times so the reported figure is a median.
  std::vector<double> setups;
  std::unique_ptr<parallel::ThreadPool> pool1;
  std::unique_ptr<parallel::ThreadPool> pool4;
  for (int i = 0; i < 5; ++i) {
    pool1.reset();
    pool4.reset();
    const double start = now_s();
    pool1 = std::make_unique<parallel::ThreadPool>(1);
    pool4 = std::make_unique<parallel::ThreadPool>(4);
    setups.push_back(now_s() - start);
  }

  BatchRunner runner(config, ledger);
  // Warm passes: page cache, lazily registered metrics, per-thread analyzer
  // caches. Checked, not timed.
  runner.pass(*pool1, false);
  runner.pass(*pool4, false);

  std::vector<PassSpans> plain1, plain4, traced1, traced4;
  const double deadline = now_s() + config.seconds;
  constexpr std::size_t kMinRounds = 3;
  for (std::size_t round = 0;
       round < kMinRounds || now_s() < deadline; ++round) {
    // Alternate which thread count goes first, so slow drift hits both.
    parallel::ThreadPool& first = round % 2 == 0 ? *pool1 : *pool4;
    parallel::ThreadPool& second = round % 2 == 0 ? *pool4 : *pool1;
    for (parallel::ThreadPool* pool : {&first, &second}) {
      const bool one = pool->thread_count() == 1;
      if (auto spans = runner.pass(*pool, false)) {
        (one ? plain1 : plain4).push_back(*spans);
      }
      if (!config.traced) continue;
      if (auto spans = runner.pass(*pool, true)) {
        (one ? traced1 : traced4).push_back(*spans);
      }
    }
  }
  if (plain1.empty() || plain4.empty() ||
      (config.traced && (traced1.empty() || traced4.empty()))) {
    ledger.fail("batch phase produced no successful pass");
    return median(setups);
  }

  const std::size_t files = config.manifest.files;
  const std::vector<double> fps1 = files_per_s(plain1, files);
  const std::vector<double> fps4 = files_per_s(plain4, files);
  std::fprintf(stderr,
               "perfbench: batch %s, %zu files, %zu+%zu passes, host stole "
               "%.1f%% (4t) and %.1f%% (1t) of their CPU time\n",
               config.format.c_str(), files, plain1.size(), plain4.size(),
               steal_pct(plain4), steal_pct(plain1));
  report_spread("files/s @4t", fps4);
  report_spread("files/s @1t", fps1);
  std::fprintf(stderr,
               "perfbench:   wall-clock files/s median %.6g @4t, %.6g @1t\n",
               median(files_per_s(plain4, files, true)),
               median(files_per_s(plain1, files, true)));

  if (!config.traced) {
    metrics.push_back({"files_per_s", median(fps4), "1/s"});
    metrics.push_back({"files_per_s_1t", median(fps1), "1/s"});
    metrics.push_back({"speedup_4t", median(fps4) / median(fps1), "x"});
    return median(setups);
  }
  layer_metrics(traced4, plain4, 4, files, metrics);
  layer_metrics(traced1, plain1, 1, files, metrics);
  const core::PreprocessStats& stats = runner.stats();
  metrics.push_back({"preprocess.input",
                     static_cast<double>(stats.input_traces), "count"});
  metrics.push_back({"preprocess.load_failed",
                     static_cast<double>(stats.load_failed), "count"});
  metrics.push_back({"preprocess.corrupted",
                     static_cast<double>(stats.corrupted), "count"});
  metrics.push_back({"preprocess.retained",
                     static_cast<double>(stats.retained), "count"});
  return median(setups);
}

}  // namespace perfbench

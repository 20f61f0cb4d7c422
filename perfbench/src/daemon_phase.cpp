#include "daemon_phase.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "core/pipeline.hpp"
#include "darshan/io.hpp"
#include "dist/daemon.hpp"
#include "ingest/ingest.hpp"
#include "json/json.hpp"
#include "obs/provenance.hpp"
#include "report/json_output.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace {

using namespace mosaic;

/// Warm-up traces resubmitted as hits: the last ones the warm-up inserted,
/// so the LRU cache still holds every clean one throughout the run.
constexpr std::size_t kHitPool = 512;
constexpr double kSubmitTimeoutS = 10.0;
constexpr int kSetups = 3;

enum class Kind { kHit, kMiss, kRejected };

/// What a direct core::Analyzer run says the daemon must answer.
struct Answer {
  bool valid = false;
  std::vector<std::string> categories;  ///< sorted
};

struct Submission {
  std::string path;
  Kind kind = Kind::kRejected;
  const Answer* expected = nullptr;
};

/// A started daemon with run() on its own thread; stops and joins on
/// destruction.
class LiveDaemon {
 public:
  explicit LiveDaemon(dist::DaemonOptions options)
      : daemon_(std::move(options)) {}
  ~LiveDaemon() {
    daemon_.request_stop();
    if (runner_.joinable()) runner_.join();
  }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  util::Status start() { return daemon_.start(); }
  void run_in_background() {
    runner_ = std::thread([this] { daemon_.run(); });
  }
  dist::Daemon& daemon() { return daemon_; }

 private:
  dist::Daemon daemon_;
  std::thread runner_;
};

dist::DaemonOptions daemon_options(const DaemonConfig& config) {
  dist::DaemonOptions options;
  options.listen = dist::Address{"127.0.0.1", 0};
  options.http = dist::Address{"127.0.0.1", 0};
  options.spool_dir = config.work_dir + "/spool";
  return options;
}

void warm(dist::Daemon& daemon, const std::vector<std::string>& paths) {
  for (const std::string& path : paths) (void)daemon.submit_path(path);
}

Answer expect(const std::string& path, const core::Analyzer& analyzer) {
  Answer out;
  auto trace = ingest::load_trace(path);
  if (!trace.has_value() || !trace::validate(*trace).valid()) return out;
  out.valid = true;
  out.categories = analyzer.analyze(*trace).categories.names();
  std::sort(out.categories.begin(), out.categories.end());
  return out;
}

double p50(const std::vector<Submission>& seq, const std::vector<double>& xs,
           std::optional<Kind> kind) {
  std::vector<double> picked;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (!kind || seq[i].kind == *kind) picked.push_back(xs[i]);
  }
  return median(picked);
}

/// Times the product's public per-trace calls on the submitted traces, in
/// the daemon's order: load, validate, analyze with evidence, explain JSON,
/// result JSON.
void public_call_metrics(const std::vector<Submission>& seq,
                         std::vector<Metric>& metrics) {
  const core::Analyzer analyzer;
  std::vector<double> load_us, validate_us, analyze_us, explain_us, result_us;
  for (const Submission& s : seq) {
    double t = now_s();
    auto trace = ingest::load_trace(s.path);
    load_us.push_back((now_s() - t) * 1e6);
    if (!trace.has_value()) continue;
    t = now_s();
    const bool valid = trace::validate(*trace).valid();
    validate_us.push_back((now_s() - t) * 1e6);
    if (!valid) continue;
    obs::TraceProvenance evidence;
    t = now_s();
    const core::TraceResult result = analyzer.analyze(*trace, &evidence);
    analyze_us.push_back((now_s() - t) * 1e6);
    t = now_s();
    const std::string explain =
        json::serialize(obs::provenance_to_json(evidence), true) + "\n";
    explain_us.push_back((now_s() - t) * 1e6);
    t = now_s();
    const std::string result_json =
        json::serialize(report::trace_result_to_json(result));
    result_us.push_back((now_s() - t) * 1e6);
  }
  metrics.push_back({"ingest.load_trace_us", median(load_us), "us"});
  metrics.push_back({"trace.validate_us", median(validate_us), "us"});
  metrics.push_back({"core.analyze_explain_us", median(analyze_us), "us"});
  metrics.push_back({"obs.explain_json_us", median(explain_us), "us"});
  metrics.push_back({"report.result_json_us", median(result_us), "us"});
}

}  // namespace

double run_daemon_phase(const DaemonConfig& config, Ledger& ledger,
                        std::vector<Metric>& metrics) {
  const auto corpus = darshan::scan_trace_dir(config.corpus_dir);
  const auto misses = darshan::scan_trace_dir(config.miss_dir);
  if (!corpus.has_value() || !misses.has_value() || corpus->empty() ||
      misses->empty()) {
    ledger.fail("daemon phase: cannot scan the corpus");
    return 0.0;
  }

  std::vector<double> setups;
  std::unique_ptr<LiveDaemon> live;
  for (int i = 0; i < kSetups; ++i) {
    live.reset();
    SpanClock setup_clock;
    live = std::make_unique<LiveDaemon>(daemon_options(config));
    if (const auto status = live->start(); !status.ok()) {
      ledger.fail("daemon start: " + status.error().to_string());
      return 0.0;
    }
    warm(live->daemon(), *corpus);
    live->run_in_background();
    setup_clock.stop();
    setups.push_back(setup_clock.unstolen_s());
  }
  const dist::DaemonStats warmed = live->daemon().stats();
  const dist::Address address{"127.0.0.1", live->daemon().listen_port()};

  // The reference answers, from a direct Analyzer run per trace.
  const core::Analyzer analyzer;
  const std::size_t hit_count = std::min(kHitPool, corpus->size());
  std::vector<std::string> hit_paths(corpus->end() - hit_count, corpus->end());
  std::vector<std::string> miss_paths = *misses;
  std::mt19937_64 rng(config.seed ^ 0xDAE3070ull);
  std::shuffle(miss_paths.begin(), miss_paths.end(), rng);
  std::vector<Answer> hit_expected, miss_expected;
  for (const auto& p : hit_paths) hit_expected.push_back(expect(p, analyzer));
  for (const auto& p : miss_paths) miss_expected.push_back(expect(p, analyzer));

  std::vector<Submission> seq;
  std::vector<double> latency_ms;
  std::size_t next_miss = 0;
  bool perturbed = false;
  const double start = now_s();
  const double deadline = start + config.seconds;
  while ((seq.size() < config.min_submissions || now_s() < deadline) &&
         next_miss < miss_paths.size()) {
    Submission s;
    if (rng() % 2 == 0) {
      const std::size_t pick = rng() % hit_count;
      s.path = hit_paths[pick];
      s.expected = &hit_expected[pick];
      s.kind = s.expected->valid ? Kind::kHit : Kind::kRejected;
    } else {
      s.path = miss_paths[next_miss];
      s.expected = &miss_expected[next_miss];
      ++next_miss;
      s.kind = s.expected->valid ? Kind::kMiss : Kind::kRejected;
    }
    ledger.attempt();
    const double t0 = now_s();
    auto reply = dist::submit_trace_file(address, s.path, kSubmitTimeoutS);
    const double elapsed_ms = (now_s() - t0) * 1e3;
    seq.push_back(s);
    latency_ms.push_back(elapsed_ms);
    if (!reply.has_value()) {
      ledger.fail("submit " + s.path + ": " + reply.error().to_string());
      continue;
    }
    if (s.kind == Kind::kRejected) {
      if (reply->ok) ledger.fail("daemon accepted corrupt " + s.path);
      continue;
    }
    if (!perturbed && config.perturb == Perturb::kCategory) {
      reply->categories.push_back("perturbed");
      perturbed = true;
    }
    if (!perturbed && config.perturb == Perturb::kCached) {
      reply->cached = !reply->cached;
      perturbed = true;
    }
    std::sort(reply->categories.begin(), reply->categories.end());
    if (!reply->ok) {
      ledger.fail("daemon rejected clean " + s.path + ": " + reply->error);
    } else if (reply->categories != s.expected->categories) {
      ledger.fail("daemon categories for " + s.path +
                  " differ from a direct Analyzer run");
    } else if (reply->cached != (s.kind == Kind::kHit)) {
      ledger.fail(std::string("daemon cached=") +
                  (reply->cached ? "true" : "false") + " for " +
                  (s.kind == Kind::kHit ? "a resubmission" : "a new trace") +
                  " " + s.path);
    }
  }
  const double loop_s = now_s() - start;
  const dist::DaemonStats after = live->daemon().stats();
  live.reset();

  const double all_p50 = p50(seq, latency_ms, std::nullopt);
  std::fprintf(stderr,
               "perfbench: daemon, %zu submissions in %.2f s "
               "(%zu warm-up traces)\n",
               seq.size(), loop_s, corpus->size());
  std::fprintf(stderr,
               "perfbench:   submit ms        median %.6g  p10 %.6g  p90 %.6g\n",
               all_p50, quantile(latency_ms, 0.1), quantile(latency_ms, 0.9));

  if (!config.traced) {
    metrics.push_back({"submit_p50_ms", all_p50, "ms"});
    metrics.push_back({"submit_p90_ms", quantile(latency_ms, 0.9), "ms"});
    metrics.push_back(
        {"submit_hit_p50_ms", p50(seq, latency_ms, Kind::kHit), "ms"});
    metrics.push_back(
        {"submit_miss_p50_ms", p50(seq, latency_ms, Kind::kMiss), "ms"});
    metrics.push_back(
        {"submits_per_s", static_cast<double>(seq.size()) / loop_s, "1/s"});
    return median(setups);
  }

  // The daemon's own work: a second daemon, warmed the same way, fed the
  // same sequence in-process (no socket, no spool).
  std::vector<double> funnel_us;
  {
    dist::DaemonOptions options = daemon_options(config);
    options.listen.reset();
    dist::Daemon second(std::move(options));
    warm(second, *corpus);
    for (const Submission& s : seq) {
      const double t0 = now_s();
      (void)second.submit_path(s.path);
      funnel_us.push_back((now_s() - t0) * 1e6);
    }
  }
  metrics.push_back({"dist.daemon.funnel_hit_us",
                     p50(seq, funnel_us, Kind::kHit), "us"});
  metrics.push_back({"dist.daemon.funnel_miss_us",
                     p50(seq, funnel_us, Kind::kMiss), "us"});
  metrics.push_back({"dist.daemon.transport_ms",
                     all_p50 - p50(seq, funnel_us, std::nullopt) / 1e3, "ms"});
  public_call_metrics(seq, metrics);
  metrics.push_back({"dist.daemon.cache_hits",
                     static_cast<double>(after.cache_hits - warmed.cache_hits),
                     "count"});
  metrics.push_back({"dist.daemon.analyzed",
                     static_cast<double>(after.analyzed - warmed.analyzed),
                     "count"});
  metrics.push_back({"dist.daemon.rejected",
                     static_cast<double>(after.rejected - warmed.rejected),
                     "count"});
  return median(setups);
}

}  // namespace perfbench

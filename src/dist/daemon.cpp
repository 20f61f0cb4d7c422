#include "dist/daemon.hpp"

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <utility>

#include "core/categories.hpp"
#include "darshan/io.hpp"
#include "dist/protocol.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "report/aggregate.hpp"
#include "report/json_output.hpp"
#include "report/tables.hpp"
#include "trace/trace.hpp"
#include "util/backoff.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace mosaic::dist {

using json::Array;
using json::Object;
using json::Value;
using util::Error;
using util::ErrorCode;
using util::Expected;
using util::Status;

namespace {

struct DaemonMetrics {
  obs::Counter& submissions;
  obs::Counter& analyzed;
  obs::Counter& scans;

  static DaemonMetrics& get() {
    static auto& registry = obs::Registry::global();
    static DaemonMetrics metrics{
        registry.counter(obs::names::kDaemonSubmissions,
                         "traces submitted to the daemon (watch + socket)"),
        registry.counter(obs::names::kDaemonAnalyzed,
                         "daemon submissions analyzed (cache misses)"),
        registry.counter(obs::names::kDaemonScans,
                         "watch-directory sweeps completed"),
    };
    return metrics;
  }
};

void count_rejection(ErrorCode code) {
  obs::Registry::global()
      .counter(obs::labeled(obs::names::kDaemonRejected, "code",
                            util::error_code_name(code)),
               "daemon submissions rejected before analysis")
      .add();
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      analyzer_(options_.thresholds),
      cache_(options_.cache_capacity_bytes) {
  if (options_.spool_dir.empty()) {
    options_.spool_dir =
        (std::filesystem::temp_directory_path() /
         ("mosaic-daemon-spool-" + std::to_string(::getpid())))
            .string();
  }
}

Daemon::~Daemon() {
  request_stop();
  if (submit_thread_.joinable()) submit_thread_.join();
  http_.stop();
}

bool Daemon::stopped() const noexcept {
  if (stop_.load(std::memory_order_relaxed)) return true;
  return options_.stop != nullptr &&
         options_.stop->load(std::memory_order_relaxed);
}

void Daemon::request_stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
}

std::uint16_t Daemon::http_port() const noexcept { return http_.port(); }

std::uint16_t Daemon::listen_port() const noexcept {
  return submit_listener_.port();
}

Status Daemon::start() {
  register_routes();
  if (!options_.auth_token.empty()) {
    http_.set_auth_token(options_.auth_token);
  }
  if (const auto status = http_.start(options_.http); !status.ok()) {
    return status;
  }
  if (options_.listen.has_value()) {
    if (const auto status = submit_listener_.listen_on(*options_.listen);
        !status.ok()) {
      return status;
    }
  }
  return Status::success();
}

void Daemon::run() {
  if (submit_listener_.listening()) {
    submit_thread_ = std::thread([this] { serve_submissions(); });
  }
  while (!stopped()) {
    if (!options_.watch_dirs.empty()) sweep_watch_dirs();
    // Sleep in short slices so SIGTERM drains promptly.
    double slept_s = 0.0;
    while (!stopped() && slept_s < options_.poll_interval_seconds) {
      constexpr double kSliceS = 0.05;
      util::sleep_for_ms(kSliceS * 1000.0);
      slept_s += kSliceS;
    }
  }
  if (submit_thread_.joinable()) submit_thread_.join();
  http_.stop();
}

void Daemon::sweep_watch_dirs() {
  for (const std::string& dir : options_.watch_dirs) {
    auto paths = darshan::scan_trace_dir(dir);
    if (!paths.has_value()) {
      MOSAIC_LOG_WARN("daemon: watch scan of %s failed: %s", dir.c_str(),
                      paths.error().to_string().c_str());
      continue;
    }
    for (const std::string& path : *paths) {
      if (stopped()) return;
      // Mid-copy guard: submit only after the file's (size, mtime)
      // signature held still across two consecutive sweeps. A writer still
      // copying the trace keeps moving the signature, so the funnel never
      // sees a half-written file.
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(path, ec);
      if (ec) continue;  // vanished between scan and stat; next sweep decides
      const std::int64_t mtime = static_cast<std::int64_t>(
          std::filesystem::last_write_time(path, ec).time_since_epoch()
              .count());
      if (ec) continue;
      {
        const std::scoped_lock lock(board_mutex_);
        auto [it, inserted] =
            seen_paths_.try_emplace(path, WatchState{size, mtime, false});
        if (inserted) continue;  // first sighting: record, wait one sweep
        WatchState& state = it->second;
        if (state.submitted) continue;
        if (state.size != size || state.mtime != mtime) {
          state.size = size;  // still moving: restart the stability clock
          state.mtime = mtime;
          continue;
        }
        state.submitted = true;
      }
      const SubmitReply reply = process_file(path);
      if (!reply.ok) {
        MOSAIC_LOG_WARN("daemon: %s rejected: %s", path.c_str(),
                        reply.error.c_str());
      }
    }
  }
  DaemonMetrics::get().scans.add();
  const std::scoped_lock lock(board_mutex_);
  ++stats_.scans;
}

SubmitReply Daemon::process_file(const std::string& path) {
  DaemonMetrics::get().submissions.add();
  {
    const std::scoped_lock lock(board_mutex_);
    ++stats_.submissions;
  }
  SubmitReply reply;

  auto parsed = ingest::load_trace(path, options_.ingest);
  if (!parsed.has_value()) {
    count_rejection(parsed.error().code);
    const std::scoped_lock lock(board_mutex_);
    ++stats_.rejected;
    reply.error = parsed.error().to_string();
    return reply;
  }
  if (const auto validity = trace::validate(*parsed); !validity.valid()) {
    count_rejection(ErrorCode::kCorruptTrace);
    const std::scoped_lock lock(board_mutex_);
    ++stats_.rejected;
    reply.error = path + " is corrupted (" +
                  std::string(trace::corruption_kind_name(validity.kind)) +
                  ")";
    return reply;
  }

  const std::string app_key = parsed->app_key();
  const std::string key = core::result_cache_key(
      app_key, parsed->meta.job_id, parsed->total_bytes());
  {
    const std::scoped_lock lock(board_mutex_);
    ++runs_per_app_[app_key];
  }

  if (auto cached = cache_.lookup(key)) {
    // Cache hit: the rerun re-submitted a trace we already categorized.
    // No analysis runs — no pipeline spans, no provenance capture.
    reply.ok = true;
    reply.cached = true;
    reply.trace_id = cached->trace_id;
    reply.app_key = cached->app_key;
    const std::scoped_lock lock(board_mutex_);
    ++stats_.cache_hits;
    if (const auto slot = board_slots_.find(key); slot != board_slots_.end()) {
      BoardEntry& entry = board_[slot->second];
      ++entry.cache_hits;
      reply.categories = entry.result.categories.names();
    }
    return reply;
  }

  // Cache miss (counted by the cache): run the pipeline with evidence
  // capture forced on, exactly as `mosaic explain` does live, so the cached
  // artifact serves byte-identical output.
  obs::TraceProvenance evidence;
  core::TraceResult result = analyzer_.analyze(*parsed, &evidence);
  DaemonMetrics::get().analyzed.add();
  auto& journal = obs::ProvenanceJournal::global();
  if (journal.enabled()) journal.record(evidence);

  core::CachedAnalysis artifact;
  artifact.trace_id = std::to_string(result.job_id);
  artifact.app_key = app_key;
  artifact.source_path = path;
  artifact.result_json =
      json::serialize(report::trace_result_to_json(result));
  artifact.explain_json =
      json::serialize(obs::provenance_to_json(evidence), /*pretty=*/true) +
      "\n";
  cache_.insert(key, artifact);

  reply.ok = true;
  reply.cached = false;
  reply.trace_id = artifact.trace_id;
  reply.app_key = app_key;
  reply.categories = result.categories.names();

  const std::scoped_lock lock(board_mutex_);
  ++stats_.analyzed;
  const auto [slot, inserted] = board_slots_.try_emplace(key, board_.size());
  if (inserted) {
    BoardEntry& fresh = board_.emplace_back();
    fresh.trace_id = artifact.trace_id;
    fresh.app_key = app_key;
    fresh.cache_key = key;
  }
  BoardEntry& entry = board_[slot->second];
  entry.result = std::move(result);
  entry.source_path = path;
  return reply;
}

Expected<SubmitReply> Daemon::submit_path(const std::string& path) {
  return process_file(path);
}

void Daemon::serve_submissions() {
  while (!stopped()) {
    auto conn = submit_listener_.accept_connection(0.25);
    if (!conn.has_value()) {
      if (conn.error().code == ErrorCode::kTimeout) continue;
      return;  // listener closed / broken
    }
    handle_submission_session(std::move(*conn));
  }
}

void Daemon::handle_submission_session(Connection conn) {
  auto hello = read_frame(conn, 5.0);
  if (!hello.has_value() || hello->type != FrameType::kHello ||
      !check_hello_payload(hello->payload).ok()) {
    return;
  }
  if (!write_frame(conn, FrameType::kHello, hello_payload()).ok()) return;
  while (!stopped()) {
    auto frame = read_frame(conn, 1.0);
    if (!frame.has_value()) {
      if (frame.error().code == ErrorCode::kTimeout) continue;
      return;  // client went away
    }
    if (frame->type == FrameType::kShutdown) return;
    if (frame->type != FrameType::kSubmit) continue;

    SubmitReply reply;
    auto request = submit_request_from_payload(frame->payload);
    if (!request.has_value()) {
      reply.error = request.error().to_string();
    } else {
      // Spool the bytes next to nothing the watcher sees, then push them
      // through the same on-disk funnel as watched files (the extension of
      // the client-side name picks the parser).
      const std::string name =
          std::filesystem::path(request->name).filename().string();
      if (name.empty()) {
        reply.error = "submission has no file name";
      } else {
        std::error_code ec;
        std::filesystem::create_directories(options_.spool_dir, ec);
        const std::string spooled = options_.spool_dir + "/" + name;
        if (const auto written =
                util::write_file_atomic(spooled, request->data);
            !written.ok()) {
          reply.error = written.error().to_string();
        } else {
          reply = process_file(spooled);
        }
      }
    }
    if (!write_frame(conn, FrameType::kSubmitResult,
                     submit_reply_to_payload(reply))
             .ok()) {
      return;
    }
  }
}

std::string Daemon::results_json() const {
  Object out;
  Array traces;
  Object summary;
  {
    const std::scoped_lock lock(board_mutex_);
    summary.set("submissions", stats_.submissions);
    summary.set("analyzed", stats_.analyzed);
    summary.set("cache_hits", stats_.cache_hits);
    summary.set("rejected", stats_.rejected);
    summary.set("scans", stats_.scans);
    for (const BoardEntry& entry : board_) {
      Object trace;
      trace.set("trace_id", entry.trace_id);
      trace.set("app_key", entry.app_key);
      trace.set("source", entry.source_path);
      trace.set("cache_hits", entry.cache_hits);
      Array categories;
      for (const std::string& name : entry.result.categories.names()) {
        categories.push_back(name);
      }
      trace.set("categories", std::move(categories));
      trace.set("result", report::trace_result_to_json(entry.result));
      traces.push_back(std::move(trace));
    }
  }
  Object cache;
  cache.set("entries", cache_.entries());
  cache.set("bytes", cache_.bytes());
  cache.set("capacity_bytes", cache_.capacity_bytes());
  cache.set("hits", cache_.hits());
  cache.set("misses", cache_.misses());
  cache.set("evictions", cache_.evictions());
  summary.set("cache", std::move(cache));
  out.set("summary", std::move(summary));
  out.set("traces", std::move(traces));
  return json::serialize(Value(std::move(out)));
}

std::string Daemon::report_markdown() const {
  std::vector<core::TraceResult> results;
  std::map<std::string, std::size_t> runs;
  DaemonStats stats;
  {
    const std::scoped_lock lock(board_mutex_);
    results.reserve(board_.size());
    for (const BoardEntry& entry : board_) results.push_back(entry.result);
    runs = runs_per_app_;
    stats = stats_;
  }
  const report::CategoryDistribution distribution =
      report::aggregate_categories(results, runs);

  std::ostringstream out;
  out << "# mosaic daemon report\n\n";
  out << "- submissions: " << stats.submissions << "\n";
  out << "- analyzed (cache misses): " << stats.analyzed << "\n";
  out << "- cache hits: " << stats.cache_hits << "\n";
  out << "- rejected: " << stats.rejected << "\n";
  out << "- distinct traces: " << results.size() << "\n\n";

  report::TextTable table({"category", "traces", "traces %", "runs %"});
  for (std::size_t i = 0; i < core::kCategoryCount; ++i) {
    const auto category = static_cast<core::Category>(i);
    if (distribution.single[i] == 0) continue;
    table.add_row({std::string(core::category_name(category)),
                   std::to_string(distribution.single[i]),
                   util::format_percent(distribution.single_fraction(category)),
                   util::format_percent(
                       distribution.weighted_fraction(category))});
  }
  if (table.row_count() == 0) {
    out << "no categorized traces yet\n";
  } else {
    out << table.render_markdown();
  }
  return std::move(out).str();
}

std::optional<std::string> Daemon::explain_body(
    const std::string& trace_id) const {
  std::string cache_key;
  {
    const std::scoped_lock lock(board_mutex_);
    for (const BoardEntry& entry : board_) {
      if (entry.trace_id == trace_id || entry.app_key == trace_id) {
        cache_key = entry.cache_key;
        break;
      }
    }
  }
  if (cache_key.empty()) return std::nullopt;
  // Metrics-silent read: an HTTP scrape must not masquerade as submission
  // traffic in the hit/miss counters.
  auto cached = cache_.peek(cache_key);
  if (!cached.has_value()) return std::nullopt;
  return std::move(cached->explain_json);
}

void Daemon::register_routes() {
  http_.handle("/results", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "application/json", results_json(), {}};
  });
  http_.handle("/report", [this](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/markdown", report_markdown(), {}};
  });
  http_.handle_prefix("/explain/", [this](const obs::HttpRequest& request) {
    const std::string trace_id =
        request.target.substr(std::string_view("/explain/").size());
    auto body = explain_body(trace_id);
    if (!body.has_value()) {
      return obs::HttpResponse{
          404, "text/plain",
          "no cached analysis for '" + trace_id +
              "' (unknown trace id, or its artifact was evicted — "
              "resubmit the trace)\n",
          {}};
    }
    return obs::HttpResponse{200, "application/json", std::move(*body), {}};
  });
  http_.handle("/metrics", [](const obs::HttpRequest&) {
    return obs::HttpResponse{
        200, "text/plain; version=0.0.4",
        obs::metrics_to_prometheus(obs::Registry::global().snapshot()), {}};
  });
  http_.handle("/metrics.json", [](const obs::HttpRequest&) {
    return obs::HttpResponse{
        200, "application/json",
        json::serialize(
            obs::metrics_to_json(obs::Registry::global().snapshot())),
        {}};
  });
  http_.handle("/healthz", [this](const obs::HttpRequest&) {
    const std::vector<obs::HealthRule> rules =
        options_.health_rules.empty() ? obs::default_health_rules()
                                      : options_.health_rules;
    const obs::HealthReport report =
        obs::evaluate_health(obs::Registry::global().snapshot(), rules);
    json::Value body = obs::health_to_json(report);
    body.as_object().set("summary", obs::health_summary(report));
    const bool failing = report.level == obs::HealthLevel::kFail;
    return obs::HttpResponse{failing ? 503 : 200, "application/json",
                             json::serialize(body), {}};
  });
  http_.handle("/profile", [](const obs::HttpRequest&) {
    return obs::HttpResponse{
        200, "application/json",
        json::serialize(obs::Profiler::global().profile_json()), {}};
  });
}

DaemonStats Daemon::stats() const {
  const std::scoped_lock lock(board_mutex_);
  return stats_;
}

Expected<SubmitReply> submit_trace_file(const Address& daemon,
                                        const std::string& path,
                                        double timeout_seconds) {
  auto bytes = util::read_file(path);
  if (!bytes.has_value()) {
    return Error{ErrorCode::kIoError, std::move(bytes).error().message};
  }

  auto conn = connect_to(daemon, timeout_seconds);
  if (!conn.has_value()) return std::move(conn).error();
  if (const auto status =
          write_frame(*conn, FrameType::kHello, hello_payload());
      !status.ok()) {
    return status.error();
  }
  auto hello = read_frame(*conn, timeout_seconds);
  if (!hello.has_value()) return std::move(hello).error();
  if (hello->type != FrameType::kHello) {
    return Error{ErrorCode::kParseError, "daemon did not answer the hello"};
  }
  if (const auto status = check_hello_payload(hello->payload); !status.ok()) {
    return status.error();
  }

  SubmitRequest request;
  request.name = std::filesystem::path(path).filename().string();
  request.data.assign(reinterpret_cast<const char*>(bytes->data()),
                      bytes->size());
  if (const auto status = write_frame(*conn, FrameType::kSubmit,
                                      submit_request_to_payload(request));
      !status.ok()) {
    return status.error();
  }
  auto result = read_frame(*conn, timeout_seconds);
  if (!result.has_value()) return std::move(result).error();
  if (result->type != FrameType::kSubmitResult) {
    return Error{ErrorCode::kParseError,
                 "daemon answered with an unexpected frame"};
  }
  return submit_reply_from_payload(result->payload);
}

}  // namespace mosaic::dist

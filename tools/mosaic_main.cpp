// The `mosaic` command-line tool: one entry point for the whole system.
//
//   mosaic analyze <files|dirs...>    categorize traces one by one
//   mosaic batch <dir>                full pipeline over a trace directory:
//                                     validity funnel, per-app dedup,
//                                     category tables, JSON summary
//   mosaic generate <dir>             write a synthetic population to disk
//   mosaic thresholds                 print (or write) the thresholds config
//
// Every subcommand accepts --thresholds <file> with a JSON config
// (see `mosaic thresholds`), fulfilling the paper's requirement that the
// categorization thresholds be modifiable (§III-A).
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "darshan/binary_format.hpp"
#include "darshan/io.hpp"
#include "darshan/text_format.hpp"
#include "dist/daemon.hpp"
#include "dist/dispatch.hpp"
#include "dist/faults.hpp"
#include "dist/net.hpp"
#include "dist/telemetry.hpp"
#include "dist/worker.hpp"
#include "obs/http.hpp"
#include "ingest/ingest.hpp"
#include "ingest/reader.hpp"
#include "json/json.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/provenance.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "parallel/thread_pool.hpp"
#include "report/aggregate.hpp"
#include "report/confusion.hpp"
#include "report/csv.hpp"
#include "report/jaccard.hpp"
#include "report/json_output.hpp"
#include "report/partial.hpp"
#include "report/tables.hpp"
#include "sim/population.hpp"
#include "sim/truth.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace mosaic;

void print_usage() {
  std::fputs(
      "mosaic — detection and categorization of I/O patterns in HPC "
      "applications\n\n"
      "usage: mosaic <command> [options]\n\n"
      "commands:\n"
      "  analyze <files|dirs...>   categorize traces one by one\n"
      "  batch <dir>               full pipeline over a trace directory\n"
      "  merge <partials...>       reduce shard partial artifacts into the\n"
      "                            single-shot batch summary\n"
      "  dispatch <files|dirs...>  distribute a batch run across a worker\n"
      "                            pool with retry, reassignment and\n"
      "                            graceful degradation\n"
      "  worker --listen <addr>    serve shard tasks to a dispatch manager\n"
      "  daemon --watch|--listen   always-on analysis service: categorize\n"
      "                            arriving traces incrementally, serve\n"
      "                            cached results over HTTP (docs/API.md)\n"
      "  submit <files...>         ship traces to a running daemon\n"
      "  report <dir>              write a markdown analysis report\n"
      "  explain <file|trace-id>   render one trace's decision path\n"
      "  generate <dir>            write a synthetic trace population\n"
      "  health <metrics.json>     evaluate health/SLO rules over a saved\n"
      "                            metrics artifact (exit 1 on fail)\n"
      "  thresholds                print the thresholds config (JSON)\n\n"
      "run `mosaic <command> --help` for per-command options.\n",
      stdout);
}

/// Loads --thresholds if given; exits on error.
core::Thresholds load_thresholds(const util::CliParser& cli) {
  const auto path = cli.get("thresholds");
  if (path.empty()) return {};
  auto loaded = core::read_thresholds_file(std::string(path));
  if (!loaded.has_value()) {
    std::fprintf(stderr, "%s\n", loaded.error().to_string().c_str());
    std::exit(2);
  }
  return *loaded;
}

/// The command's input traces: files, and directories expanded through
/// darshan::expand_trace_paths. Prints why and returns nullopt (exit 2)
/// when a directory cannot be listed or no trace is left.
std::optional<std::vector<std::string>> input_traces(
    const util::CliParser& cli, const char* command) {
  auto paths = darshan::expand_trace_paths(cli.positional());
  if (!paths.has_value()) {
    std::fprintf(stderr, "%s\n", paths.error().to_string().c_str());
    return std::nullopt;
  }
  if (paths->empty()) {
    std::fprintf(stderr, "%s: no input traces\n", command);
    return std::nullopt;
  }
  return std::move(*paths);
}

// --- Shared validators --------------------------------------------------------
// Each prints what is wrong and returns nullopt; the subcommand exits 2.

/// --<name> as an integer >= 0.
std::optional<std::int64_t> non_negative_int(const util::CliParser& cli,
                                             std::string_view name) {
  const auto value = cli.get_int(name);
  if (!value.has_value() || *value < 0) {
    std::fprintf(stderr, "--%s must be a non-negative integer (got '%s')\n",
                 std::string(name).c_str(), std::string(cli.get(name)).c_str());
    return std::nullopt;
  }
  return *value;
}

/// --<name> as a full-range unsigned 64-bit integer (seeds).
std::optional<std::uint64_t> parse_u64(const util::CliParser& cli,
                                       std::string_view name) {
  const auto value = util::parse_uint(cli.get(name));
  if (!value.has_value()) {
    std::fprintf(stderr,
                 "--%s must be an unsigned 64-bit integer (got '%s')\n",
                 std::string(name).c_str(), std::string(cli.get(name)).c_str());
  }
  return value;
}

/// --<name> as a fraction in [0, 1].
std::optional<double> parse_fraction(const util::CliParser& cli,
                                     std::string_view name) {
  const auto value = cli.get_double(name);
  if (!value.has_value() || !(*value >= 0.0 && *value <= 1.0)) {
    std::fprintf(stderr, "--%s must be a fraction in [0, 1] (got '%s')\n",
                 std::string(name).c_str(), std::string(cli.get(name)).c_str());
    return std::nullopt;
  }
  return *value;
}

/// --<name> as a number of seconds: > 0, or >= 0 when `zero_ok` (the
/// option's 0 meaning "off" or "unlimited").
std::optional<double> parse_seconds(const util::CliParser& cli,
                                    std::string_view name, bool zero_ok) {
  const auto value = cli.get_double(name);
  if (!value.has_value() || *value < 0.0 || (*value == 0.0 && !zero_ok)) {
    std::fprintf(stderr, "--%s must be a number of seconds %s 0 (got '%s')\n",
                 std::string(name).c_str(), zero_ok ? ">=" : ">",
                 std::string(cli.get(name)).c_str());
    return std::nullopt;
  }
  return *value;
}

/// --threads (0 = hardware): a negative count must not be cast into ~2^64
/// workers.
std::optional<std::size_t> parse_thread_count(const util::CliParser& cli) {
  const auto threads = non_negative_int(cli, "threads");
  if (!threads.has_value()) return std::nullopt;
  return static_cast<std::size_t>(*threads);
}

/// --<name> as a TCP port (0 = ephemeral).
std::optional<std::uint16_t> parse_port(const util::CliParser& cli,
                                        std::string_view name) {
  const auto port = non_negative_int(cli, name);
  if (!port.has_value()) return std::nullopt;
  if (*port > 65535) {
    std::fprintf(stderr, "--%s must be at most 65535\n",
                 std::string(name).c_str());
    return std::nullopt;
  }
  return static_cast<std::uint16_t>(*port);
}

// --- Option groups ------------------------------------------------------------
// Each group of options several subcommands share has one register function
// and one parse-and-validate function.

/// Log group: every subcommand but `thresholds`.
void add_log_options(util::CliParser& cli) {
  cli.add_flag("log-json",
               "emit log lines as JSONL objects ({ts, level, msg})");
  cli.add_option("log-level", "debug | info | warn | error | off", "info");
}

bool apply_log_options(const util::CliParser& cli) {
  const auto level = util::parse_log_level(cli.get("log-level"));
  if (!level.has_value()) {
    std::fprintf(stderr,
                 "--log-level must be one of debug|info|warn|error|off\n");
    return false;
  }
  util::set_log_level(*level);
  if (cli.get_flag("log-json")) util::set_log_format(util::LogFormat::kJson);
  return true;
}

/// The prologue every subcommand but `thresholds` shares: registers the log
/// group, parses argv (usage on --help) and applies the log group. Returns
/// the exit code to stop with, or nullopt to carry on.
std::optional<int> parse_command_line(util::CliParser& cli, int argc,
                                      char** argv) {
  add_log_options(cli);
  if (const auto status = cli.parse(argc, argv); !status.ok()) {
    if (status.error().code == util::ErrorCode::kNotFound) return 0;
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 2;
  }
  if (!apply_log_options(cli)) return 2;
  return std::nullopt;
}

/// Telemetry group: where a run's metrics, trace, progress heartbeat and
/// provenance go.
struct ObsOptions {
  std::string metrics_path;
  std::string trace_path;
  double progress_seconds = 0.0;
  std::string provenance_dir;
  std::uint64_t provenance_sample = 1;
};

void add_obs_options(util::CliParser& cli) {
  cli.add_option("metrics",
                 "write run metrics to this path as JSON, plus Prometheus "
                 "text to <path>.prom", "");
  cli.add_option("trace-events",
                 "record per-stage spans and write Chrome trace_event JSON "
                 "(chrome://tracing, Perfetto) to this path", "");
  cli.add_option("progress",
                 "log a progress heartbeat every N seconds (0 = off)", "0");
  cli.add_option("provenance",
                 "record sampled decision provenance and write "
                 "<dir>/provenance.jsonl (one record per sampled trace)", "");
  cli.add_option("provenance-sample",
                 "capture provenance for 1 in N analyzed traces", "1");
}

std::optional<ObsOptions> parse_obs_options(const util::CliParser& cli) {
  const auto progress = parse_seconds(cli, "progress", /*zero_ok=*/true);
  const auto sample = cli.get_int("provenance-sample");
  const bool sample_ok = sample.has_value() && *sample >= 1;
  if (!sample_ok) {
    std::fprintf(stderr, "--provenance-sample must be a positive integer\n");
  }
  if (!progress || !sample_ok) return std::nullopt;
  return ObsOptions{std::string(cli.get("metrics")),
                    std::string(cli.get("trace-events")),
                    *progress,
                    std::string(cli.get("provenance")),
                    static_cast<std::uint64_t>(*sample)};
}

/// Arms the telemetry sinks and flushes them when the subcommand returns.
/// The destructor covers early error exits so an aborted run still leaves
/// its telemetry behind.
class ObsSession {
 public:
  explicit ObsSession(ObsOptions options) : options_(std::move(options)) {
    if (!options_.trace_path.empty()) obs::SpanTracer::global().enable();
    if (!options_.provenance_dir.empty()) {
      obs::ProvenanceJournal::global().enable(options_.provenance_sample);
    }
    if (options_.progress_seconds > 0.0) {
      heartbeat_ = std::make_unique<obs::Heartbeat>(options_.progress_seconds);
    }
  }

  ~ObsSession() { finish(); }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Stops the heartbeat and writes the requested files (idempotent).
  /// Returns false if a sink could not be written.
  bool finish() {
    if (finished_) return ok_;
    finished_ = true;
    if (heartbeat_ != nullptr) heartbeat_->stop();
    if (!options_.metrics_path.empty()) {
      if (const auto status = obs::write_metrics_files(options_.metrics_path);
          !status.ok()) {
        std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
        ok_ = false;
      } else {
        std::printf("metrics written to %s and %s.prom\n",
                    options_.metrics_path.c_str(),
                    options_.metrics_path.c_str());
      }
    }
    if (!options_.trace_path.empty()) {
      auto& tracer = obs::SpanTracer::global();
      if (const auto status = tracer.write_chrome_trace(options_.trace_path);
          !status.ok()) {
        std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
        ok_ = false;
      } else {
        std::printf("trace events written to %s\n",
                    options_.trace_path.c_str());
        if (tracer.dropped() > 0) {
          MOSAIC_LOG_WARN("trace: %llu spans dropped (ring buffers full)",
                          static_cast<unsigned long long>(tracer.dropped()));
        }
      }
      tracer.disable();
    }
    if (!options_.provenance_dir.empty()) {
      auto& journal = obs::ProvenanceJournal::global();
      if (const auto written = journal.write_to_dir(options_.provenance_dir);
          !written.has_value()) {
        std::fprintf(stderr, "%s\n", written.error().to_string().c_str());
        ok_ = false;
      } else {
        std::printf("%s\n", written->c_str());
      }
      journal.disable();
      journal.reset();
    }
    return ok_;
  }

 private:
  ObsOptions options_;
  std::unique_ptr<obs::Heartbeat> heartbeat_;
  bool finished_ = false;
  bool ok_ = true;
};

/// Retry group: the per-file read policy of every ingest-driven subcommand
/// (dispatch forwards it to its workers, the daemon applies it per file).
void add_retry_options(util::CliParser& cli) {
  cli.add_option("retries", "extra read attempts for transient I/O errors",
                 "3");
  cli.add_option("deadline",
                 "per-file read+retry+parse budget in seconds (0 = unlimited)",
                 "30");
}

bool parse_retry_options(const util::CliParser& cli,
                         ingest::IngestOptions& options) {
  const auto retries = non_negative_int(cli, "retries");
  const auto deadline = parse_seconds(cli, "deadline", /*zero_ok=*/true);
  if (!retries || !deadline) return false;
  options.max_retries = static_cast<int>(*retries);
  options.file_deadline_seconds = *deadline;
  return true;
}

/// Per-file ingest group (analyze, and through add_ingest_options batch and
/// report): the retry group plus the fault-injection seam.
void add_load_options(util::CliParser& cli) {
  add_retry_options(cli);
  cli.add_option("fault-inject",
                 "inject deterministic I/O faults, e.g. "
                 "seed=7,eio=0.2,short=0.1,flip=0.1,delay=0.1,delay_ms=5", "");
}

/// Ingest group (batch, report): the per-file group plus quarantine, which
/// only the batch fold applies.
void add_ingest_options(util::CliParser& cli) {
  add_load_options(cli);
  cli.add_option("quarantine",
                 "move poison files (parse/corrupt/timeout) to this dir", "");
}

/// Parses the per-file group; `faulty` keeps an injected reader alive for
/// the options' lifetime. The quarantine directory is set by the callers
/// that register it.
std::optional<ingest::IngestOptions> parse_load_options(
    const util::CliParser& cli,
    std::unique_ptr<ingest::FaultyFileReader>& faulty) {
  ingest::IngestOptions options;
  if (!parse_retry_options(cli, options)) return std::nullopt;
  if (const auto spec_text = cli.get("fault-inject"); !spec_text.empty()) {
    const auto spec = ingest::FaultSpec::parse(spec_text);
    if (!spec.has_value()) {
      std::fprintf(stderr, "%s\n", spec.error().to_string().c_str());
      return std::nullopt;
    }
    faulty = std::make_unique<ingest::FaultyFileReader>(*spec);
    options.reader = faulty.get();
  }
  return options;
}

/// Parses the ingest group (see add_ingest_options).
std::optional<ingest::IngestOptions> parse_ingest_options(
    const util::CliParser& cli,
    std::unique_ptr<ingest::FaultyFileReader>& faulty) {
  auto options = parse_load_options(cli, faulty);
  if (options) options->quarantine_dir = std::string(cli.get("quarantine"));
  return options;
}

/// Endpoint group (dispatch, daemon): who may call the HTTP endpoint and
/// which rules /healthz evaluates.
struct EndpointOptions {
  std::string auth_token;                     ///< empty = open endpoint
  std::vector<obs::HealthRule> health_rules;  ///< empty = built-in rules
};

void add_endpoint_options(util::CliParser& cli) {
  cli.add_option("metrics-token",
                 "require `Authorization: Bearer <token>` on every endpoint "
                 "request (default: $MOSAIC_METRICS_TOKEN; empty = open)",
                 "");
  cli.add_option("health-rules",
                 "JSON rules file replacing the built-in health rules "
                 "/healthz evaluates (see `mosaic health --print-rules`)",
                 "");
}

std::optional<EndpointOptions> parse_endpoint_options(
    const util::CliParser& cli) {
  EndpointOptions out;
  // The flag wins over the environment so a scripted per-run override works.
  out.auth_token = std::string(cli.get("metrics-token"));
  if (const char* env = std::getenv("MOSAIC_METRICS_TOKEN");
      out.auth_token.empty() && env != nullptr) {
    out.auth_token = env;
  }
  if (const auto path = cli.get("health-rules"); !path.empty()) {
    auto rules = obs::load_health_rules(std::string(path));
    if (!rules.has_value()) {
      std::fprintf(stderr, "--health-rules: %s\n",
                   rules.error().to_string().c_str());
      return std::nullopt;
    }
    out.health_rules = std::move(*rules);
  }
  return out;
}

/// Prints an ingest run's summary line.
void report_ingest(const std::string& prefix, const ingest::IngestStats& io,
                   double seconds) {
  std::printf("%singested %zu files: %zu loaded, %zu evicted before validity "
              "(%zu recovered after retry, %zu quarantined) in %s\n",
              prefix.c_str(), io.files_scanned, io.loaded, io.failed,
              io.recovered, io.quarantined,
              util::format_duration(seconds).c_str());
}

/// Renders the per-reason eviction table fed by the ingest funnel.
void print_eviction_table(const core::PreprocessStats& stats) {
  if (stats.eviction_breakdown.empty()) return;
  std::printf("evictions by reason:\n");
  report::TextTable table({"reason", "files"});
  for (const auto& [code, count] : stats.eviction_breakdown) {
    table.add_row({code, std::to_string(count)});
  }
  for (const auto& [kind, count] : stats.corruption_breakdown) {
    table.add_row({"  corrupt-trace/" + kind, std::to_string(count)});
  }
  std::fputs(table.render().c_str(), stdout);
}

/// Shared tail of `mosaic batch` and `mosaic merge`: funnel summary,
/// category distribution, optional Jaccard heatmap and JSON summary file.
/// Returns false when the JSON summary could not be written.
bool print_batch_summary(const core::BatchResult& batch,
                         const util::CliParser& cli) {
  const auto& stats = batch.preprocess;
  std::printf("funnel: %zu input, %zu load-failed, %zu corrupted, "
              "%zu applications retained\n",
              stats.input_traces, stats.load_failed, stats.corrupted,
              stats.retained);
  print_eviction_table(stats);
  std::printf("\n");

  const report::CategoryDistribution distribution =
      report::aggregate_categories(batch);
  report::TextTable table({"category", "applications", "executions"});
  for (const core::Category category : core::all_categories()) {
    if (distribution.single[static_cast<std::size_t>(category)] == 0) continue;
    table.add_row(
        {std::string(core::category_name(category)),
         util::format_percent(distribution.single_fraction(category)),
         util::format_percent(distribution.weighted_fraction(category))});
  }
  std::fputs(table.render().c_str(), stdout);

  if (cli.get_flag("heatmap")) {
    std::printf("\nJaccard heatmap (>= 1%%):\n");
    std::fputs(
        report::render_heatmap(report::jaccard_matrix(batch.results), 0.01)
            .c_str(),
        stdout);
  }

  if (const auto json_path = cli.get("json"); !json_path.empty()) {
    if (const auto status =
            report::write_batch_json(batch, std::string(json_path));
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
      return false;
    }
    std::printf("\nJSON summary written to %s\n",
                std::string(json_path).c_str());
  }
  return true;
}

/// Reduces the partial artifacts named by files/directories: re-reads each
/// winner under `options` and analyzes it on `pool`. Returns nullopt after
/// printing, with the exit code in `*exit_code` (2 for a usage or
/// partition problem, 1 for an artifact that does not read or for winners
/// that are all missing).
std::optional<report::MergedPartials> reduce_partial_args(
    const std::vector<std::string>& args, const ingest::IngestOptions& options,
    const core::Thresholds& thresholds, parallel::ThreadPool& pool,
    std::size_t* artifact_count, int* exit_code) {
  auto artifact_paths = report::expand_partial_paths(args);
  if (!artifact_paths.has_value()) {
    std::fprintf(stderr, "%s\n", artifact_paths.error().to_string().c_str());
    *exit_code = 2;
    return std::nullopt;
  }
  auto merged =
      report::reduce_partials(*artifact_paths, options, thresholds, pool);
  if (!merged.has_value()) {
    std::fprintf(stderr, "%s\n", merged.error().to_string().c_str());
    *exit_code =
        merged.error().code == util::ErrorCode::kInvalidArgument ? 2 : 1;
    return std::nullopt;
  }
  if (artifact_count != nullptr) *artifact_count = artifact_paths->size();
  return std::move(*merged);
}

int cmd_analyze(int argc, char** argv) {
  util::CliParser cli("mosaic analyze", "categorize traces one by one");
  cli.add_option("thresholds", "JSON thresholds config", "");
  cli.add_flag("json", "print the full JSON per trace");
  add_load_options(cli);
  add_obs_options(cli);
  if (const auto exit_code = parse_command_line(cli, argc, argv)) {
    return *exit_code;
  }
  const auto paths = input_traces(cli, "mosaic analyze");
  if (!paths) return 2;
  std::unique_ptr<ingest::FaultyFileReader> faulty;
  const auto options = parse_load_options(cli, faulty);
  auto obs_options = parse_obs_options(cli);
  if (!options || !obs_options) return 2;
  ObsSession obs_session(std::move(*obs_options));
  const core::Analyzer analyzer(load_thresholds(cli));
  int failures = 0;
  for (const std::string& path : *paths) {
    const ingest::LoadedFile file = ingest::load_file(path, *options);
    const core::FileOutcome& outcome = file.outcome;
    if (!outcome.valid()) {
      if (outcome.load_failed()) {
        std::printf("%-48s LOAD ERROR (%s)\n", path.c_str(),
                    outcome.error->to_string().c_str());
      } else {
        std::printf("%-48s CORRUPTED (%s)\n", path.c_str(),
                    trace::corruption_kind_name(outcome.corruption));
      }
      ++failures;
      continue;
    }
    const core::TraceResult result = analyzer.analyze(*file.trace);
    if (cli.get_flag("json")) {
      std::printf("%s\n",
                  json::serialize(report::trace_result_to_json(result)).c_str());
    } else {
      std::printf("%-48s %s\n", path.c_str(),
                  util::join(result.categories.names(), ", ").c_str());
    }
  }
  if (!obs_session.finish()) return 1;
  return failures == 0 ? 0 : 1;
}

int cmd_batch(int argc, char** argv) {
  util::CliParser cli("mosaic batch",
                      "full pipeline (funnel + dedup + tables) over a "
                      "trace directory");
  cli.add_option("thresholds", "JSON thresholds config", "");
  cli.add_option("threads", "worker threads (0 = hardware)", "0");
  cli.add_option("json", "write the JSON summary to this path", "");
  cli.add_flag("heatmap", "render the Jaccard heatmap");
  cli.add_option("shard",
                 "fold only shard K of N (format K/N) into a partial "
                 "artifact in --partials; reduce with `mosaic merge`", "");
  cli.add_option("shards",
                 "fold all N shards sequentially in-process, writing "
                 "partials, then reduce them (0 = off)", "0");
  cli.add_option("partials",
                 "directory for partial artifacts (results.shard-K.json)",
                 "");
  cli.add_flag("resume",
               "with --shards: keep the partials in --partials that an "
               "earlier run wrote over the same inputs, run the rest");
  add_ingest_options(cli);
  add_obs_options(cli);
  if (const auto exit_code = parse_command_line(cli, argc, argv)) {
    return *exit_code;
  }
  const auto paths = input_traces(cli, "mosaic batch");
  if (!paths) return 2;
  const auto thread_count = parse_thread_count(cli);
  std::unique_ptr<ingest::FaultyFileReader> faulty;
  const auto options = parse_ingest_options(cli, faulty);
  auto obs_options = parse_obs_options(cli);
  const auto shard_total = non_negative_int(cli, "shards");
  if (!thread_count || !options || !obs_options || !shard_total) return 2;

  const std::string shard_text{cli.get("shard")};
  if (!shard_text.empty() && *shard_total > 0) {
    std::fprintf(stderr, "--shard and --shards are mutually exclusive\n");
    return 2;
  }
  std::optional<ingest::ShardSpec> shard;
  if (!shard_text.empty()) {
    const auto spec = ingest::parse_shard_spec(shard_text);
    if (!spec.has_value()) {
      std::fprintf(stderr, "%s\n", spec.error().to_string().c_str());
      return 2;
    }
    shard = *spec;
  }
  const std::string partials_dir{cli.get("partials")};
  if ((shard.has_value() || *shard_total > 0) && partials_dir.empty()) {
    std::fprintf(stderr, "--shard/--shards require --partials <dir>\n");
    return 2;
  }
  const bool resume = cli.get_flag("resume");
  if (resume && *shard_total == 0) {
    std::fprintf(stderr, "--resume requires --shards N and --partials <dir>\n");
    return 2;
  }
  if (shard.has_value()) {
    // A shard run only folds its slice; the reduce analyzes.
    for (const auto& [option, reduce] :
         {std::pair{"json", "mosaic merge"},
          std::pair{"thresholds", "mosaic merge"},
          std::pair{"provenance", "mosaic report --from-partials"}}) {
      if (cli.get(option).empty()) continue;
      std::fprintf(stderr,
                   "--%s applies to the reduce, not to a --shard run: pass "
                   "it to `%s` over the partials instead\n",
                   option, reduce);
      return 2;
    }
    // Its obs paths carry the shard id so N concurrent shard processes
    // launched from one command line never clobber each other's files.
    for (std::string* path :
         {&obs_options->metrics_path, &obs_options->trace_path}) {
      if (!path->empty()) *path = ingest::shard_suffix_path(*path, shard->index);
    }
  }
  ObsSession obs_session(*obs_options);
  if (shard.has_value()) {
    std::error_code ec;
    std::filesystem::create_directories(partials_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", partials_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }
  parallel::ThreadPool pool(*thread_count);

  // Prints what happened to one shard: its fold, or the earlier artifact a
  // resumed run kept.
  const auto print_shard = [](const report::ShardRun& run) {
    const std::string prefix = "shard " + std::to_string(run.spec.index) +
                               "/" + std::to_string(run.spec.count) + ": ";
    if (run.kept) {
      std::printf("%skept %s (%zu application(s), %zu files) from an earlier "
                  "run\n",
                  prefix.c_str(), run.path.c_str(), run.apps,
                  run.ingest.files_scanned);
      return;
    }
    report_ingest(prefix, run.ingest, run.seconds);
    std::printf("partial artifact (%zu application(s)) written to %s\n",
                run.apps, run.path.c_str());
  };

  if (shard.has_value()) {
    util::Stopwatch watch;
    ingest::IngestOptions shard_options = *options;
    shard_options.shard = *shard;
    const report::PartialArtifact partial =
        report::run_shard(*paths, shard_options, pool);
    report::ShardRun run{*shard,
                         partials_dir + "/" +
                             ingest::partial_filename(shard->index),
                         false,
                         partial.ingest,
                         partial.fold.apps.size(),
                         watch.elapsed_seconds()};
    if (const auto status = report::write_partial(partial, run.path);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
      return 1;
    }
    print_shard(run);
    if (!obs_session.finish()) return 1;
    return 0;
  }

  const core::Thresholds thresholds = load_thresholds(cli);
  if (*shard_total > 0) {
    // Every partial goes through the disk round trip `mosaic merge` uses,
    // so serialization fidelity is exercised on every run, not just in
    // tests; the reduce then reads them back one at a time.
    const auto count = static_cast<std::size_t>(*shard_total);
    auto artifacts = report::run_shards(*paths, *options, count, partials_dir,
                                        resume, pool, print_shard);
    if (!artifacts.has_value()) {
      std::fprintf(stderr, "%s\n", artifacts.error().to_string().c_str());
      return 1;
    }
    auto merged =
        report::reduce_partials(*artifacts, *options, thresholds, pool);
    if (!merged.has_value()) {
      std::fprintf(stderr, "%s\n", merged.error().to_string().c_str());
      return 1;
    }
    std::printf("merged %zu shard partial(s) from %s\n\n", count,
                partials_dir.c_str());
    if (!print_batch_summary(merged->batch, cli)) return 1;
    if (!obs_session.finish()) return 1;
    return 0;
  }

  // Stream the corpus through the pool: bounded in-flight memory, retries
  // for transient I/O errors, every failure classified into the funnel.
  util::Stopwatch watch;
  auto ingested = ingest::ingest_paths(*paths, *options, pool);
  if (!ingested.has_value()) {
    std::fprintf(stderr, "%s\n", ingested.error().to_string().c_str());
    return 2;
  }
  report_ingest("", ingested->stats, watch.elapsed_seconds());

  watch.reset();
  const core::BatchResult batch =
      core::analyze_preprocessed(std::move(ingested->pre), thresholds, &pool);
  std::printf("analyzed in %s\n\n",
              util::format_duration(watch.elapsed_seconds()).c_str());

  if (!print_batch_summary(batch, cli)) return 1;
  if (!obs_session.finish()) return 1;
  return 0;
}

int cmd_merge(int argc, char** argv) {
  util::CliParser cli("mosaic merge",
                      "reduce shard partial artifacts into the single-shot "
                      "batch summary (re-reads and analyzes each winner)");
  cli.add_option("thresholds", "JSON thresholds config", "");
  cli.add_option("json", "write the JSON summary to this path", "");
  cli.add_flag("heatmap", "render the Jaccard heatmap");
  if (const auto exit_code = parse_command_line(cli, argc, argv)) {
    return *exit_code;
  }
  if (cli.positional().empty()) {
    std::fprintf(stderr,
                 "mosaic merge: no partial artifacts (pass files or the "
                 "--partials directory of a sharded batch)\n");
    return 2;
  }
  std::size_t artifact_count = 0;
  int exit_code = 0;
  parallel::ThreadPool pool;
  auto merged =
      reduce_partial_args(cli.positional(), {}, load_thresholds(cli), pool,
                          &artifact_count, &exit_code);
  if (!merged.has_value()) return exit_code;
  const ingest::IngestStats& io = merged->ingest;
  std::printf("merged %zu partial(s): %zu files scanned, %zu loaded, %zu "
              "evicted before validity (%zu recovered, %zu quarantined)\n\n",
              artifact_count, io.files_scanned, io.loaded, io.failed,
              io.recovered, io.quarantined);
  if (!print_batch_summary(merged->batch, cli)) return 1;
  return 0;
}

/// Cooperative stop for SIGINT/SIGTERM: dispatch polls the flag at every
/// scheduling step and returns once in-flight tasks finish; a worker exits
/// at its next accept/idle check.
std::atomic<bool> g_stop_requested{false};
dist::Worker* g_signal_worker = nullptr;

void handle_stop_signal(int /*signum*/) {
  g_stop_requested.store(true, std::memory_order_relaxed);
  if (g_signal_worker != nullptr) g_signal_worker->stop();
}

void install_stop_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

int cmd_worker(int argc, char** argv) {
  util::CliParser cli("mosaic worker",
                      "serve shard tasks to a dispatch manager");
  cli.add_option("listen",
                 "host:port to listen on (port 0 binds an ephemeral port, "
                 "printed on startup)", "127.0.0.1:9100");
  cli.add_option("threads", "shard-driver threads (0 = hardware)", "0");
  cli.add_option("heartbeat-interval",
                 "seconds between heartbeat frames while a task runs", "1");
  cli.add_flag("once", "exit after serving one manager session");
  cli.add_option("net-fault-inject",
                 "inject deterministic network faults, e.g. "
                 "seed=7,close=0.25,corrupt=0.25,corrupt_failures=1,"
                 "stall=0.25,stall_ms=400,kill_after=2", "");
  add_obs_options(cli);
  if (const auto exit_code = parse_command_line(cli, argc, argv)) {
    return *exit_code;
  }

  const auto listen = dist::parse_address(cli.get("listen"));
  if (!listen.has_value()) {
    std::fprintf(stderr, "--listen: %s\n",
                 listen.error().to_string().c_str());
    return 2;
  }
  const auto thread_count = parse_thread_count(cli);
  const auto heartbeat = parse_seconds(cli, "heartbeat-interval", false);
  auto obs_options = parse_obs_options(cli);
  if (!thread_count || !heartbeat || !obs_options) return 2;

  dist::WorkerOptions options;
  options.listen = *listen;
  options.threads = *thread_count;
  options.heartbeat_interval_seconds = *heartbeat;
  options.once = cli.get_flag("once");
  if (const auto spec_text = cli.get("net-fault-inject");
      !spec_text.empty()) {
    const auto spec = dist::NetFaultSpec::parse(spec_text);
    if (!spec.has_value()) {
      std::fprintf(stderr, "--net-fault-inject: %s\n",
                   spec.error().to_string().c_str());
      return 2;
    }
    options.fault = *spec;
  }

  // Worker-local telemetry sinks. Note the federation path needs none of
  // these: snapshots ship to the manager on heartbeats regardless, and
  // span collection is switched on by the task request itself.
  ObsSession obs_session(std::move(*obs_options));

  dist::Worker worker(std::move(options));
  if (const auto status = worker.bind(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
    return 1;
  }
  // The shell harness scrapes this line for the ephemeral port.
  std::printf("worker listening on %s:%u\n", listen->host.c_str(),
              static_cast<unsigned>(worker.port()));
  std::fflush(stdout);

  g_signal_worker = &worker;
  install_stop_handlers();
  const auto status = worker.serve();
  g_signal_worker = nullptr;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
    return 1;
  }
  const dist::WorkerStats& stats = worker.stats();
  std::printf("worker served %zu session(s): %zu task(s) done, %zu task "
              "error(s)%s\n",
              stats.sessions, stats.tasks_done, stats.task_errors,
              stats.killed_by_fault ? " (killed by fault injection)" : "");
  if (!obs_session.finish()) return 1;
  return 0;
}

int cmd_dispatch(int argc, char** argv) {
  util::CliParser cli("mosaic dispatch",
                      "distribute a batch run across a worker pool with "
                      "retry, reassignment and graceful degradation");
  cli.add_option("workers",
                 "comma-separated worker addresses (host:port,host:port)",
                 "");
  cli.add_option("shards",
                 "shard tasks to partition the corpus into (0 = one per "
                 "worker)", "0");
  cli.add_option("partials",
                 "directory for received partial artifacts "
                 "(results.shard-K.json)", "");
  cli.add_option("thresholds", "JSON thresholds config", "");
  cli.add_option("json", "write the merged JSON summary to this path", "");
  cli.add_flag("heatmap", "render the Jaccard heatmap");
  cli.add_option("task-deadline",
                 "wall-clock budget per task attempt in seconds "
                 "(0 = unlimited)", "300");
  cli.add_option("heartbeat-grace",
                 "declare a worker hung after this many silent seconds",
                 "5");
  cli.add_option("connect-timeout", "per-connect budget in seconds", "5");
  cli.add_option("max-attempts",
                 "assignments a task may consume before quarantine", "3");
  cli.add_option("reconnect-attempts",
                 "reconnects before a worker is declared lost", "2");
  add_retry_options(cli);
  cli.add_option("threads",
                 "in-process threads for degraded mode and the reduce "
                 "(0 = hardware)", "0");
  cli.add_flag("resume",
               "keep the shards whose partials are already in --partials");
  cli.add_flag("no-degraded",
               "fail instead of finishing in-process when every worker is "
               "lost");
  cli.add_option("abort-after-partials",
                 "testing: simulate a manager crash after N received "
                 "partials", "0");
  cli.add_option("metrics-port",
                 "serve live GET /metrics (Prometheus), /metrics.json, "
                 "/status and /healthz on 127.0.0.1:<port> while "
                 "the run is in flight (0 = ephemeral port, printed on "
                 "startup; empty = off)", "");
  add_endpoint_options(cli);
  add_obs_options(cli);
  if (const auto exit_code = parse_command_line(cli, argc, argv)) {
    return *exit_code;
  }

  dist::DispatchOptions options;
  const auto workers_text = cli.get("workers");
  if (workers_text.empty()) {
    std::fprintf(stderr,
                 "mosaic dispatch: --workers is required (comma-separated "
                 "host:port list)\n");
    return 2;
  }
  auto workers = dist::parse_address_list(workers_text);
  if (!workers.has_value()) {
    std::fprintf(stderr, "--workers: %s\n",
                 workers.error().to_string().c_str());
    return 2;
  }
  options.workers = std::move(*workers);

  options.paths = cli.positional();
  if (options.paths.empty()) {
    std::fprintf(stderr, "mosaic dispatch: no input traces\n");
    return 2;
  }
  options.out_dir = std::string(cli.get("partials"));
  if (options.out_dir.empty()) {
    std::fprintf(stderr, "mosaic dispatch: --partials <dir> is required\n");
    return 2;
  }

  const auto shards = non_negative_int(cli, "shards");
  const auto max_attempts = non_negative_int(cli, "max-attempts");
  const auto reconnects = non_negative_int(cli, "reconnect-attempts");
  const auto abort_after = non_negative_int(cli, "abort-after-partials");
  const auto task_deadline = parse_seconds(cli, "task-deadline", true);
  const auto grace = parse_seconds(cli, "heartbeat-grace", false);
  const auto connect_timeout = parse_seconds(cli, "connect-timeout", false);
  const auto thread_count = parse_thread_count(cli);
  auto endpoint = parse_endpoint_options(cli);
  auto obs_options = parse_obs_options(cli);
  ingest::IngestOptions per_file;
  if (!shards || !max_attempts || !reconnects || !abort_after ||
      !task_deadline || !grace || !connect_timeout || !thread_count ||
      !endpoint || !obs_options || !parse_retry_options(cli, per_file)) {
    return 2;
  }
  if (*max_attempts < 1) {
    std::fprintf(stderr, "--max-attempts must be at least 1\n");
    return 2;
  }

  options.shard_count = static_cast<std::size_t>(*shards);
  options.max_task_attempts = static_cast<std::size_t>(*max_attempts);
  options.reconnect_attempts = static_cast<std::size_t>(*reconnects);
  options.ingest_max_retries = per_file.max_retries;
  options.ingest_file_deadline_seconds = per_file.file_deadline_seconds;
  options.abort_after_partials = static_cast<std::size_t>(*abort_after);
  options.task_deadline_seconds = *task_deadline;
  options.heartbeat_grace_seconds = *grace;
  options.connect_timeout_seconds = *connect_timeout;
  options.degraded_threads = *thread_count;
  const core::Thresholds thresholds = load_thresholds(cli);
  options.resume = cli.get_flag("resume");
  options.allow_degraded = !cli.get_flag("no-degraded");
  options.stop_flag = &g_stop_requested;

  // Fleet telemetry (DESIGN.md §15). The hub is always on — workers ship
  // snapshots on their heartbeats and the scheduler mirrors task states
  // onto its board — so /metrics and /status answer live the moment the
  // endpoint is up. --metrics and --trace-events switch from the
  // single-process writers to the *fleet* views: merged worker-labeled
  // metrics and the multi-lane clock-aligned Chrome trace.
  dist::TelemetryHub hub;
  options.telemetry = &hub;
  options.collect_spans = !obs_options->trace_path.empty();
  if (options.collect_spans) obs::SpanTracer::global().enable();
  if (!endpoint->auth_token.empty()) {
    hub.set_auth_token(std::move(endpoint->auth_token));
  }
  if (!endpoint->health_rules.empty()) {
    hub.set_health_rules(std::move(endpoint->health_rules));
  }
  if (!cli.get("metrics-port").empty()) {
    const auto port = parse_port(cli, "metrics-port");
    if (!port) return 2;
    const dist::Address address{"127.0.0.1", *port};
    if (const auto status = hub.start_endpoint(address); !status.ok()) {
      std::fprintf(stderr, "--metrics-port: %s\n",
                   status.error().to_string().c_str());
      return 1;
    }
    obs::announce_http_endpoint("dispatch", address.host,
                                hub.endpoint_port());
  }
  hub.start_progress(obs_options->progress_seconds);

  // Flushes the fleet sinks on every exit path (including abort /
  // quarantine early returns), mirroring what ObsSession does for the
  // single-process sinks.
  struct FleetFlush {
    dist::TelemetryHub& hub;
    std::string metrics_path;
    std::string trace_path;
    bool finished = false;
    bool ok = true;

    ~FleetFlush() { finish(); }

    bool finish() {
      if (finished) return ok;
      finished = true;
      hub.stop();
      if (!metrics_path.empty()) {
        if (const auto status = hub.write_fleet_metrics(metrics_path);
            !status.ok()) {
          std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
          ok = false;
        } else {
          std::printf("fleet metrics written to %s and %s.prom\n",
                      metrics_path.c_str(), metrics_path.c_str());
        }
      }
      if (!trace_path.empty()) {
        if (const auto status = hub.write_fleet_trace(trace_path);
            !status.ok()) {
          std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
          ok = false;
        } else {
          std::printf("fleet trace events written to %s\n",
                      trace_path.c_str());
        }
        obs::SpanTracer::global().disable();
      }
      return ok;
    }
  } fleet{hub, obs_options->metrics_path, obs_options->trace_path};

  // The hub owns the fleet views of --metrics/--trace-events/--progress;
  // ObsSession keeps covering provenance.
  obs_options->metrics_path.clear();
  obs_options->trace_path.clear();
  obs_options->progress_seconds = 0.0;
  ObsSession obs_session(std::move(*obs_options));
  install_stop_handlers();

  util::Stopwatch watch;
  auto result = dist::run_dispatch(options);
  if (!result.has_value()) {
    std::fprintf(stderr, "%s\n", result.error().to_string().c_str());
    return 2;
  }
  for (const dist::TaskOutcome& outcome : result->outcomes) {
    std::printf("shard %zu: %s via %s after %zu attempt(s)%s%s\n",
                outcome.shard, outcome.status.c_str(),
                outcome.worker.empty() ? "-" : outcome.worker.c_str(),
                outcome.attempts, outcome.error.empty() ? "" : " — ",
                outcome.error.c_str());
  }
  const dist::DispatchStats& stats = result->stats;
  std::printf("dispatch: %zu task(s) done in %s (%zu retried, %zu "
              "reassigned, %zu quarantined, %zu worker(s) lost, %zu run "
              "degraded, %zu resumed from partials)\n",
              stats.tasks_done,
              util::format_duration(watch.elapsed_seconds()).c_str(),
              stats.retries, stats.reassigned, stats.quarantined,
              stats.workers_lost, stats.degraded_tasks,
              stats.resumed_tasks);

  if (result->aborted) {
    std::fprintf(stderr,
                 "mosaic dispatch: interrupted with %zu shard(s) done; "
                 "re-run with --partials %s --resume to continue\n",
                 stats.tasks_done + stats.resumed_tasks,
                 options.out_dir.c_str());
    return 3;
  }
  if (!result->complete()) {
    std::fprintf(stderr,
                 "mosaic dispatch: %zu shard(s) quarantined — refusing to "
                 "merge an incomplete run\n",
                 stats.quarantined);
    return 1;
  }

  std::size_t artifact_count = 0;
  int exit_code = 0;
  parallel::ThreadPool pool(*thread_count);
  auto merged = [&] {
    obs::ScopedTimerMs merge_timer(obs::Registry::global().histogram(
        obs::names::kDispatchMergeMs, obs::latency_buckets_ms(),
        "partial reduce wall time on the manager"));
    return reduce_partial_args(result->partial_paths, per_file, thresholds,
                               pool, &artifact_count, &exit_code);
  }();
  if (!merged.has_value()) return exit_code;
  std::printf("merged %zu shard partial(s) from %s\n\n", artifact_count,
              options.out_dir.c_str());
  if (!print_batch_summary(merged->batch, cli)) return 1;
  if (!obs_session.finish()) return 1;
  if (!fleet.finish()) return 1;
  return 0;
}

int cmd_report(int argc, char** argv) {
  util::CliParser cli("mosaic report",
                      "write a markdown analysis report for a trace "
                      "directory");
  cli.add_option("thresholds", "JSON thresholds config", "");
  cli.add_option("out", "output markdown path", "mosaic_report.md");
  cli.add_option("top-pairs", "Jaccard pairs to list", "10");
  cli.add_option("threads", "worker threads (0 = hardware)", "0");
  cli.add_flag("confusion",
               "append an accuracy drill-down joining provenance records "
               "against --truth");
  cli.add_option("truth",
                 "ground-truth JSONL sidecar from `mosaic generate --truth`",
                 "");
  cli.add_option("straddling", "straddling cases to rank in the drill-down",
                 "20");
  cli.add_flag("from-partials",
               "treat the positional arguments as shard partial artifacts "
               "(files or directories of results.shard-*.json) and reduce "
               "them instead of ingesting traces");
  add_ingest_options(cli);
  add_obs_options(cli);
  if (const auto exit_code = parse_command_line(cli, argc, argv)) {
    return *exit_code;
  }
  const bool from_partials = cli.get_flag("from-partials");
  std::vector<std::string> paths;
  if (from_partials) {
    if (cli.positional().empty()) {
      std::fprintf(stderr, "mosaic report: no partial artifacts\n");
      return 2;
    }
  } else {
    auto traces = input_traces(cli, "mosaic report");
    if (!traces) return 2;
    paths = std::move(*traces);
  }
  const auto thread_count = parse_thread_count(cli);
  std::unique_ptr<ingest::FaultyFileReader> faulty;
  const auto options = parse_ingest_options(cli, faulty);
  auto obs_options = parse_obs_options(cli);
  const auto top_pairs = non_negative_int(cli, "top-pairs");
  const auto straddling_cap = non_negative_int(cli, "straddling");
  if (!thread_count || !options || !obs_options || !top_pairs ||
      !straddling_cap) {
    return 2;
  }
  const bool confusion = cli.get_flag("confusion");
  const std::string truth_path{cli.get("truth")};
  if (confusion && truth_path.empty()) {
    std::fprintf(stderr, "--confusion requires --truth <file>\n");
    return 2;
  }
  const std::uint64_t provenance_sample = obs_options->provenance_sample;
  ObsSession obs_session(std::move(*obs_options));
  // The drill-down is computed from journal records, not by re-analyzing, so
  // --confusion needs the journal armed even without a --provenance dir.
  obs::ProvenanceJournal& journal = obs::ProvenanceJournal::global();
  const bool confusion_armed_journal = confusion && !journal.enabled();
  if (confusion_armed_journal) journal.enable(provenance_sample);

  parallel::ThreadPool pool(*thread_count);
  const core::Thresholds thresholds = load_thresholds(cli);
  core::BatchResult batch;
  std::size_t loaded = 0;
  if (from_partials) {
    int exit_code = 0;
    auto merged = reduce_partial_args(cli.positional(), *options, thresholds,
                                      pool, nullptr, &exit_code);
    if (!merged.has_value()) return exit_code;
    batch = std::move(merged->batch);
    loaded = merged->ingest.loaded;
  } else {
    auto ingested = ingest::ingest_paths(paths, *options, pool);
    if (!ingested.has_value()) {
      std::fprintf(stderr, "%s\n", ingested.error().to_string().c_str());
      return 2;
    }
    loaded = ingested->stats.loaded;
    batch = core::analyze_preprocessed(std::move(ingested->pre), thresholds,
                                       &pool);
  }
  const report::CategoryDistribution distribution =
      report::aggregate_categories(batch);

  std::string md = "# MOSAIC analysis report\n\n";
  md += "Input: " + std::to_string(loaded) + " traces (" +
        std::to_string(batch.preprocess.load_failed) +
        " unreadable files evicted).\n\n";

  const auto& stats = batch.preprocess;
  md += "## Pre-processing funnel\n\n";
  {
    report::TextTable table({"stage", "count"});
    table.add_row({"input traces", std::to_string(stats.input_traces)});
    table.add_row({"load failures (evicted)",
                   std::to_string(stats.load_failed)});
    table.add_row({"corrupted (evicted)", std::to_string(stats.corrupted)});
    table.add_row({"valid", std::to_string(stats.valid)});
    table.add_row(
        {"unique applications retained", std::to_string(stats.retained)});
    md += table.render_markdown();
  }
  if (!stats.eviction_breakdown.empty()) {
    md += "\nEviction reasons:\n\n";
    for (const auto& [code, count] : stats.eviction_breakdown) {
      md += "- " + code + ": " + std::to_string(count) + "\n";
    }
    for (const auto& [kind, count] : stats.corruption_breakdown) {
      md += "  - corrupt-trace/" + kind + ": " + std::to_string(count) + "\n";
    }
  }

  md += "\n## Category distribution\n\n";
  md += "\"applications\" is the deduplicated single-run view; "
        "\"executions\" re-weights by valid runs per application.\n\n";
  {
    report::TextTable table({"category", "applications", "executions"});
    for (const core::Category category : core::all_categories()) {
      if (distribution.single[static_cast<std::size_t>(category)] == 0) {
        continue;
      }
      table.add_row(
          {std::string(core::category_name(category)),
           util::format_percent(distribution.single_fraction(category)),
           util::format_percent(distribution.weighted_fraction(category))});
    }
    md += table.render_markdown();
  }

  md += "\n## Strongest category correlations (Jaccard)\n\n```\n";
  md += report::top_pairs(report::jaccard_matrix(batch.results),
                          static_cast<std::size_t>(*top_pairs));
  md += "```\n";

  md += "\n## Periodic applications\n\n";
  {
    report::TextTable table(
        {"application", "kind", "period", "volume/occurrence", "busy"});
    std::size_t listed = 0;
    for (const core::TraceResult& result : batch.results) {
      for (const auto& [kind, analysis] :
           {std::pair<const char*, const core::KindAnalysis*>{
                "read", &result.read},
            {"write", &result.write}}) {
        if (!analysis->periodicity.periodic ||
            analysis->temporality.label == core::Temporality::kInsignificant) {
          continue;
        }
        if (++listed > 40) break;
        const core::PeriodicGroup& group = analysis->periodicity.dominant();
        char busy[16];
        std::snprintf(busy, sizeof busy, "%.1f%%", group.busy_ratio * 100.0);
        table.add_row({result.app_key, kind,
                       util::format_duration(group.period_seconds),
                       util::format_bytes(group.mean_bytes), busy});
      }
    }
    md += table.row_count() > 0 ? table.render_markdown()
                                : std::string("none detected\n");
  }

  if (confusion) {
    auto truths = sim::read_truth_jsonl(truth_path);
    if (!truths.has_value()) {
      std::fprintf(stderr, "%s\n", truths.error().to_string().c_str());
      return 1;
    }
    const std::vector<obs::TraceProvenance> records = journal.collect();
    const report::ConfusionReport drill = report::build_confusion(
        records, *truths, static_cast<std::size_t>(*straddling_cap));
    if (confusion_armed_journal) {
      journal.disable();
      journal.reset();
    }
    md += "\n## Accuracy drill-down\n\n";
    md += "Computed by joining the decision-provenance journal (1 in " +
          std::to_string(provenance_sample) +
          " traces sampled) against the generator's ground-truth sidecar — "
          "no re-analysis.\n\n";
    md += report::render_confusion(drill);
    std::printf("confusion: joined %zu provenance record(s) against truth "
                "(%zu without a truth entry)\n",
                drill.joined, drill.missing_truth);
  }

  const std::string out_path{cli.get("out")};
  if (const auto status = report::write_text_to_file(md, out_path);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
    return 1;
  }
  std::printf("report written to %s (%zu applications)\n", out_path.c_str(),
              batch.results.size());
  if (!obs_session.finish()) return 1;
  return 0;
}

int cmd_explain(int argc, char** argv) {
  util::CliParser cli("mosaic explain",
                      "render the decision path behind one trace's "
                      "categories");
  cli.add_option("thresholds", "JSON thresholds config", "");
  cli.add_option("provenance",
                 "look the argument up as a trace id (job id or app key) in "
                 "this directory's provenance.jsonl instead of analyzing a "
                 "file", "");
  cli.add_flag("json", "emit the provenance record as pretty JSON");
  if (const auto exit_code = parse_command_line(cli, argc, argv)) {
    return *exit_code;
  }
  if (cli.positional().size() != 1) {
    std::fprintf(stderr, "mosaic explain: exactly one trace file or trace "
                         "id\n");
    return 2;
  }
  const std::string target = cli.positional().front();

  std::optional<obs::TraceProvenance> record;
  std::error_code ec;
  if (std::filesystem::is_regular_file(target, ec)) {
    // Live path: run the full pipeline once with evidence capture forced on
    // (the journal's sampling gate is bypassed by the explicit overload).
    const ingest::LoadedFile file = ingest::load_file(target);
    const core::FileOutcome& outcome = file.outcome;
    if (outcome.load_failed()) {
      std::fprintf(stderr, "%s\n", outcome.error->to_string().c_str());
      return 1;
    }
    if (!outcome.valid()) {
      std::fprintf(stderr, "mosaic explain: %s is corrupted (%s)\n",
                   target.c_str(),
                   trace::corruption_kind_name(outcome.corruption));
      return 1;
    }
    const core::Analyzer analyzer(load_thresholds(cli));
    obs::TraceProvenance evidence;
    (void)analyzer.analyze(*file.trace, &evidence);
    record = std::move(evidence);
  } else {
    // Recorded path: join against an earlier batch run's journal.
    const std::string dir{cli.get("provenance")};
    if (dir.empty()) {
      std::fprintf(stderr,
                   "mosaic explain: %s is not a trace file; pass "
                   "--provenance <dir> to look up a recorded trace id\n",
                   target.c_str());
      return 2;
    }
    auto records = obs::read_provenance_jsonl(dir + "/provenance.jsonl");
    if (!records.has_value()) {
      std::fprintf(stderr, "%s\n", records.error().to_string().c_str());
      return 1;
    }
    for (obs::TraceProvenance& candidate : *records) {
      if (candidate.app_key == target ||
          std::to_string(candidate.job_id) == target) {
        record = std::move(candidate);
        break;
      }
    }
    if (!record.has_value()) {
      std::fprintf(stderr,
                   "mosaic explain: no provenance record for '%s' in %s\n",
                   target.c_str(), dir.c_str());
      return 1;
    }
  }

  if (cli.get_flag("json")) {
    std::printf("%s\n", json::serialize(obs::provenance_to_json(*record),
                                        /*pretty=*/true)
                            .c_str());
  } else {
    std::fputs(obs::explain_text(*record).c_str(), stdout);
  }
  return 0;
}

int cmd_generate(int argc, char** argv) {
  util::CliParser cli("mosaic generate",
                      "write a synthetic Blue Waters-like population");
  cli.add_option("traces", "number of executions", "1000");
  cli.add_option("seed", "master seed", "20190410");
  cli.add_option("format", "text | mbt | mixed", "mbt");
  cli.add_option("corruption", "corrupted fraction", "0.32");
  cli.add_option("truth",
                 "write the planted ground-truth labels to this JSONL "
                 "sidecar (corrupted traces excluded)", "");
  if (const auto exit_code = parse_command_line(cli, argc, argv)) {
    return *exit_code;
  }
  if (cli.positional().size() != 1) {
    std::fprintf(stderr, "mosaic generate: exactly one output directory\n");
    return 2;
  }
  const auto traces = non_negative_int(cli, "traces");
  const auto seed = parse_u64(cli, "seed");
  const auto corruption = parse_fraction(cli, "corruption");
  if (!traces || !seed || !corruption) return 2;
  const std::string directory = cli.positional().front();
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", directory.c_str(),
                 ec.message().c_str());
    return 1;
  }

  sim::PopulationConfig config;
  config.target_traces = static_cast<std::size_t>(*traces);
  config.seed = *seed;
  config.corruption_fraction = *corruption;
  const sim::Population population = sim::generate_population(config);

  const std::string format{cli.get("format")};
  std::size_t written = 0;
  for (std::size_t i = 0; i < population.traces.size(); ++i) {
    const trace::Trace& t = population.traces[i].trace;
    const std::string stem =
        directory + "/job_" + std::to_string(t.meta.job_id);
    const bool as_text = format == "text" || (format == "mixed" && i % 2 == 0);
    const util::Status status =
        as_text ? darshan::write_text_file(t, stem + ".darshan.txt")
                : darshan::write_mbt_file(t, stem + ".mbt");
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
      return 1;
    }
    ++written;
  }
  std::printf("wrote %zu traces (%zu applications) to %s\n", written,
              population.app_count, directory.c_str());
  if (const auto truth_path = cli.get("truth"); !truth_path.empty()) {
    const std::vector<sim::TruthRecord> records =
        sim::truth_records(population.traces);
    if (const auto status =
            sim::write_truth_jsonl(records, std::string(truth_path));
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
      return 1;
    }
    std::printf("truth labels (%zu record(s)) written to %s\n",
                records.size(), std::string(truth_path).c_str());
  }
  return 0;
}

int cmd_health(int argc, char** argv) {
  util::CliParser cli("mosaic health",
                      "evaluate health rules over a saved metrics JSON file "
                      "(exit 0 = ok/warn, 1 = fail)");
  cli.add_option("rules",
                 "JSON rules file replacing the built-in defaults", "");
  cli.add_flag("fleet",
               "use the fleet (dispatch manager) default rules instead of "
               "the process defaults");
  cli.add_flag("print-rules",
               "print the effective rules as JSON (a valid --rules file) "
               "and exit");
  cli.add_flag("json", "print the full report as JSON instead of text");
  if (const auto exit_code = parse_command_line(cli, argc, argv)) {
    return *exit_code;
  }

  std::vector<obs::HealthRule> rules = cli.get_flag("fleet")
                                           ? obs::default_fleet_health_rules()
                                           : obs::default_health_rules();
  if (const auto rules_path = cli.get("rules"); !rules_path.empty()) {
    auto loaded = obs::load_health_rules(std::string(rules_path));
    if (!loaded.has_value()) {
      std::fprintf(stderr, "--rules: %s\n",
                   loaded.error().to_string().c_str());
      return 2;
    }
    rules = std::move(*loaded);
  }
  if (cli.get_flag("print-rules")) {
    std::printf("%s\n",
                json::serialize(obs::health_rules_to_json(rules)).c_str());
    return 0;
  }

  if (cli.positional().size() != 1) {
    std::fprintf(stderr,
                 "mosaic health: exactly one metrics JSON file expected "
                 "(the --metrics artifact of a previous run)\n");
    return 2;
  }
  const std::string& path = cli.positional().front();
  const auto parsed = json::read_file(path);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "mosaic health: %s\n",
                 parsed.error().to_string().c_str());
    return 2;
  }
  const json::Reader metrics(*parsed, "metrics json");
  const obs::Snapshot snapshot = obs::snapshot_from_metrics_json(metrics);
  if (!metrics.ok()) {
    std::fprintf(stderr, "mosaic health: %s: %s\n", path.c_str(),
                 metrics.error().to_string().c_str());
    return 2;
  }

  const obs::HealthReport report = obs::evaluate_health(snapshot, rules);
  if (cli.get_flag("json")) {
    std::printf("%s\n",
                json::serialize(obs::health_to_json(report)).c_str());
  } else {
    std::fputs(obs::health_text(report).c_str(), stdout);
  }
  return report.level == obs::HealthLevel::kFail ? 1 : 0;
}

int cmd_daemon(int argc, char** argv) {
  util::CliParser cli("mosaic daemon",
                      "always-on analysis service: categorize arriving "
                      "traces incrementally, serve cached results over "
                      "HTTP");
  cli.add_option("watch",
                 "comma-separated directories polled for new trace files",
                 "");
  cli.add_option("listen",
                 "host:port accepting `mosaic submit` connections (port 0 "
                 "binds an ephemeral port, printed on startup)", "");
  cli.add_option("poll-interval",
                 "seconds between watch-directory sweeps", "0.5");
  cli.add_option("cache-bytes",
                 "result-cache capacity in bytes, each analysis counted at "
                 "its evidence's estimated heap footprint; least recently "
                 "used analyses are evicted beyond this", "67108864");
  cli.add_option("spool-dir",
                 "directory for submitted trace bytes (default: a "
                 "per-process dir under the system temp dir)", "");
  cli.add_option("thresholds", "JSON thresholds config", "");
  add_retry_options(cli);
  cli.add_option("metrics-port",
                 "serve /results, /explain/<trace-id>, /report and the "
                 "standard telemetry routes on 127.0.0.1:<port> "
                 "(0 = ephemeral, printed on startup)", "0");
  add_endpoint_options(cli);
  add_obs_options(cli);
  if (const auto exit_code = parse_command_line(cli, argc, argv)) {
    return *exit_code;
  }

  dist::DaemonOptions options;
  const std::string watch_text(cli.get("watch"));
  const std::string listen_text(cli.get("listen"));
  if (watch_text.empty() && listen_text.empty()) {
    std::fprintf(stderr,
                 "mosaic daemon: nothing to serve — pass --watch "
                 "<dir[,dir...]> to poll directories for new traces, or "
                 "--listen <host:port> to accept `mosaic submit` "
                 "connections\n");
    return 2;
  }
  if (!watch_text.empty() && !listen_text.empty()) {
    std::fprintf(stderr,
                 "mosaic daemon: --watch and --listen are mutually "
                 "exclusive — run one daemon per ingress (each serves its "
                 "own HTTP endpoint and result cache)\n");
    return 2;
  }
  for (const auto piece : util::split(watch_text, ',')) {
    const auto dir = util::trim(piece);
    if (dir.empty()) continue;
    std::error_code ec;
    if (!std::filesystem::is_directory(std::string(dir), ec)) {
      std::fprintf(stderr,
                   "--watch: %s is not a directory (create it first, or "
                   "check the comma-separated list for typos)\n",
                   std::string(dir).c_str());
      return 2;
    }
    options.watch_dirs.emplace_back(dir);
  }
  if (!watch_text.empty() && options.watch_dirs.empty()) {
    std::fprintf(stderr, "--watch: no directories in '%s'\n",
                 watch_text.c_str());
    return 2;
  }
  if (!listen_text.empty()) {
    const auto listen = dist::parse_address(listen_text);
    if (!listen.has_value()) {
      std::fprintf(stderr, "--listen: %s\n",
                   listen.error().to_string().c_str());
      return 2;
    }
    options.listen = *listen;
  }

  const auto poll = parse_seconds(cli, "poll-interval", false);
  const auto cache_bytes = non_negative_int(cli, "cache-bytes");
  const auto port = parse_port(cli, "metrics-port");
  auto endpoint = parse_endpoint_options(cli);
  auto obs_options = parse_obs_options(cli);
  if (!poll || !cache_bytes || !port || !endpoint || !obs_options ||
      !parse_retry_options(cli, options.ingest)) {
    return 2;
  }
  options.poll_interval_seconds = *poll;
  options.cache_capacity_bytes = static_cast<std::size_t>(*cache_bytes);
  options.spool_dir = std::string(cli.get("spool-dir"));
  options.thresholds = load_thresholds(cli);
  options.http = dist::Address{"127.0.0.1", *port};
  options.auth_token = std::move(endpoint->auth_token);
  options.health_rules = std::move(endpoint->health_rules);

  // The session flushes the provenance journal and metrics sinks when run()
  // drains — the graceful half of SIGINT/SIGTERM handling.
  ObsSession obs_session(std::move(*obs_options));

  install_stop_handlers();
  options.stop = &g_stop_requested;
  const std::string http_host = options.http.host;
  const std::string listen_host =
      options.listen.has_value() ? options.listen->host : std::string();

  dist::Daemon daemon(std::move(options));
  if (const auto status = daemon.start(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
    return 1;
  }
  obs::announce_http_endpoint("daemon", http_host, daemon.http_port());
  if (daemon.listen_port() != 0) {
    // The shell harness scrapes this line for the ephemeral port.
    std::printf("daemon accepting submissions on %s:%u\n",
                listen_host.c_str(),
                static_cast<unsigned>(daemon.listen_port()));
    std::fflush(stdout);
  }

  daemon.run();

  const dist::DaemonStats stats = daemon.stats();
  std::printf("daemon drained: %llu submission(s) (%llu analyzed, %llu "
              "cache hit(s), %llu rejected), %llu watch scan(s)\n",
              static_cast<unsigned long long>(stats.submissions),
              static_cast<unsigned long long>(stats.analyzed),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.scans));
  if (!obs_session.finish()) return 1;
  return 0;
}

int cmd_submit(int argc, char** argv) {
  util::CliParser cli("mosaic submit",
                      "ship trace files to a running `mosaic daemon`");
  cli.add_option("daemon",
                 "daemon submission address (host:port, as printed by "
                 "`mosaic daemon --listen`)", "");
  cli.add_option("timeout", "per-file reply budget in seconds", "10");
  if (const auto exit_code = parse_command_line(cli, argc, argv)) {
    return *exit_code;
  }
  if (cli.positional().empty()) {
    std::fprintf(stderr, "mosaic submit: at least one trace file\n");
    return 2;
  }
  const std::string address_text(cli.get("daemon"));
  if (address_text.empty()) {
    std::fprintf(stderr,
                 "mosaic submit: --daemon <host:port> is required (the "
                 "address a `mosaic daemon --listen` printed on startup)\n");
    return 2;
  }
  const auto address = dist::parse_address(address_text);
  if (!address.has_value()) {
    std::fprintf(stderr, "--daemon: %s\n",
                 address.error().to_string().c_str());
    return 2;
  }
  const auto timeout = parse_seconds(cli, "timeout", false);
  if (!timeout.has_value()) return 2;

  int failures = 0;
  for (const std::string& path : cli.positional()) {
    const auto reply = dist::submit_trace_file(*address, path, *timeout);
    if (!reply.has_value()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   reply.error().to_string().c_str());
      ++failures;
      continue;
    }
    if (!reply->ok) {
      std::fprintf(stderr, "%s: rejected — %s\n", path.c_str(),
                   reply->error.c_str());
      ++failures;
      continue;
    }
    const std::string categories = reply->categories.empty()
                                       ? std::string("(none)")
                                       : util::join(reply->categories, ", ");
    std::printf("%s: trace %s (%s) -> %s%s\n", path.c_str(),
                reply->trace_id.c_str(), reply->app_key.c_str(),
                categories.c_str(), reply->cached ? " [cache hit]" : "");
  }
  return failures == 0 ? 0 : 1;
}

int cmd_thresholds(int argc, char** argv) {
  util::CliParser cli("mosaic thresholds",
                      "print or write the thresholds config");
  cli.add_option("write", "write the config to this path instead", "");
  cli.add_option("thresholds", "start from this config instead of defaults",
                 "");
  if (const auto status = cli.parse(argc, argv); !status.ok()) {
    return status.error().code == util::ErrorCode::kNotFound ? 0 : 2;
  }
  const core::Thresholds thresholds = load_thresholds(cli);
  if (const auto path = cli.get("write"); !path.empty()) {
    if (const auto status =
            core::write_thresholds_file(thresholds, std::string(path));
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
      return 1;
    }
    std::printf("thresholds written to %s\n", std::string(path).c_str());
    return 0;
  }
  std::fputs(json::serialize(core::thresholds_to_json(thresholds)).c_str(),
             stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    print_usage();
    return argc < 2 ? 2 : 0;
  }
  const std::string command = argv[1];
  // Shift argv so each subcommand parses its own options.
  argv[1] = argv[0];
  if (command == "analyze") return cmd_analyze(argc - 1, argv + 1);
  if (command == "explain") return cmd_explain(argc - 1, argv + 1);
  if (command == "report") return cmd_report(argc - 1, argv + 1);
  if (command == "batch") return cmd_batch(argc - 1, argv + 1);
  if (command == "merge") return cmd_merge(argc - 1, argv + 1);
  if (command == "dispatch") return cmd_dispatch(argc - 1, argv + 1);
  if (command == "worker") return cmd_worker(argc - 1, argv + 1);
  if (command == "daemon") return cmd_daemon(argc - 1, argv + 1);
  if (command == "submit") return cmd_submit(argc - 1, argv + 1);
  if (command == "generate") return cmd_generate(argc - 1, argv + 1);
  if (command == "health") return cmd_health(argc - 1, argv + 1);
  if (command == "thresholds") return cmd_thresholds(argc - 1, argv + 1);
  std::fprintf(stderr, "mosaic: unknown command '%s'\n\n", command.c_str());
  print_usage();
  return 2;
}

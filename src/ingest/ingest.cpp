#include "ingest/ingest.hpp"

#include <algorithm>
#include <optional>

#include "ingest/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "util/backoff.hpp"
#include "util/deadline.hpp"
#include "util/fs.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"

namespace mosaic::ingest {

using util::Error;
using util::ErrorCode;
using util::Expected;

namespace {

/// Growth and cap of the backoff between read attempts.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffMaxMs = 2000.0;

/// Ingest-loop instruments, resolved once per process.
struct IngestMetrics {
  obs::Counter& scanned;
  obs::Counter& processed;
  obs::Counter& loaded;
  obs::Counter& retry_attempts;
  obs::Counter& recovered;
  obs::Counter& quarantined;
  obs::Counter& journal_replayed;
  obs::Histogram& backoff_ms;
  obs::Histogram& retries_per_file;
  obs::Histogram& parse_ms;

  static IngestMetrics& get() {
    static auto& registry = obs::Registry::global();
    static const auto latency = obs::latency_buckets_ms();
    static constexpr double kRetryEdges[] = {1, 2, 4, 8, 16, 32};
    static IngestMetrics metrics{
        registry.counter(obs::names::kIngestScanned,
                         "files handed to the ingest loop"),
        registry.counter(obs::names::kIngestProcessed,
                         "files whose outcome was folded (live, not replayed)"),
        registry.counter(obs::names::kIngestLoaded,
                         "files read and parsed successfully"),
        registry.counter(obs::names::kIngestRetryAttempts,
                         "read retries across all files"),
        registry.counter(obs::names::kIngestRecovered,
                         "files loaded successfully after at least one retry"),
        registry.counter(obs::names::kIngestQuarantined,
                         "files moved to the quarantine directory"),
        registry.counter(obs::names::kIngestJournalReplayed,
                         "outcomes replayed from the resume journal"),
        registry.histogram(obs::names::kIngestBackoffMs, latency,
                           "per-retry backoff sleep (ms)"),
        registry.histogram(obs::names::kIngestRetriesPerFile, kRetryEdges,
                           "retry attempts per eventually-loaded file"),
        registry.histogram(obs::names::kIngestParseMs, latency,
                           "trace parse latency (ms)"),
    };
    return metrics;
  }
};

/// Eviction counter labeled by ErrorCode; failure paths are cold, so the
/// per-call registry lookup is acceptable.
void count_load_failure(ErrorCode code) {
  obs::Registry::global()
      .counter(obs::labeled(obs::names::kIngestFailed, "code",
                            util::error_code_name(code)),
               "files evicted by the ingest loop, by error code")
      .add();
}

/// Content-caused failures are worth moving aside: re-running the batch will
/// hit them again, and operators triage them out-of-band. Environmental
/// failures (io-error, not-found) are left in place.
bool should_quarantine(ErrorCode code) noexcept {
  return code == ErrorCode::kParseError || code == ErrorCode::kCorruptTrace ||
         code == ErrorCode::kTimeout;
}

/// Serial fold-side state shared by the eviction paths.
struct FoldContext {
  core::StreamingPreprocessor* preprocessor;
  IngestStats* stats;
  util::LineAppender* journal;
  const IngestOptions* options;
};

void quarantine_file(FoldContext& ctx, const std::string& path) {
  if (ctx.options->quarantine_dir.empty()) return;
  auto moved = util::move_file_into_dir(path, ctx.options->quarantine_dir);
  if (moved.has_value()) {
    ++ctx.stats->quarantined;
    IngestMetrics::get().quarantined.add();
    MOSAIC_LOG_INFO("ingest: quarantined %s -> %s", path.c_str(),
                    moved->c_str());
  } else {
    MOSAIC_LOG_WARN("ingest: could not quarantine %s: %s", path.c_str(),
                    moved.error().to_string().c_str());
  }
}

/// Folds one file loaded this run into the ingest counters, the journal,
/// the quarantine and the funnel.
void fold(FoldContext& ctx, LoadedFile file) {
  IngestMetrics& metrics = IngestMetrics::get();
  metrics.processed.add();
  ctx.stats->retry_attempts += file.retry_attempts;
  const core::FileOutcome& outcome = file.outcome;
  if (outcome.load_failed()) {
    ++ctx.stats->failed;
    count_load_failure(outcome.error->code);
    MOSAIC_LOG_DEBUG("ingest: evicting %s: %s", outcome.path.c_str(),
                     outcome.error->to_string().c_str());
  } else {
    ++ctx.stats->loaded;
    metrics.loaded.add();
    metrics.retries_per_file.observe(static_cast<double>(file.retry_attempts));
    if (file.retry_attempts > 0) {
      ++ctx.stats->recovered;
      metrics.recovered.add();
    }
  }
  if (ctx.journal->is_open()) {
    if (const auto status = ctx.journal->append(journal_line(outcome));
        !status.ok()) {
      // The journal protects against crashes; its own failure must not
      // become one. The batch continues, the entry is simply redone on
      // resume.
      MOSAIC_LOG_WARN("ingest: %s", status.error().to_string().c_str());
    }
  }
  if (!outcome.valid() && should_quarantine(outcome.error->code)) {
    quarantine_file(ctx, outcome.path);
  }
  ctx.preprocessor->add(std::move(file.outcome), std::move(file.trace));
}

}  // namespace

Expected<IngestResult> ingest_paths(const std::vector<std::string>& paths,
                                    const IngestOptions& options,
                                    parallel::ThreadPool& pool) {
  // Shard filter first: files owned by other shards must not appear in any
  // counter, journal or funnel of this run, or merged partials would count
  // them N times.
  std::vector<std::string> owned;
  const std::vector<std::string>* inputs = &paths;
  if (options.shard.active()) {
    owned.reserve(paths.size() / options.shard.count + 1);
    for (const std::string& path : paths) {
      if (shard_owns(options.shard, path)) owned.push_back(path);
    }
    inputs = &owned;
    auto& registry = obs::Registry::global();
    registry.gauge(obs::names::kShardIndex, "shard this run owns (--shard K/N)")
        .set(static_cast<std::int64_t>(options.shard.index));
    registry.gauge(obs::names::kShardCount, "total shards in the partition")
        .set(static_cast<std::int64_t>(options.shard.count));
  }

  IngestResult result;
  result.stats.files_scanned = inputs->size();
  IngestMetrics& metrics = IngestMetrics::get();
  metrics.scanned.add(inputs->size());

  std::map<std::string, core::FileOutcome> replay;
  if (options.resume && !options.journal_path.empty()) {
    auto loaded = load_journal(options.journal_path,
                               &result.stats.journal_dropped);
    if (!loaded.has_value()) return std::move(loaded).error();
    replay = std::move(*loaded);
  }

  util::LineAppender journal;
  if (!options.journal_path.empty()) {
    if (const auto status = journal.open(options.journal_path); !status.ok()) {
      return status.error();
    }
  }

  core::StreamingPreprocessor preprocessor;
  FoldContext ctx{&preprocessor, &result.stats, &journal, &options};

  // Replayed outcomes fold first, through the same add() as a loaded file
  // but without a trace; their files are excluded from the windows.
  std::vector<std::string> pending;
  pending.reserve(inputs->size());
  for (const std::string& path : *inputs) {
    const auto it = replay.find(path);
    if (it == replay.end()) {
      pending.push_back(path);
      continue;
    }
    ++result.stats.journal_replayed;
    metrics.journal_replayed.add();
    preprocessor.add(it->second);
  }

  const std::size_t window = options.max_in_flight != 0
                                 ? options.max_in_flight
                                 : pool.thread_count() * 4;
  std::size_t processed = 0;
  for (std::size_t begin = 0; begin < pending.size() && !result.stats.aborted;
       begin += window) {
    const std::size_t end = std::min(pending.size(), begin + window);
    MOSAIC_SPAN("ingest-window");
    std::vector<LoadedFile> files(end - begin);
    parallel::parallel_for(
        pool, end - begin, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            files[i] = load_file(pending[begin + i], options);
          }
        });
    // Serial fold in path order keeps the journal and funnel deterministic
    // regardless of worker scheduling.
    for (LoadedFile& file : files) {
      fold(ctx, std::move(file));
      ++processed;
      if (options.abort_after_files != 0 &&
          processed >= options.abort_after_files) {
        result.stats.aborted = true;
        break;
      }
    }
  }

  // Journal-replayed dedup winners are re-read lazily — one file per
  // application at most, with the same retry policy.
  result.pre = preprocessor.finish([&](const std::string& path) {
    std::size_t retries = 0;
    auto trace = load_trace(path, options, &retries);
    result.stats.retry_attempts += retries;
    return trace;
  });
  return result;
}

Expected<trace::Trace> load_trace(const std::string& path,
                                  const IngestOptions& options,
                                  std::size_t* retry_attempts) {
  MOSAIC_SPAN("load");
  FileReader& reader =
      options.reader != nullptr ? *options.reader : system_reader();
  IngestMetrics& metrics = IngestMetrics::get();
  const util::Deadline deadline =
      options.file_deadline_seconds > 0.0
          ? util::Deadline::after_seconds(options.file_deadline_seconds)
          : util::Deadline{};
  util::ExponentialBackoff backoff(options.backoff_initial_ms,
                                   kBackoffMultiplier, kBackoffMaxMs);
  if (retry_attempts != nullptr) *retry_attempts = 0;
  for (int attempt = 0;; ++attempt) {
    auto bytes = reader.read_mapped(path, attempt);
    if (bytes.has_value()) {
      MOSAIC_SPAN("parse");
      const obs::ScopedTimerMs parse_timer(metrics.parse_ms);
      return parse_trace_bytes(path, bytes->bytes(), deadline);
    }
    Error error = std::move(bytes).error();
    // Only kIoError is worth retrying: content does not heal, and a missing
    // file stays missing within one batch.
    if (error.code != ErrorCode::kIoError || attempt >= options.max_retries) {
      return error;
    }
    if (deadline.expired()) {
      return Error{ErrorCode::kTimeout,
                   "deadline exceeded after " + std::to_string(attempt + 1) +
                       " attempt(s) on " + path + " (last: " + error.message +
                       ")"};
    }
    double delay_ms = backoff.next_delay_ms();
    if (deadline.finite()) {
      delay_ms = std::min(delay_ms, deadline.remaining_seconds() * 1000.0);
    }
    metrics.backoff_ms.observe(delay_ms);
    metrics.retry_attempts.add();
    util::sleep_for_ms(delay_ms);
    if (retry_attempts != nullptr) ++*retry_attempts;
  }
}

LoadedFile load_file(const std::string& path, const IngestOptions& options) {
  LoadedFile file;
  auto parsed = load_trace(path, options, &file.retry_attempts);
  if (!parsed.has_value()) {
    file.outcome.path = path;
    file.outcome.error = std::move(parsed).error();
    return file;
  }
  file.outcome = core::assess(*parsed, path);
  if (file.outcome.valid()) file.trace = std::move(*parsed);
  return file;
}

}  // namespace mosaic::ingest

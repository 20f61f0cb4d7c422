#include "ingest/ingest.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
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

/// A loaded file as the fold sees it: the outcome without the trace.
struct LoadedOutcome {
  core::FileOutcome outcome;
  std::size_t retry_attempts = 0;
};

/// How many outcomes the workers may publish ahead of the fold. A constant,
/// not an option: a slot holds a digest or an eviction, never a trace.
constexpr std::size_t kRingSize = 1024;

/// Loads `paths` on every pool worker and hands the outcomes to the calling
/// thread strictly in path order. One loop per worker claims the next path,
/// runs load_file, drops the trace and publishes the outcome into a ring
/// slot; it waits while the ring holds kRingSize outcomes the fold has not
/// taken.
class OrderedLoads {
 public:
  OrderedLoads(const std::vector<const std::string*>& paths,
               const IngestOptions& options, parallel::ThreadPool& pool)
      : paths_(paths),
        options_(options),
        pool_(pool),
        ring_(std::min(paths.size(), kRingSize)) {
    const std::size_t loops = std::min(pool.thread_count(), paths.size());
    for (std::size_t i = 0; i < loops; ++i) {
      pool_.submit([this] { load_loop(); });
    }
  }
  OrderedLoads(const OrderedLoads&) = delete;
  OrderedLoads& operator=(const OrderedLoads&) = delete;

  /// Reached without join() only while the fold itself is throwing: the
  /// workers still stop before the ring goes, and a worker's exception is
  /// logged behind the fold's.
  ~OrderedLoads() {
    if (joined_) return;
    stop();
    try {
      pool_.wait_idle();
    } catch (const std::exception& e) {
      MOSAIC_LOG_WARN("ingest: a load worker also failed: %s", e.what());
    } catch (...) {
      MOSAIC_LOG_WARN("ingest: a load worker also failed");
    }
  }

  /// The next outcome in path order; nullopt once a worker has thrown.
  [[nodiscard]] std::optional<LoadedOutcome> next() {
    std::unique_lock lock(mutex_);
    Slot& slot = ring_[taken_ % ring_.size()];
    published_.wait(lock, [&] { return stopped_ || slot.ready; });
    if (stopped_) return std::nullopt;
    LoadedOutcome file = std::move(slot.file);
    slot.ready = false;
    ++taken_;
    lock.unlock();
    freed_.notify_one();
    return file;
  }

  /// Stops the workers, waits until every one has returned and rethrows
  /// the first exception a worker threw.
  void join() {
    stop();
    joined_ = true;
    pool_.wait_idle();
  }

 private:
  struct Slot {
    LoadedOutcome file;
    bool ready = false;
  };

  void load_loop() {
    try {
      while (const auto index = claim()) {
        LoadedFile file = load_file(*paths_[*index], options_);
        publish(*index, {std::move(file.outcome), file.retry_attempts});
      }
    } catch (...) {
      stop();  // the fold must not wait for an outcome that never comes
      throw;   // kept by the pool for join()
    }
  }

  /// The next path index once its ring slot is free; nullopt when every
  /// path is claimed or the loads stopped.
  std::optional<std::size_t> claim() {
    std::unique_lock lock(mutex_);
    freed_.wait(lock, [&] {
      return stopped_ || claimed_ == paths_.size() ||
             claimed_ < taken_ + ring_.size();
    });
    if (stopped_ || claimed_ == paths_.size()) return std::nullopt;
    return claimed_++;
  }

  void publish(std::size_t index, LoadedOutcome file) {
    {
      const std::scoped_lock lock(mutex_);
      Slot& slot = ring_[index % ring_.size()];
      slot.file = std::move(file);
      slot.ready = true;
      if (index != taken_) return;  // the fold is not waiting for this one
    }
    published_.notify_one();
  }

  void stop() {
    {
      const std::scoped_lock lock(mutex_);
      stopped_ = true;
    }
    published_.notify_all();
    freed_.notify_all();
  }

  const std::vector<const std::string*>& paths_;
  const IngestOptions& options_;
  parallel::ThreadPool& pool_;
  std::mutex mutex_;
  std::condition_variable published_;  ///< the fold waits for its next file
  std::condition_variable freed_;      ///< workers wait for a free slot
  std::vector<Slot> ring_;
  std::size_t claimed_ = 0;  ///< paths handed to workers
  std::size_t taken_ = 0;    ///< outcomes handed to the fold
  bool stopped_ = false;
  bool joined_ = false;
};

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
void fold(FoldContext& ctx, LoadedOutcome file) {
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
  ctx.preprocessor->add(std::move(file.outcome));
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

  // Replayed outcomes fold first, through the same add() as a loaded file;
  // their files are not read again.
  std::vector<const std::string*> pending;
  pending.reserve(inputs->size());
  for (const std::string& path : *inputs) {
    const auto it = replay.find(path);
    if (it == replay.end()) {
      pending.push_back(&path);
      continue;
    }
    ++result.stats.journal_replayed;
    metrics.journal_replayed.add();
    preprocessor.add(it->second);
  }

  if (!pending.empty()) {
    MOSAIC_SPAN("ingest-window");
    OrderedLoads loads(pending, options, pool);
    // Serial fold in path order keeps the journal and funnel deterministic
    // regardless of worker scheduling.
    for (std::size_t processed = 0; processed < pending.size();) {
      auto file = loads.next();
      if (!file) break;  // a worker threw; join() rethrows it
      fold(ctx, std::move(*file));
      if (++processed == options.abort_after_files) {
        result.stats.aborted = true;
        break;
      }
    }
    loads.join();
  }

  // The fold kept digests only: each application's winner is re-read, on
  // the pool and with the same retry policy, and checked against its digest.
  std::atomic<std::size_t> reload_retries{0};
  result.pre = preprocessor.finish(
      [&](const std::string& path) {
        std::size_t retries = 0;
        auto trace = load_trace(path, options, &retries);
        reload_retries += retries;
        return trace;
      },
      &pool);
  result.stats.retry_attempts += reload_retries;
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
    auto bytes = reader.read(path, attempt);
    if (bytes.has_value()) {
      MOSAIC_SPAN("parse");
      const obs::ScopedTimerMs parse_timer(metrics.parse_ms);
      return parse_trace_bytes(path, *bytes, deadline);
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

#include "ingest/ingest.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "darshan/binary_format.hpp"
#include "ingest/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "util/backoff.hpp"
#include "util/deadline.hpp"
#include "util/fs.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

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

/// The per-file budget: one deadline covers every read attempt and the
/// parse.
util::Deadline file_deadline(const IngestOptions& options) {
  return options.file_deadline_seconds > 0.0
             ? util::Deadline::after_seconds(options.file_deadline_seconds)
             : util::Deadline{};
}

/// A file after the read step: its bytes or why it has none.
struct FileRead {
  util::Deadline deadline;  ///< started before the first read
  Expected<std::vector<std::byte>> bytes;
  std::size_t retry_attempts = 0;  ///< extra read attempts spent
};

/// The read step of every load: reads `path` through the options' reader,
/// retrying a kIoError with capped backoff while retries and the file's
/// deadline last.
FileRead read_with_retry(const std::string& path,
                         const IngestOptions& options) {
  MOSAIC_SPAN("load");
  FileReader& reader =
      options.reader != nullptr ? *options.reader : system_reader();
  IngestMetrics& metrics = IngestMetrics::get();
  FileRead read{file_deadline(options), std::vector<std::byte>{}, 0};
  util::ExponentialBackoff backoff(options.backoff_initial_ms,
                                   kBackoffMultiplier, kBackoffMaxMs);
  for (int attempt = 0;; ++attempt) {
    read.bytes = reader.read(path, attempt);
    if (read.bytes.has_value()) return read;
    const Error& error = read.bytes.error();
    // Only kIoError is worth retrying: content does not heal, and a missing
    // file stays missing within one batch.
    if (error.code != ErrorCode::kIoError || attempt >= options.max_retries) {
      return read;
    }
    if (read.deadline.expired()) {
      read.bytes = Error{ErrorCode::kTimeout,
                         "deadline exceeded after " +
                             std::to_string(attempt + 1) + " attempt(s) on " +
                             path + " (last: " + error.message + ")"};
      return read;
    }
    double delay_ms = backoff.next_delay_ms();
    if (read.deadline.finite()) {
      delay_ms = std::min(delay_ms, read.deadline.remaining_seconds() * 1000.0);
    }
    metrics.backoff_ms.observe(delay_ms);
    metrics.retry_attempts.add();
    util::sleep_for_ms(delay_ms);
    ++read.retry_attempts;
  }
}

/// An .mbt checksum input hashed for a group of files, and this file's
/// share of the time the group's hash took.
struct GroupChecksum {
  std::uint64_t body_hash = 0;
  double share_ms = 0.0;
};

/// The parse step: decodes a successful read's bytes under the file's
/// deadline and observes parse_ms once, a group checksum's share included.
Expected<trace::Trace> parse_read(const std::string& path,
                                  const FileRead& read,
                                  const GroupChecksum* checksum = nullptr) {
  MOSAIC_SPAN("parse");
  const obs::ScopedTimerMs parse_timer(
      IngestMetrics::get().parse_ms,
      checksum != nullptr ? checksum->share_ms : 0.0);
  return parse_trace_bytes(
      path, *read.bytes, read.deadline,
      checksum != nullptr ? std::optional(checksum->body_hash) : std::nullopt);
}

/// The parse-and-assess step: what a read contributes to the funnel.
LoadedFile parse_and_assess(const std::string& path, FileRead read,
                            const GroupChecksum* checksum = nullptr) {
  LoadedFile file;
  file.retry_attempts = read.retry_attempts;
  auto parsed = read.bytes.has_value()
                    ? parse_read(path, read, checksum)
                    : Expected<trace::Trace>(std::move(read.bytes).error());
  if (!parsed.has_value()) {
    file.outcome.path = path;
    file.outcome.error = std::move(parsed).error();
    return file;
  }
  file.outcome = core::assess(*parsed, path);
  if (file.outcome.valid()) file.trace = std::move(*parsed);
  return file;
}

/// A loaded file as the fold sees it: the outcome without the trace.
struct LoadedOutcome {
  core::FileOutcome outcome;
  std::size_t retry_attempts = 0;
};

/// How many outcomes the workers may publish ahead of the fold. A constant,
/// not an option: a slot holds a digest or an eviction, never a trace.
constexpr std::size_t kRingSize = 1024;

/// How many consecutive paths a worker claims at once. A constant: a run
/// costs the ring one claim, one publish and at most one wake of the fold.
/// It divides kRingSize, so no run wraps around the ring.
constexpr std::size_t kRunSize = 16;
static_assert(kRingSize % kRunSize == 0);

/// Loads `paths` on every pool worker and hands the outcomes to the calling
/// thread strictly in path order. One loop per worker claims the next run
/// of up to kRunSize paths once that many ring slots are free, loads each
/// file into its slot and publishes the run under one lock. Inside a run a
/// darshan-text file is parsed right after its read; an .mbt file whose
/// header checks out waits until darshan::kFnvLanes of them (or the run's
/// end) can be checksummed by one darshan::fnv1a_lanes call. The fold takes
/// every consecutive published outcome at once and folds them outside the
/// lock.
class OrderedLoads {
 public:
  OrderedLoads(const std::vector<const std::string*>& paths,
               const IngestOptions& options, parallel::ThreadPool& pool)
      : paths_(paths),
        options_(options),
        pool_(pool),
        ring_(std::min(paths.size(), kRingSize)),
        ready_(ring_.size(), false) {
    const std::size_t runs = (paths.size() + kRunSize - 1) / kRunSize;
    const std::size_t loops = std::min(pool.thread_count(), runs);
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

  /// The next outcomes in path order, at least one; empty once a worker has
  /// thrown. The caller folds (and may move from) them until its next call,
  /// which hands their slots back to the workers. A batch stops at the
  /// ring's end, so it holds at most kRingSize outcomes.
  [[nodiscard]] std::span<LoadedOutcome> next_batch() {
    std::unique_lock lock(mutex_);
    std::size_t first = taken_ % ring_.size();
    if (held_ > 0) {
      std::fill_n(ready_.begin() + static_cast<std::ptrdiff_t>(first), held_,
                  false);
      taken_ += held_;
      held_ = 0;
      first = taken_ % ring_.size();
      freed_.notify_all();
    }
    published_.wait(lock, [&] { return stopped_ || ready_[first]; });
    if (stopped_) return {};
    std::size_t count = 1;
    while (first + count < ring_.size() && ready_[first + count]) ++count;
    held_ = count;
    return {ring_.data() + first, count};
  }

  /// Stops the workers, waits until every one has returned and rethrows
  /// the first exception a worker threw.
  void join() {
    stop();
    joined_ = true;
    pool_.wait_idle();
  }

 private:
  /// An .mbt file whose header checked out, waiting for its group's
  /// checksum.
  struct HeldMbt {
    std::size_t index;
    FileRead read;
  };

  void load_loop() {
    try {
      std::vector<HeldMbt> group;
      group.reserve(darshan::kFnvLanes);
      while (const auto run = claim_run()) {
        load_run(run->first, run->second, group);
        publish_run(run->first, run->second);
      }
    } catch (...) {
      stop();  // the fold must not wait for an outcome that never comes
      throw;   // kept by the pool for join()
    }
  }

  /// The next run [first, second) of path indices once its ring slots are
  /// free; nullopt when every path is claimed or the loads stopped.
  std::optional<std::pair<std::size_t, std::size_t>> claim_run() {
    std::unique_lock lock(mutex_);
    const auto run_end = [&] {
      return claimed_ + std::min(kRunSize, paths_.size() - claimed_);
    };
    freed_.wait(lock, [&] {
      return stopped_ || claimed_ == paths_.size() ||
             run_end() <= taken_ + ring_.size();
    });
    if (stopped_ || claimed_ == paths_.size()) return std::nullopt;
    const std::size_t begin = claimed_;
    claimed_ = run_end();
    return std::pair{begin, claimed_};
  }

  /// Loads paths [begin, end) into their slots, outside the lock: the run
  /// owns them until it is published.
  void load_run(std::size_t begin, std::size_t end,
                std::vector<HeldMbt>& group) {
    for (std::size_t index = begin; index < end; ++index) {
      const std::string& path = *paths_[index];
      if (!is_mbt_path(path)) {
        put(index, load_file(path, options_));
        continue;
      }
      FileRead read = read_with_retry(path, options_);
      if (!read.bytes.has_value() ||
          !darshan::mbt_checksummed_body(*read.bytes)) {
        put(index, parse_and_assess(path, std::move(read)));
        continue;
      }
      group.push_back({index, std::move(read)});
      if (group.size() == darshan::kFnvLanes) checksum_group(group);
    }
    checksum_group(group);
  }

  /// Hashes the held files' checksum inputs in one fnv1a_lanes call, then
  /// parses and assesses each with its hash. Each file's parse_ms
  /// observation carries an equal share of the hash time.
  void checksum_group(std::vector<HeldMbt>& group) {
    if (group.empty()) return;
    std::array<std::span<const std::byte>, darshan::kFnvLanes> bodies;
    for (std::size_t i = 0; i < group.size(); ++i) {
      bodies[i] = *darshan::mbt_checksummed_body(*group[i].read.bytes);
    }
    const util::Stopwatch hash_time;
    const auto hashes =
        darshan::fnv1a_lanes(std::span(bodies).first(group.size()));
    const double share_ms =
        hash_time.elapsed_ms() / static_cast<double>(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      const GroupChecksum checksum{hashes[i], share_ms};
      put(group[i].index, parse_and_assess(*paths_[group[i].index],
                                           std::move(group[i].read),
                                           &checksum));
    }
    group.clear();
  }

  void put(std::size_t index, LoadedFile file) {
    ring_[index % ring_.size()] = {std::move(file.outcome),
                                   file.retry_attempts};
  }

  void publish_run(std::size_t begin, std::size_t end) {
    {
      const std::scoped_lock lock(mutex_);
      for (std::size_t index = begin; index < end; ++index) {
        ready_[index % ring_.size()] = true;
      }
      // The fold waits only for its next index, and that is a run's first.
      if (begin != taken_ + held_) return;
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
  std::condition_variable published_;  ///< the fold waits for its next run
  std::condition_variable freed_;      ///< workers wait for free slots
  /// Outcomes by path index modulo the ring size. A claimed run's slots
  /// are written by its worker and a published batch's are read by the
  /// fold, each without the lock; ready_ and the counters need it.
  std::vector<LoadedOutcome> ring_;
  std::vector<bool> ready_;  ///< published and not yet handed back
  std::size_t claimed_ = 0;  ///< paths handed to workers
  std::size_t taken_ = 0;    ///< outcomes handed back by the fold
  std::size_t held_ = 0;     ///< outcomes of the batch the fold is folding
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
    if (const auto status = ctx.journal->append(
            journal_line(outcome), util::LineAppender::Flush::kDeferred);
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

/// Writes out the journal lines fold() deferred: once per drained batch, so
/// a killed run loses at most one batch, which --resume redoes.
void flush_journal(FoldContext& ctx) {
  if (const auto status = ctx.journal->flush(); !status.ok()) {
    MOSAIC_LOG_WARN("ingest: %s", status.error().to_string().c_str());
  }
}

}  // namespace

Expected<IngestFold> fold_paths(const std::vector<std::string>& paths,
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

  IngestFold result;
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

  core::StreamingPreprocessor& preprocessor = result.preprocessor;
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
    for (std::size_t processed = 0;
         processed < pending.size() && !result.stats.aborted;) {
      const std::span<LoadedOutcome> batch = loads.next_batch();
      if (batch.empty()) break;  // a worker threw; join() rethrows it
      for (LoadedOutcome& file : batch) {
        fold(ctx, std::move(file));
        if (++processed == options.abort_after_files) {
          result.stats.aborted = true;
          break;
        }
      }
      flush_journal(ctx);
    }
    loads.join();
  }

  return result;
}

IngestResult finish_fold(IngestFold fold, const IngestOptions& options,
                         parallel::ThreadPool& pool) {
  // The fold kept digests only: each application's winner is re-read, on
  // the pool and with the same retry policy, and checked against its digest.
  IngestResult result;
  result.stats = fold.stats;
  std::atomic<std::size_t> reload_retries{0};
  std::atomic<std::size_t> missing{0};
  result.pre = fold.preprocessor.finish(
      [&](const std::string& path) {
        std::size_t retries = 0;
        auto trace = load_trace(path, options, &retries);
        reload_retries += retries;
        if (!trace.has_value() &&
            trace.error().code == util::ErrorCode::kNotFound) {
          ++missing;
        }
        return trace;
      },
      &pool);
  result.stats.retry_attempts += reload_retries;
  result.winners_missing = missing;
  return result;
}

Expected<IngestResult> ingest_paths(const std::vector<std::string>& paths,
                                    const IngestOptions& options,
                                    parallel::ThreadPool& pool) {
  auto fold = fold_paths(paths, options, pool);
  if (!fold.has_value()) return std::move(fold).error();
  return finish_fold(std::move(*fold), options, pool);
}

Expected<trace::Trace> load_trace(const std::string& path,
                                  const IngestOptions& options,
                                  std::size_t* retry_attempts) {
  const FileRead read = read_with_retry(path, options);
  if (retry_attempts != nullptr) *retry_attempts = read.retry_attempts;
  if (!read.bytes.has_value()) return read.bytes.error();
  return parse_read(path, read);
}

LoadedFile load_file(const std::string& path, const IngestOptions& options) {
  return parse_and_assess(path, read_with_retry(path, options));
}

}  // namespace mosaic::ingest

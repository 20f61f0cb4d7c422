#include "ingest/ingest.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <span>
#include <utility>

#include "darshan/binary_format.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "util/backoff.hpp"
#include "util/deadline.hpp"
#include "util/fs.hpp"
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
                         "files whose outcome was folded"),
        registry.counter(obs::names::kIngestLoaded,
                         "files read and parsed successfully"),
        registry.counter(obs::names::kIngestRetryAttempts,
                         "read retries across all files"),
        registry.counter(obs::names::kIngestRecovered,
                         "files loaded successfully after at least one retry"),
        registry.counter(obs::names::kIngestQuarantined,
                         "files moved to the quarantine directory"),
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

void quarantine_file(IngestStats& stats, const std::string& path,
                     const IngestOptions& options) {
  if (options.quarantine_dir.empty()) return;
  auto moved = util::move_file_into_dir(path, options.quarantine_dir);
  if (moved.has_value()) {
    ++stats.quarantined;
    IngestMetrics::get().quarantined.add();
    MOSAIC_LOG_INFO("ingest: quarantined %s -> %s", path.c_str(),
                    moved->c_str());
  } else {
    MOSAIC_LOG_WARN("ingest: could not quarantine %s: %s", path.c_str(),
                    moved.error().to_string().c_str());
  }
}

/// Folds one loaded file into a worker's ingest counters, the quarantine
/// and its funnel. The trace, if any, is dropped here: the fold keeps its
/// digest only.
void fold(IngestFold& into, LoadedFile file, const IngestOptions& options) {
  IngestMetrics& metrics = IngestMetrics::get();
  metrics.processed.add();
  IngestStats& stats = into.stats;
  stats.retry_attempts += file.retry_attempts;
  const core::FileOutcome& outcome = file.outcome;
  if (outcome.load_failed()) {
    ++stats.failed;
    count_load_failure(outcome.error->code);
    MOSAIC_LOG_DEBUG("ingest: evicting %s: %s", outcome.path.c_str(),
                     outcome.error->to_string().c_str());
  } else {
    ++stats.loaded;
    metrics.loaded.add();
    metrics.retries_per_file.observe(static_cast<double>(file.retry_attempts));
    if (file.retry_attempts > 0) {
      ++stats.recovered;
      metrics.recovered.add();
    }
  }
  if (!outcome.valid() && should_quarantine(outcome.error->code)) {
    quarantine_file(stats, outcome.path, options);
  }
  into.preprocessor.add(std::move(file.outcome));
}

/// How many consecutive paths a worker claims at once. A constant: a run
/// costs one atomic claim, and no .mbt checksum group spans two runs.
constexpr std::size_t kRunSize = 16;

/// An .mbt file whose header checked out, waiting for its group's
/// checksum.
struct HeldMbt {
  const std::string* path;
  FileRead read;
};

/// Hashes the held files' checksum inputs in one fnv1a_lanes call, then
/// parses, assesses and folds each with its hash. Each file's parse_ms
/// observation carries an equal share of the hash time.
void fold_group(IngestFold& into, std::vector<HeldMbt>& group,
                const IngestOptions& options) {
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
    fold(into,
         parse_and_assess(*group[i].path, std::move(group[i].read), &checksum),
         options);
  }
  group.clear();
}

/// One pool worker's loop: claims the next run of up to kRunSize paths
/// from `next` until every path is claimed, and folds each file into
/// `into`. Inside a run a darshan-text file is parsed right after its read;
/// an .mbt file whose header checks out waits until darshan::kFnvLanes of
/// them (or the run's end) can be checksummed by one darshan::fnv1a_lanes
/// call. A loop that throws claims every remaining path first, so the
/// other loops stop at their next claim.
void fold_loop(const std::vector<std::string>& paths,
               const IngestOptions& options, std::atomic<std::size_t>& next,
               IngestFold& into) {
  try {
    std::vector<HeldMbt> group;
    group.reserve(darshan::kFnvLanes);
    for (;;) {
      const std::size_t begin = next.fetch_add(kRunSize);
      if (begin >= paths.size()) return;
      const std::size_t end = std::min(begin + kRunSize, paths.size());
      for (std::size_t index = begin; index < end; ++index) {
        const std::string& path = paths[index];
        if (!is_mbt_path(path)) {
          fold(into, load_file(path, options), options);
          continue;
        }
        FileRead read = read_with_retry(path, options);
        if (!read.bytes.has_value() ||
            !darshan::mbt_checksummed_body(*read.bytes)) {
          fold(into, parse_and_assess(path, std::move(read)), options);
          continue;
        }
        group.push_back({&path, std::move(read)});
        if (group.size() == darshan::kFnvLanes) {
          fold_group(into, group, options);
        }
      }
      fold_group(into, group, options);
    }
  } catch (...) {
    next.store(paths.size());
    throw;  // kept by the pool for wait_idle()
  }
}

}  // namespace

IngestStats& IngestStats::operator+=(const IngestStats& more) noexcept {
  files_scanned += more.files_scanned;
  loaded += more.loaded;
  failed += more.failed;
  retry_attempts += more.retry_attempts;
  recovered += more.recovered;
  quarantined += more.quarantined;
  return *this;
}

IngestFold fold_paths(const std::vector<std::string>& paths,
                      const IngestOptions& options,
                      parallel::ThreadPool& pool) {
  IngestFold result;
  result.stats.files_scanned = paths.size();
  IngestMetrics::get().scanned.add(paths.size());
  if (paths.empty()) return result;

  MOSAIC_SPAN("ingest");
  const std::size_t runs = (paths.size() + kRunSize - 1) / kRunSize;
  std::vector<IngestFold> folds(std::min(pool.thread_count(), runs));
  std::atomic<std::size_t> next{0};
  for (IngestFold& into : folds) {
    pool.submit([&] { fold_loop(paths, options, next, into); });
  }
  pool.wait_idle();
  for (IngestFold& worker : folds) {
    result.preprocessor.absorb(std::move(worker.preprocessor).state());
    result.stats += worker.stats;
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
  return finish_fold(fold_paths(paths, options, pool), options, pool);
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

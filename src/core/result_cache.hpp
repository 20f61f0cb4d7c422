// Digest-keyed LRU cache of per-trace analysis results (DESIGN.md §17).
//
// The daemon's serving story: a trace re-submitted by a rerun (same file
// landing again, a client retrying) must not pay ingest + categorization a
// second time. The cache key is the same identity the dedup stage already
// computes (core::FileOutcome's digest — app key, job id, total bytes):
// two traces the batch pipeline would dedup are one cache entry here.
// A value is the artifact the daemon serves verbatim: the pretty
// provenance JSON for /explain/<trace-id>, kept byte-identical to
// `mosaic explain --json`. (/results serializes the daemon's board, which
// keeps each trace's TraceResult and source path.)
//
// Bounded by value bytes, not entry count, so the operator reasons in
// memory: inserts evict least-recently-used entries until the new total
// fits. Thread-safe (one mutex; the daemon's scan loop, submission
// sessions and HTTP handlers all touch it). lookup() and insert() feed the
// mosaic_cache_{hits,misses,evictions}_total counters and the
// mosaic_cache_{bytes,entries} gauges; peek() is a metrics-silent read for
// HTTP serving, so scrapes don't masquerade as submission traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <mutex>

namespace mosaic::core {

/// The serialized artifact cached per trace.
struct CachedAnalysis {
  std::string trace_id;      ///< decimal job id — the /explain/<id> handle
  std::string app_key;
  std::string explain_json;  ///< pretty provenance JSON + trailing newline,
                             ///< byte-identical to `mosaic explain --json`

  /// Accounted size: the payload strings (the parts that scale with trace
  /// complexity), ignoring map/list overhead.
  [[nodiscard]] std::size_t bytes() const {
    return trace_id.size() + app_key.size() + explain_json.size();
  }
};

/// The cache key for a trace with the dedup-digest identity fields.
[[nodiscard]] std::string result_cache_key(const std::string& app_key,
                                           std::uint64_t job_id,
                                           std::uint64_t total_bytes);

/// Byte-bounded LRU over CachedAnalysis values. All methods thread-safe.
class ResultCache {
 public:
  /// `capacity_bytes` bounds the sum of CachedAnalysis::bytes() across
  /// entries. 0 keeps nothing: every lookup misses and every insert is
  /// evicted on the spot.
  explicit ResultCache(std::size_t capacity_bytes);

  /// Returns a copy of the entry and marks it most-recently-used. Counts a
  /// hit or a miss.
  [[nodiscard]] std::optional<CachedAnalysis> lookup(const std::string& key);

  /// Metrics-silent, recency-neutral read (HTTP serving path).
  [[nodiscard]] std::optional<CachedAnalysis> peek(
      const std::string& key) const;

  /// Inserts or replaces `key`, then evicts least-recently-used entries
  /// until the total fits the byte capacity. An entry larger than the whole
  /// capacity is dropped immediately (counted as an eviction).
  void insert(const std::string& key, CachedAnalysis value);

  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return capacity_bytes_;
  }

  // Per-instance counters (the process-global mosaic_cache_* series
  // aggregate across instances; tests read these for exactness).
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  void evict_to_fit_locked();
  void note_eviction_locked(std::size_t entry_bytes);

  const std::size_t capacity_bytes_;

  mutable std::mutex mutex_;
  /// Front = most recently used.
  std::list<std::pair<std::string, CachedAnalysis>> order_;
  std::unordered_map<std::string, decltype(order_)::iterator> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace mosaic::core

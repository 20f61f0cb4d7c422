// Digest-keyed LRU cache of per-trace analysis results (DESIGN.md §17).
//
// The daemon's serving story: a trace re-submitted by a rerun (same file
// landing again, a client retrying) must not pay ingest + categorization a
// second time. The cache key is the same identity the dedup stage already
// computes (core::FileOutcome's digest — app key, job id, total bytes):
// two traces the batch pipeline would dedup are one cache entry here.
// A value is the evidence behind the verdict: the miss's
// obs::TraceProvenance, shared and immutable, which /explain/<trace-id>
// serializes on demand into the bytes of `mosaic explain --json`. A miss
// moves it in without serializing it, and a hit or an HTTP read copies a
// pointer. (/results serializes the daemon's board, which keeps each
// trace's TraceResult and source path.)
//
// Bounded by value bytes, not entry count, so the operator reasons in
// memory: each value counts the estimated heap footprint of its evidence
// (obs::provenance_heap_bytes), and inserts evict least-recently-used
// entries until the new total fits. Thread-safe (one mutex; the daemon's
// scan loop, submission sessions and HTTP handlers all touch it). lookup()
// and insert() feed the mosaic_cache_{hits,misses,evictions}_total
// counters and the mosaic_cache_{bytes,entries} gauges; peek() is a
// metrics-silent read for HTTP serving, so scrapes don't masquerade as
// submission traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <mutex>

#include "obs/provenance.hpp"

namespace mosaic::core {

/// The evidence cached per trace. The cache key carries the job id and the
/// app key, so the value holds neither.
struct CachedAnalysis {
  std::shared_ptr<const obs::TraceProvenance> evidence;
  /// Accounted size: obs::provenance_heap_bytes(*evidence), ignoring the
  /// cache's own map/list overhead.
  std::size_t bytes = 0;

  /// Takes `evidence` over without copying it and accounts its footprint.
  [[nodiscard]] static CachedAnalysis of(obs::TraceProvenance evidence);
};

/// The cache key for a trace with the dedup-digest identity fields.
[[nodiscard]] std::string result_cache_key(const std::string& app_key,
                                           std::uint64_t job_id,
                                           std::uint64_t total_bytes);

/// Byte-bounded LRU over CachedAnalysis values. All methods thread-safe.
class ResultCache {
 public:
  /// `capacity_bytes` bounds the sum of CachedAnalysis::bytes across
  /// entries. 0 keeps nothing: every lookup misses and every insert is
  /// evicted on the spot.
  explicit ResultCache(std::size_t capacity_bytes);

  /// Returns the entry (a pointer copy) and marks it most-recently-used.
  /// Counts a hit or a miss.
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

#include "core/result_cache.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace mosaic::core {

namespace {

struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Gauge& bytes;
  obs::Gauge& entries;

  static CacheMetrics& get() {
    static auto& registry = obs::Registry::global();
    static CacheMetrics metrics{
        registry.counter(obs::names::kCacheHits,
                         "result-cache lookups answered without re-analysis"),
        registry.counter(obs::names::kCacheMisses,
                         "result-cache lookups that required analysis"),
        registry.counter(obs::names::kCacheEvictions,
                         "result-cache entries evicted to fit the byte "
                         "capacity"),
        registry.gauge(obs::names::kCacheBytes,
                       "estimated heap bytes of the cached analysis evidence"),
        registry.gauge(obs::names::kCacheEntries,
                       "entries in the analysis result cache"),
    };
    return metrics;
  }
};

}  // namespace

CachedAnalysis CachedAnalysis::of(obs::TraceProvenance evidence) {
  CachedAnalysis value;
  value.evidence =
      std::make_shared<const obs::TraceProvenance>(std::move(evidence));
  value.bytes = obs::provenance_heap_bytes(*value.evidence);
  return value;
}

std::string result_cache_key(const std::string& app_key,
                             std::uint64_t job_id,
                             std::uint64_t total_bytes) {
  // '|' never appears in sanitized app keys, so the concatenation is
  // unambiguous.
  return app_key + "|" + std::to_string(job_id) + "|" +
         std::to_string(total_bytes);
}

ResultCache::ResultCache(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

std::optional<CachedAnalysis> ResultCache::lookup(const std::string& key) {
  const std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    CacheMetrics::get().misses.add();
    return std::nullopt;
  }
  ++hits_;
  CacheMetrics::get().hits.add();
  order_.splice(order_.begin(), order_, it->second);
  return it->second->second;
}

std::optional<CachedAnalysis> ResultCache::peek(const std::string& key) const {
  const std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second->second;
}

void ResultCache::note_eviction_locked(std::size_t entry_bytes) {
  bytes_ -= entry_bytes;
  ++evictions_;
  CacheMetrics::get().evictions.add();
}

void ResultCache::evict_to_fit_locked() {
  while (bytes_ > capacity_bytes_ && !order_.empty()) {
    const auto& [key, value] = order_.back();
    note_eviction_locked(value.bytes);
    index_.erase(key);
    order_.pop_back();
  }
  CacheMetrics::get().bytes.set(static_cast<std::int64_t>(bytes_));
  CacheMetrics::get().entries.set(static_cast<std::int64_t>(order_.size()));
}

void ResultCache::insert(const std::string& key, CachedAnalysis value) {
  const std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Replace in place, keeping the entry most-recently-used. Not an
    // eviction: the identity stays cached.
    bytes_ -= it->second->second.bytes;
    it->second->second = std::move(value);
    bytes_ += it->second->second.bytes;
    order_.splice(order_.begin(), order_, it->second);
  } else {
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    bytes_ += order_.front().second.bytes;
  }
  evict_to_fit_locked();
}

std::size_t ResultCache::entries() const {
  const std::scoped_lock lock(mutex_);
  return order_.size();
}

std::size_t ResultCache::bytes() const {
  const std::scoped_lock lock(mutex_);
  return bytes_;
}

std::uint64_t ResultCache::hits() const {
  const std::scoped_lock lock(mutex_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  const std::scoped_lock lock(mutex_);
  return misses_;
}

std::uint64_t ResultCache::evictions() const {
  const std::scoped_lock lock(mutex_);
  return evictions_;
}

}  // namespace mosaic::core

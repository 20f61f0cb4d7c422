// core::ResultCache — the daemon's digest-keyed LRU (DESIGN.md §17):
// eviction order, the byte-capacity bound, exact hit/miss/eviction
// accounting, and concurrent lookup/insert (the suite runs under
// tsan/asan presets in CI).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/result_cache.hpp"
#include "obs/provenance.hpp"

namespace {

using mosaic::core::CachedAnalysis;
using mosaic::core::ResultCache;
using mosaic::core::result_cache_key;
using mosaic::obs::TraceProvenance;

/// An entry for app key `id` whose accounted size is exactly `total_bytes`.
CachedAnalysis sized(const std::string& id, std::size_t total_bytes) {
  TraceProvenance evidence;
  evidence.app_key = id;
  return {std::make_shared<const TraceProvenance>(std::move(evidence)),
          total_bytes};
}

TEST(ResultCacheKey, EncodesTheDedupIdentityFields) {
  const std::string key = result_cache_key("u1/app", 42, 1000);
  EXPECT_EQ(key, result_cache_key("u1/app", 42, 1000));
  // Every identity field participates: change one, get another entry.
  EXPECT_NE(key, result_cache_key("u1/other", 42, 1000));
  EXPECT_NE(key, result_cache_key("u1/app", 43, 1000));
  EXPECT_NE(key, result_cache_key("u1/app", 42, 1001));
}

TEST(ResultCache, LookupReturnsInsertedArtifactsVerbatim) {
  ResultCache cache(4096);
  TraceProvenance evidence;
  evidence.app_key = "u0/app";
  evidence.job_id = 7;
  evidence.rules = {"a rule long enough to leave the small-string buffer"};
  const std::string* rules = evidence.rules.data();
  const CachedAnalysis value = CachedAnalysis::of(std::move(evidence));
  // Taken over, not copied, and accounted at its estimated footprint.
  EXPECT_EQ(value.evidence->rules.data(), rules);
  EXPECT_EQ(value.bytes, mosaic::obs::provenance_heap_bytes(*value.evidence));
  EXPECT_GT(value.bytes, sizeof(TraceProvenance));
  cache.insert("k", value);

  // A lookup hands back the same evidence, not a copy of it.
  const auto found = cache.lookup("k");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->evidence, value.evidence);
  EXPECT_EQ(found->evidence->app_key, "u0/app");
  EXPECT_EQ(found->evidence->job_id, 7u);
  EXPECT_EQ(cache.bytes(), value.bytes);
  EXPECT_FALSE(cache.lookup("unknown").has_value());
}

TEST(ResultCache, EvictsLeastRecentlyUsedFirst) {
  ResultCache cache(300);
  cache.insert("a", sized("a", 100));
  cache.insert("b", sized("b", 100));
  cache.insert("c", sized("c", 100));
  // Touch `a`: it becomes most-recently-used, so `b` is now the LRU.
  ASSERT_TRUE(cache.lookup("a").has_value());

  cache.insert("d", sized("d", 100));
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_TRUE(cache.lookup("d").has_value());
  EXPECT_EQ(cache.entries(), 3u);
}

TEST(ResultCache, ByteCapacityIsAHardBound) {
  ResultCache cache(250);
  cache.insert("a", sized("a", 100));
  cache.insert("b", sized("b", 100));
  EXPECT_EQ(cache.bytes(), 200u);
  // A third entry does not fit next to the first two: the LRU (`a`) goes.
  cache.insert("c", sized("c", 100));
  EXPECT_LE(cache.bytes(), cache.capacity_bytes());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_FALSE(cache.peek("a").has_value());

  // An entry larger than the whole capacity is dropped on the spot.
  cache.insert("huge", sized("huge", 1000));
  EXPECT_FALSE(cache.peek("huge").has_value());
  EXPECT_LE(cache.bytes(), cache.capacity_bytes());
}

TEST(ResultCache, ReplacingAKeyKeepsOneEntryAndReaccountsBytes) {
  ResultCache cache(1000);
  cache.insert("k", sized("k", 100));
  cache.insert("k", sized("k", 300));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 300u);
}

TEST(ResultCache, ZeroCapacityKeepsNothing) {
  ResultCache cache(0);
  cache.insert("k", sized("k", 10));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.lookup("k").has_value());
}

TEST(ResultCache, CountsHitsMissesAndEvictionsExactly) {
  ResultCache cache(300);
  EXPECT_FALSE(cache.lookup("a").has_value());  // miss 1
  cache.insert("a", sized("a", 100));
  ASSERT_TRUE(cache.lookup("a").has_value());   // hit 1
  ASSERT_TRUE(cache.lookup("a").has_value());   // hit 2
  EXPECT_FALSE(cache.lookup("b").has_value());  // miss 2
  cache.insert("b", sized("b", 100));
  cache.insert("c", sized("c", 100));
  cache.insert("d", sized("d", 100));           // evicts `a`

  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ResultCache, PeekIsMetricsSilentAndRecencyNeutral) {
  ResultCache cache(200);
  cache.insert("a", sized("a", 100));
  cache.insert("b", sized("b", 100));
  // HTTP-serving reads must not count as submission traffic...
  ASSERT_TRUE(cache.peek("a").has_value());
  EXPECT_FALSE(cache.peek("nope").has_value());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  // ...and must not promote the entry: `a` is still the LRU.
  cache.insert("c", sized("c", 100));
  EXPECT_FALSE(cache.peek("a").has_value());
  EXPECT_TRUE(cache.peek("b").has_value());
}

TEST(ResultCache, ConcurrentLookupAndInsertKeepInvariants) {
  ResultCache cache(4096);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 501;  // divisible by 3: exact op accounting
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 16);
        if (i % 3 == 0) {
          cache.insert(key, sized(key, 256));
        } else if (i % 3 == 1) {
          if (const auto found = cache.lookup(key); found.has_value()) {
            EXPECT_EQ(found->evidence->app_key, key);
          }
        } else {
          (void)cache.peek(key);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_LE(cache.bytes(), cache.capacity_bytes());
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads * kOpsPerThread / 3));
  // Every resident entry is intact and exactly as inserted.
  for (int k = 0; k < 16; ++k) {
    const std::string key = "k" + std::to_string(k);
    if (const auto found = cache.peek(key); found.has_value()) {
      EXPECT_EQ(found->bytes, 256u);
    }
  }
}

}  // namespace

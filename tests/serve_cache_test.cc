// ResultCache unit behavior: LRU recency and eviction order, byte-budget
// enforcement, epoch invalidation, exception safety, doorkeeper admission
// (on a FakeClock — zero sleeps), and the stampede guarantee (N concurrent
// misses for one key => exactly 1 compute) — the stress tests
// double as the TSan canary for the serving layer (run via scripts/ci.sh's
// thread-sanitizer lane, label serve;slow).
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/clock.h"
#include "serve/result_cache.h"

namespace osum::serve {
namespace {

/// A dummy payload of a chosen budget weight. Results stay empty — the
/// cache treats such values as *negative* answers, which only the
/// negative-hit counter distinguishes, so the LRU/budget tests can ignore
/// it.
CachedResult Payload(size_t approx_bytes) {
  CachedResult r;
  r.approx_bytes = approx_bytes;
  return r;
}

/// A positive payload: one (default) result, so negative() is false.
CachedResult PositivePayload(size_t approx_bytes) {
  CachedResult r;
  r.results.emplace_back();
  r.approx_bytes = approx_bytes;
  return r;
}

/// Single-shard options so LRU order is global and deterministic.
ResultCacheOptions OneShard(size_t max_entries, size_t max_bytes) {
  ResultCacheOptions o;
  o.num_shards = 1;
  o.max_entries = max_entries;
  o.max_bytes = max_bytes;
  return o;
}

TEST(ResultCacheLru, RecencyOrderGovernsEviction) {
  ResultCache cache(OneShard(/*max_entries=*/3, /*max_bytes=*/1 << 30));
  auto put = [&](const std::string& key) {
    cache.GetOrCompute(key, [] { return Payload(1); });
  };
  put("a");
  put("b");
  put("c");
  // Refresh "a": it must now outlive "b" when "d" overflows the cap.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  put("d");

  EXPECT_EQ(cache.Lookup("b"), nullptr);  // LRU victim
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_NE(cache.Lookup("d"), nullptr);
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 3u);
  EXPECT_EQ(m.evictions, 1u);
  EXPECT_EQ(m.misses, 4u);
}

TEST(ResultCacheLru, HitRefreshesRecencyViaGetOrCompute) {
  ResultCache cache(OneShard(3, 1 << 30));
  for (const char* k : {"a", "b", "c"}) {
    cache.GetOrCompute(k, [] { return Payload(1); });
  }
  // GetOrCompute hit path must refresh recency just like Lookup.
  cache.GetOrCompute("a", [] {
    ADD_FAILURE() << "hit must not recompute";
    return Payload(1);
  });
  cache.GetOrCompute("d", [] { return Payload(1); });
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
}

TEST(ResultCacheBudget, BytesEvictOldestUntilUnderCap) {
  // Entry weight = approx_bytes + internal key size; internal keys are the
  // 2-byte caller keys plus the 2-byte epoch prefix "0\x1d" here.
  ResultCache cache(OneShard(/*max_entries=*/64, /*max_bytes=*/1000));
  cache.GetOrCompute("k1", [] { return Payload(396); });  // 400
  cache.GetOrCompute("k2", [] { return Payload(396); });  // 800
  EXPECT_EQ(cache.metrics().approx_bytes, 800u);
  EXPECT_EQ(cache.metrics().evictions, 0u);

  cache.GetOrCompute("k3", [] { return Payload(396); });  // 1200 -> evict k1
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.approx_bytes, 800u);
  EXPECT_EQ(m.entries, 2u);
  EXPECT_EQ(m.evictions, 1u);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_NE(cache.Lookup("k2"), nullptr);
  EXPECT_NE(cache.Lookup("k3"), nullptr);
}

TEST(ResultCacheBudget, OversizedEntrySurvivesItsOwnInsertOnly) {
  ResultCache cache(OneShard(64, 1000));
  cache.GetOrCompute("k1", [] { return Payload(398); });
  cache.GetOrCompute("xl", [] { return Payload(5000); });
  // The oversized entry evicted everything else but is itself kept (the
  // just-inserted entry is never its own victim).
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 1u);
  EXPECT_NE(cache.Lookup("xl"), nullptr);
  // The next insert evicts it.
  cache.GetOrCompute("k2", [] { return Payload(398); });
  EXPECT_EQ(cache.Lookup("xl"), nullptr);
  EXPECT_NE(cache.Lookup("k2"), nullptr);
}

TEST(ResultCacheEpoch, BumpInvalidatesCommittedEntries) {
  ResultCache cache(OneShard(64, 1 << 30));
  ResultPtr v1 = cache.GetOrCompute("q", [] { return Payload(7); });
  EXPECT_NE(cache.Lookup("q"), nullptr);

  EXPECT_EQ(cache.BumpEpoch(), 1u);
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_EQ(cache.Lookup("q"), nullptr);
  EXPECT_EQ(cache.metrics().entries, 0u);

  // Recompute under the new epoch produces a distinct cached object.
  ResultPtr v2 = cache.GetOrCompute("q", [] { return Payload(7); });
  EXPECT_NE(v1.get(), v2.get());
  EXPECT_EQ(cache.metrics().misses, 2u);
}

TEST(ResultCacheEpoch, InFlightComputeAcrossBumpIsDiscardedNotServed) {
  ResultCache cache(OneShard(64, 1 << 30));
  // The epoch moves while the compute is in flight: the caller still gets
  // its freshly computed value, but nothing is published.
  ResultPtr v = cache.GetOrCompute("q", [&] {
    cache.BumpEpoch();
    return Payload(7);
  });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->approx_bytes, 7u);
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 0u);
  EXPECT_EQ(m.discarded_inserts, 1u);
  EXPECT_EQ(cache.Lookup("q"), nullptr);
}

TEST(ResultCacheErrors, ComputeExceptionPropagatesAndCachesNothing) {
  ResultCache cache(OneShard(64, 1 << 30));
  EXPECT_THROW(cache.GetOrCompute(
                   "q",
                   []() -> CachedResult {
                     throw std::runtime_error("backend down");
                   }),
               std::runtime_error);
  EXPECT_EQ(cache.metrics().entries, 0u);
  // The in-flight slot was cleaned up: the key is computable again.
  ResultPtr v = cache.GetOrCompute("q", [] { return Payload(1); });
  EXPECT_NE(v, nullptr);
}

TEST(ResultCacheSharding, KeysSpreadAndCapsHoldAcrossShards) {
  ResultCacheOptions o;
  o.num_shards = 4;
  o.max_entries = 16;  // 4 per shard
  o.max_bytes = 1 << 30;
  ResultCache cache(o);
  for (int i = 0; i < 200; ++i) {
    cache.GetOrCompute("key-" + std::to_string(i),
                       [] { return Payload(1); });
  }
  CacheMetrics m = cache.metrics();
  EXPECT_LE(m.entries, 16u);
  EXPECT_GT(m.entries, 4u);  // more than one shard got traffic
  EXPECT_EQ(m.misses, 200u);
  EXPECT_EQ(m.evictions, 200u - m.entries);
}

/// Single-shard options with a policy and an injected FakeClock.
ResultCacheOptions PolicyShard(CachePolicyOptions policy,
                               std::shared_ptr<FakeClock> clock,
                               size_t max_entries = 64) {
  ResultCacheOptions o;
  o.num_shards = 1;
  o.max_entries = max_entries;
  o.max_bytes = 1 << 30;
  o.policy = policy;
  o.clock = std::move(clock);
  return o;
}

// The epoch is the only invalidation: no amount of clock time unseats an
// entry.
TEST(ResultCacheTtl, ZeroTtlMeansEntriesNeverExpire) {
  auto clock = std::make_shared<FakeClock>();
  ResultCache cache(PolicyShard(CachePolicyOptions{}, clock));
  cache.GetOrCompute("q", [] { return PositivePayload(3); });
  clock->AdvanceMicros(1ull << 40);  // ~2 weeks of fake time
  EXPECT_NE(cache.Lookup("q"), nullptr);
  EXPECT_EQ(cache.metrics().entries, 1u);
}

TEST(ResultCacheAdmission, SecondSightingWithinWindowAdmits) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.admission_enabled = true;
  policy.admission_window_micros = 1000;
  ResultCache cache(PolicyShard(policy, clock));

  // First sighting: computed, returned, NOT cached.
  ResultPtr first = cache.GetOrCompute("q", [] { return PositivePayload(9); });
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->approx_bytes, 9u);
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.admission_rejects, 1u);
  EXPECT_EQ(m.entries, 0u);
  EXPECT_EQ(m.tracked_sightings, 1u);
  EXPECT_EQ(cache.Lookup("q"), nullptr);

  // Second sighting within the window: admitted (and the sighting is
  // consumed).
  clock->AdvanceMicros(999);
  bool computed = false;
  cache.GetOrCompute("q", [&] {
    computed = true;
    return PositivePayload(9);
  });
  EXPECT_TRUE(computed);  // admission caches the result; it can't conjure it
  m = cache.metrics();
  EXPECT_EQ(m.entries, 1u);
  EXPECT_EQ(m.tracked_sightings, 0u);
  EXPECT_NE(cache.Lookup("q"), nullptr);
}

TEST(ResultCacheAdmission, SightingOutsideWindowRefreshesAndRejectsAgain) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.admission_enabled = true;
  policy.admission_window_micros = 1000;
  ResultCache cache(PolicyShard(policy, clock));

  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  clock->AdvanceMicros(1000);  // the sighting just aged out
  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.admission_rejects, 2u);
  EXPECT_EQ(m.entries, 0u);
  EXPECT_EQ(m.tracked_sightings, 1u);  // refreshed, not duplicated
  // The refresh restarted the window: a sighting inside it now admits.
  clock->AdvanceMicros(500);
  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  EXPECT_EQ(cache.metrics().entries, 1u);
}

TEST(ResultCacheAdmission, ZeroWindowMeansSightingsNeverAgeOut) {
  // 0 = no time limit — a zero window must NOT mean "reject everything
  // forever".
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.admission_enabled = true;
  policy.admission_window_micros = 0;
  ResultCache cache(PolicyShard(policy, clock));

  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  clock->AdvanceMicros(1ull << 40);  // ~2 weeks later...
  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  EXPECT_EQ(cache.metrics().entries, 1u);  // ...the 2nd sighting admits
  EXPECT_NE(cache.Lookup("q"), nullptr);
  // And time never ages a timeless sighting out.
  cache.GetOrCompute("r", [] { return PositivePayload(1); });
  clock->AdvanceMicros(1ull << 40);
  EXPECT_EQ(cache.metrics().tracked_sightings, 1u);
}

TEST(ResultCacheAdmission, BypassKnobAdmitsEverything) {
  auto clock = std::make_shared<FakeClock>();
  ResultCache cache(PolicyShard(CachePolicyOptions{}, clock));  // disabled
  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.admission_rejects, 0u);
  EXPECT_EQ(m.entries, 1u);
  EXPECT_EQ(m.tracked_sightings, 0u);
}

TEST(ResultCacheAdmission, SightingCapEvictsOldestRecorded) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.admission_enabled = true;
  policy.admission_window_micros = 1'000'000;
  policy.admission_max_tracked = 2;
  ResultCache cache(PolicyShard(policy, clock));

  cache.GetOrCompute("a", [] { return PositivePayload(1); });
  clock->AdvanceMicros(1);
  cache.GetOrCompute("b", [] { return PositivePayload(1); });
  clock->AdvanceMicros(1);
  cache.GetOrCompute("c", [] { return PositivePayload(1); });  // evicts a's
  EXPECT_EQ(cache.metrics().tracked_sightings, 2u);  // {c, b}
  // "b" kept its sighting: admitted. "a" lost its (evicted as the oldest
  // recorded): rejected and re-recorded — which in turn evicts "c".
  cache.GetOrCompute("b", [] { return PositivePayload(1); });
  EXPECT_EQ(cache.metrics().entries, 1u);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  cache.GetOrCompute("a", [] { return PositivePayload(1); });
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 1u);  // "a" still not admitted
  EXPECT_EQ(m.admission_rejects, 4u);  // a, b, c, a
}

// The stampede guarantee, hammered: kThreads concurrent misses for the
// SAME key must coalesce onto exactly one compute. The sleep inside the
// compute keeps every other thread in the in-flight window, and the run
// under TSan proves the lock/future discipline is race-free.
TEST(ResultCacheStress, StampedeCoalescesToOneCompute) {
  ResultCache cache(ResultCacheOptions{});
  constexpr size_t kThreads = 8;
  std::atomic<int> computes{0};
  std::atomic<int> ready{0};
  std::vector<ResultPtr> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Rough rendezvous so the misses really are concurrent.
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(kThreads)) {
        std::this_thread::yield();
      }
      got[w] = cache.GetOrCompute("hot-key", [&] {
        computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return Payload(42);
      });
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(computes.load(), 1);
  for (size_t w = 1; w < kThreads; ++w) {
    // Everyone observes the one published object.
    EXPECT_EQ(got[w].get(), got[0].get());
  }
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.hits + m.coalesced_waits, kThreads - 1);
}

// Many keys x many threads: coalescing per key, no cross-key interference,
// caps enforced concurrently.
TEST(ResultCacheStress, ConcurrentMixedKeys) {
  ResultCacheOptions o;
  o.num_shards = 4;
  o.max_entries = 64;
  o.max_bytes = 1 << 30;
  ResultCache cache(o);
  constexpr size_t kThreads = 8;
  constexpr int kKeys = 16;
  constexpr int kRounds = 40;
  std::vector<std::atomic<int>> computes(kKeys);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        int k = static_cast<int>((round + w) % kKeys);
        ResultPtr v = cache.GetOrCompute("key-" + std::to_string(k), [&] {
          computes[k].fetch_add(1);
          return Payload(static_cast<size_t>(k));
        });
        if (v->approx_bytes != static_cast<size_t>(k)) {
          ADD_FAILURE() << "value for key " << k << " corrupted";
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Capacity (64) exceeds the key count, so nothing is ever evicted and
  // each key is computed exactly once no matter the interleaving.
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(computes[k].load(), 1) << "key " << k;
  }
  EXPECT_EQ(cache.metrics().misses, static_cast<uint64_t>(kKeys));
}

}  // namespace
}  // namespace osum::serve

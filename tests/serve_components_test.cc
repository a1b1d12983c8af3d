// Unit tests for the serving building blocks: latency histogram / metrics
// registry, sharded LRU suggestion cache, and the bounded thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "serve/metrics.h"
#include "serve/suggestion_cache.h"

namespace xclean::serve {
namespace {

std::vector<Suggestion> OneSuggestion(const std::string& word, double score) {
  Suggestion s;
  s.words = {word};
  s.score = score;
  return {s};
}

TEST(LatencyHistogramTest, QuantilesBracketSamples) {
  LatencyHistogram h;
  // 90 fast samples (~100us) and 10 slow ones (~50ms).
  for (int i = 0; i < 90; ++i) h.Record(100);
  for (int i = 0; i < 10; ++i) h.Record(50000);
  EXPECT_EQ(h.count(), 100u);
  // p50 must land in the fast bucket: 100us rounds up to at most 128us.
  EXPECT_LE(h.QuantileMillis(0.50), 0.128 + 1e-9);
  // p99 must land in the slow bucket: >= 50ms sample, upper bound <= 2x.
  EXPECT_GE(h.QuantileMillis(0.99), 0.050);
  EXPECT_LE(h.QuantileMillis(0.99), 105.0);
  double mean = h.MeanMillis();
  EXPECT_NEAR(mean, (90 * 0.1 + 10 * 50.0) / 100.0, 1e-6);
}

TEST(LatencyHistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.QuantileMillis(0.99), 0.0);
  EXPECT_EQ(h.MeanMillis(), 0.0);
}

TEST(MetricsRegistryTest, SnapshotAndDump) {
  MetricsRegistry m;
  m.IncrRequests();
  m.IncrRequests();
  m.IncrCompleted();
  m.IncrRejected();
  m.IncrDeadlineExceeded();
  m.IncrSwaps();
  m.RecordLatencyMicros(1000);
  MetricsSnapshot s = m.Snapshot(/*cache_hits=*/5, /*cache_misses=*/7,
                                 /*cache_evictions=*/2);
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.snapshot_swaps, 1u);
  EXPECT_EQ(s.cache_hits, 5u);
  EXPECT_EQ(s.cache_misses, 7u);
  EXPECT_EQ(s.cache_evictions, 2u);
  EXPECT_EQ(s.latency_count, 1u);
  std::string dump = s.ToString();
  EXPECT_NE(dump.find("req=2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("hit=5"), std::string::npos) << dump;
  EXPECT_NE(dump.find("p99="), std::string::npos) << dump;
}

TEST(SuggestionCacheTest, HitMissAndLruEviction) {
  CacheOptions options;
  options.capacity = 2;
  options.shards = 1;  // single shard so eviction order is deterministic
  SuggestionCache cache(options);

  std::vector<Suggestion> out;
  EXPECT_FALSE(cache.Get("a", &out));
  cache.Put("a", OneSuggestion("alpha", 1.0));
  cache.Put("b", OneSuggestion("beta", 2.0));
  ASSERT_TRUE(cache.Get("a", &out));  // refreshes "a"; "b" is now LRU
  EXPECT_EQ(out[0].words[0], "alpha");

  cache.Put("c", OneSuggestion("gamma", 3.0));  // evicts "b"
  EXPECT_FALSE(cache.Get("b", &out));
  EXPECT_TRUE(cache.Get("a", &out));
  EXPECT_TRUE(cache.Get("c", &out));

  SuggestionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(SuggestionCacheTest, ZeroCapacityDisables) {
  CacheOptions options;
  options.capacity = 0;
  SuggestionCache cache(options);
  cache.Put("a", OneSuggestion("alpha", 1.0));
  std::vector<Suggestion> out;
  EXPECT_FALSE(cache.Get("a", &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SuggestionCacheTest, PutRefreshReplacesValue) {
  SuggestionCache cache;
  cache.Put("k", OneSuggestion("old", 1.0));
  cache.Put("k", OneSuggestion("new", 2.0));
  std::vector<Suggestion> out;
  ASSERT_TRUE(cache.Get("k", &out));
  EXPECT_EQ(out[0].words[0], "new");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SuggestionCacheTest, ConcurrentMixedWorkloadIsConsistent) {
  CacheOptions options;
  options.capacity = 128;
  options.shards = 8;
  SuggestionCache cache(options);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "k";
        key += std::to_string((t * 31 + i) % 200);
        std::vector<Suggestion> out;
        if (!cache.Get(key, &out)) {
          cache.Put(key, OneSuggestion(key, 1.0));
        } else {
          // A hit must return the value stored under that key.
          ASSERT_EQ(out[0].words[0], key);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  SuggestionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(stats.entries, cache.capacity());
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPoolOptions options;
  options.num_threads = 4;
  ThreadPool pool(options);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&done] { done.fetch_add(1); }).ok());
  }
  pool.Shutdown();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, RejectsWhenQueueFull) {
  ThreadPoolOptions options;
  options.num_threads = 1;
  options.queue_capacity = 2;
  ThreadPool pool(options);

  // Block the single worker so the queue can fill up.
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.TrySubmit([&release] {
                    while (!release.load()) std::this_thread::yield();
                  })
                  .ok());
  // Wait until the worker has dequeued the blocker (queue drains to 0).
  while (pool.queue_depth() != 0) std::this_thread::yield();

  ASSERT_TRUE(pool.TrySubmit([] {}).ok());
  ASSERT_TRUE(pool.TrySubmit([] {}).ok());
  Status overflow = pool.TrySubmit([] {});
  EXPECT_EQ(overflow.code(), StatusCode::kUnavailable);

  release.store(true);
  pool.Shutdown();
}

TEST(ThreadPoolTest, ExpiredEntriesReleaseTheirQueueSlots) {
  ThreadPoolOptions options;
  options.num_threads = 1;
  options.queue_capacity = 2;
  ThreadPool pool(options);

  // Block the single worker, then wait for the blocker to leave the queue.
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.TrySubmit([&release] {
                    while (!release.load()) std::this_thread::yield();
                  })
                  .ok());
  while (pool.queue_depth() != 0) std::this_thread::yield();

  // Fill every slot with entries already past their deadline.
  auto expired = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  std::atomic<int> expired_cbs{0};
  std::atomic<int> dead_tasks_ran{0};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pool.TrySubmit(
                        [&dead_tasks_ran] { dead_tasks_ran.fetch_add(1); },
                        expired,
                        [&expired_cbs] { expired_cbs.fetch_add(1); })
                    .ok());
  }
  ASSERT_EQ(pool.queue_depth(), 2u);

  // The queue is nominally full, but both occupants are dead: a new
  // submission must sweep them out and take a freed slot instead of
  // being rejected. This is the slot-accounting regression — an expired
  // entry gives its slot back *before* its expiry callback runs.
  std::atomic<int> live_ran{0};
  ASSERT_TRUE(pool.TrySubmit([&live_ran] { live_ran.fetch_add(1); }).ok());
  EXPECT_EQ(pool.expired_evictions(), 2u);
  EXPECT_EQ(expired_cbs.load(), 2);

  release.store(true);
  pool.Shutdown();
  EXPECT_EQ(live_ran.load(), 1);
  // The dead entries' tasks must never have executed.
  EXPECT_EQ(dead_tasks_ran.load(), 0);
}

TEST(ThreadPoolTest, WorkerSideExpiryRunsCallbackNotTask) {
  ThreadPoolOptions options;
  options.num_threads = 1;
  options.queue_capacity = 8;
  ThreadPool pool(options);

  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.TrySubmit([&release] {
                    while (!release.load()) std::this_thread::yield();
                  })
                  .ok());
  while (pool.queue_depth() != 0) std::this_thread::yield();

  // Expires while waiting behind the blocker; the worker (not a sweep)
  // discovers it at pickup.
  std::atomic<int> ran{0};
  std::atomic<int> expired_cbs{0};
  ASSERT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); },
                             std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds(1),
                             [&expired_cbs] { expired_cbs.fetch_add(1); })
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  release.store(true);
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(expired_cbs.load(), 1);
  EXPECT_EQ(pool.expired_evictions(), 1u);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(ThreadPoolOptions{.num_threads = 1, .queue_capacity = 4});
  pool.Shutdown();
  Status s = pool.TrySubmit([] {});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ThreadPoolTest, ShutdownDrainsBacklog) {
  ThreadPoolOptions options;
  options.num_threads = 2;
  options.queue_capacity = 1000;
  ThreadPool pool(options);
  std::atomic<int> done{0};
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(pool
                    .TrySubmit([&done] {
                      std::this_thread::sleep_for(
                          std::chrono::microseconds(10));
                      done.fetch_add(1);
                    })
                    .ok());
  }
  pool.Shutdown();  // must run everything already accepted
  EXPECT_EQ(done.load(), 500);
}

}  // namespace
}  // namespace xclean::serve

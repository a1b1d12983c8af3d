// Unit tests for the degradation ladder (serve/overload.h) and its
// integration into ServingEngine: tier transitions from queue fill and
// latency pressure, hysteresis on the way down, per-tier accounting, and
// the serving semantics of each tier (reduced tuning, cache-only
// shedding, full shed).

#include "serve/overload.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault_injection.h"
#include "core/suggester.h"
#include "data/dblp_gen.h"
#include "serve/engine.h"

namespace xclean {
namespace {

TEST(OverloadControllerTest, StaysFullUnderLightLoad) {
  OverloadController controller;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(controller.Evaluate(10, 1000), ServiceTier::kFull);
  }
  EXPECT_EQ(controller.tier_requests()[0], 100u);
}

TEST(OverloadControllerTest, EscalatesImmediatelyOnQueueFill) {
  OverloadController controller;
  EXPECT_EQ(controller.Evaluate(500, 1000), ServiceTier::kReduced);
  EXPECT_EQ(controller.Evaluate(750, 1000), ServiceTier::kCacheOnly);
  EXPECT_EQ(controller.Evaluate(950, 1000), ServiceTier::kShed);
  // Escalation can jump several rungs in one evaluation.
  OverloadController fresh;
  EXPECT_EQ(fresh.Evaluate(1000, 1000), ServiceTier::kShed);
}

TEST(OverloadControllerTest, StepsDownOneTierPerHoldPeriod) {
  OverloadControllerOptions options;
  options.step_down_hold_ms = 0;  // no hold: every calm evaluation steps
  OverloadController controller(options);
  ASSERT_EQ(controller.Evaluate(1000, 1000), ServiceTier::kShed);
  // Pressure vanished, but recovery is one rung at a time.
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kCacheOnly);
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kReduced);
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kFull);
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kFull);
}

TEST(OverloadControllerTest, HoldPeriodBlocksImmediateStepDown) {
  OverloadControllerOptions options;
  options.step_down_hold_ms = 60000;  // effectively forever for this test
  OverloadController controller(options);
  ASSERT_EQ(controller.Evaluate(950, 1000), ServiceTier::kShed);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kShed)
        << "stepped down before the hold elapsed (i=" << i << ")";
  }
}

TEST(OverloadControllerTest, LatencyPressureEscalatesWithoutQueue) {
  OverloadControllerOptions options;
  options.deadline_ms = 100.0;
  OverloadController controller(options);
  // Saturate the p95 estimate well above the deadline: every request is
  // slow even though the queue is empty (the slow-poison regime).
  for (int i = 0; i < 2000; ++i) controller.RecordLatency(95.0);
  EXPECT_GT(controller.p95_ms(), options.cache_only_latency * 100.0);
  // Latency alone reaches cache-only but never kShed: shedding everything
  // is reserved for genuine queue overflow.
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kCacheOnly);
}

TEST(OverloadControllerTest, P95EstimatorConvergesNearTheQuantile) {
  OverloadController controller;
  // 95% of samples at 10ms, 5% at 200ms, interleaved deterministically.
  for (int round = 0; round < 400; ++round) {
    for (int i = 0; i < 19; ++i) controller.RecordLatency(10.0);
    controller.RecordLatency(200.0);
  }
  // The stochastic estimator should settle between the two modes — near
  // the p95 boundary, far from both the median and the max.
  EXPECT_GT(controller.p95_ms(), 10.0);
  EXPECT_LT(controller.p95_ms(), 200.0);
}

TEST(OverloadControllerTest, ResetLatencySignalZeroesTheEstimate) {
  ManualClock clock;
  OverloadControllerOptions options;
  options.deadline_ms = 100.0;
  options.clock = &clock;
  OverloadController controller(options);
  for (int i = 0; i < 2000; ++i) controller.RecordLatency(95.0);
  ASSERT_GT(controller.p95_ms(), 0.0);
  ASSERT_EQ(controller.Evaluate(0, 1000), ServiceTier::kCacheOnly);

  // An index swap invalidates the latency history: without the reset the
  // asymmetric EWMA needs ~19 samples per alpha step to walk back down,
  // pinning a fast new index at a degraded tier on stale evidence.
  controller.ResetLatencySignal();
  EXPECT_EQ(controller.p95_ms(), 0.0);
  // With the signal cleared (and no queue pressure), the tier recovers
  // through the normal hold-period hysteresis — advanced in virtual time,
  // so this test never sleeps.
  clock.Advance(std::chrono::milliseconds(options.step_down_hold_ms + 50));
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kReduced);
  clock.Advance(std::chrono::milliseconds(options.step_down_hold_ms + 50));
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kFull);
}

TEST(OverloadControllerTest, HoldPeriodElapsesInVirtualTime) {
  // The hysteresis hold is pure elapsed-time logic; under an injected
  // clock a multi-second hold costs nothing and is exactly reproducible.
  ManualClock clock;
  OverloadControllerOptions options;
  options.step_down_hold_ms = 5000;
  options.clock = &clock;
  OverloadController controller(options);
  ASSERT_EQ(controller.Evaluate(1000, 1000), ServiceTier::kShed);
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kShed);
  clock.Advance(std::chrono::milliseconds(4999));
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kShed);
  clock.Advance(std::chrono::milliseconds(2));
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kCacheOnly);
  // The step-down restarts the hold clock.
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kCacheOnly);
  clock.Advance(std::chrono::milliseconds(5001));
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kReduced);
}

TEST(OverloadControllerTest, ForcedTierPinsTheLadder) {
  OverloadControllerOptions options;
  options.forced_tier = static_cast<int>(ServiceTier::kCacheOnly);
  OverloadController controller(options);
  EXPECT_EQ(controller.Evaluate(0, 1000), ServiceTier::kCacheOnly);
  EXPECT_EQ(controller.Evaluate(1000, 1000), ServiceTier::kCacheOnly);
  EXPECT_EQ(controller.tier_requests()[2], 2u);
}

TEST(OverloadControllerTest, TierNamesAreStable) {
  EXPECT_STREQ(TierName(ServiceTier::kFull), "full");
  EXPECT_STREQ(TierName(ServiceTier::kReduced), "reduced");
  EXPECT_STREQ(TierName(ServiceTier::kCacheOnly), "cache_only");
  EXPECT_STREQ(TierName(ServiceTier::kShed), "shed");
}

// ---- Engine integration: what each tier means for a request. ----

std::shared_ptr<const XCleanSuggester> BuildSuggester() {
  DblpGenOptions gen;
  gen.num_publications = 400;
  return std::make_shared<const XCleanSuggester>(
      XCleanSuggester::FromTree(GenerateDblp(gen)));
}

TEST(OverloadServingTest, SwapIndexResetsTheLatencySignal) {
  auto suggester = BuildSuggester();
  serve::EngineOptions options;
  options.pool.num_threads = 1;
  serve::ServingEngine engine(suggester, options);

  // Accumulate a nonzero p95 estimate against the current index.
  for (int i = 0; i < 50; ++i) {
    serve::ServeResult r = engine.Suggest("informaton retreival");
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }
  ASSERT_GT(engine.Metrics().overload_p95_ms, 0.0);

  // Regression: the estimate characterizes the *old* index's query cost
  // and must not survive the hot swap as phantom pressure on the new one.
  engine.SwapIndex(suggester);
  EXPECT_EQ(engine.Metrics().overload_p95_ms, 0.0);
  EXPECT_EQ(engine.Metrics().snapshot_swaps, 1u);
}

TEST(OverloadServingTest, LatencyEscalatedLadderStepsDownWhileShedding) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  ManualClock clock;
  serve::EngineOptions options;
  options.pool.num_threads = 1;
  options.overload.deadline_ms = 100.0;
  // One sample above the estimate moves it all the way: a single slow
  // request escalates the ladder.
  options.overload.ewma_alpha = 1.0;
  options.overload.clock = &clock;
  serve::ServingEngine engine(BuildSuggester(), options);

  fault::ArmDelay("serve.cache.lookup", std::chrono::milliseconds(100), 1);
  serve::ServeResult slow = engine.Suggest("information retrieval");
  fault::DisarmAll();
  ASSERT_TRUE(slow.status.ok()) << slow.status.ToString();
  ASSERT_GE(engine.Metrics().overload_p95_ms,
            options.overload.cache_only_latency * options.overload.deadline_ms);

  // Cache-only with a cold cache for these queries: every request is a
  // miss and is refused. Regression: refused requests never reached the
  // p95 estimator, so it stayed above the cache-only threshold and the
  // ladder never stepped down.
  const std::string miss = "informaton retreival";
  for (int i = 0; i < 40; ++i) {
    serve::ServeResult r = engine.Suggest(miss);
    ASSERT_EQ(r.tier, ServiceTier::kCacheOnly) << "request " << i;
    ASSERT_EQ(r.status.code(), StatusCode::kUnavailable);
  }
  EXPECT_LT(engine.Metrics().overload_p95_ms,
            options.overload.reduce_latency * options.overload.deadline_ms);

  const auto hold =
      std::chrono::milliseconds(options.overload.step_down_hold_ms + 1);
  clock.Advance(hold);
  serve::ServeResult reduced = engine.Suggest(miss);
  EXPECT_EQ(reduced.tier, ServiceTier::kReduced);
  EXPECT_TRUE(reduced.status.ok()) << reduced.status.ToString();
  EXPECT_FALSE(reduced.cache_hit);

  clock.Advance(hold);
  serve::ServeResult full = engine.Suggest(miss);
  EXPECT_EQ(full.tier, ServiceTier::kFull);
  EXPECT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_FALSE(full.cache_hit);
}

TEST(OverloadServingTest, ShedTierAnswersUnavailable) {
  serve::EngineOptions options;
  options.pool.num_threads = 1;
  options.overload.forced_tier = static_cast<int>(ServiceTier::kShed);
  serve::ServingEngine engine(BuildSuggester(), options);

  serve::ServeResult r = engine.Suggest("information retrieval");
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.tier, ServiceTier::kShed);
  EXPECT_TRUE(r.suggestions.empty());
  serve::MetricsSnapshot m = engine.Metrics();
  EXPECT_EQ(m.shed_overload, 1u);
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(m.current_tier, static_cast<int>(ServiceTier::kShed));
  EXPECT_EQ(m.tier_requests[3], 1u);
  EXPECT_EQ(engine.current_tier(), ServiceTier::kShed);
}

TEST(OverloadServingTest, CacheOnlyTierServesHitsShedsMisses) {
  serve::EngineOptions options;
  options.pool.num_threads = 1;
  options.overload.forced_tier = static_cast<int>(ServiceTier::kCacheOnly);
  serve::ServingEngine engine(BuildSuggester(), options);

  serve::ServeResult miss = engine.Suggest("information retrieval");
  EXPECT_EQ(miss.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.Metrics().shed_overload, 1u);
  EXPECT_EQ(engine.Metrics().completed, 0u);
}

TEST(OverloadServingTest, ReducedTierCapsTopKAndKeepsServing) {
  auto suggester = BuildSuggester();
  serve::EngineOptions options;
  options.pool.num_threads = 1;
  options.overload.forced_tier = static_cast<int>(ServiceTier::kReduced);
  options.overload.reduced_tuning = QueryTuning{1, 256, 2};
  serve::ServingEngine engine(suggester, options);

  serve::ServeResult r = engine.Suggest("informaton retreival");
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.tier, ServiceTier::kReduced);
  EXPECT_LE(r.suggestions.size(), 2u);

  // The reduced answer was cached under the tier-scoped key: serving the
  // same query again at the reduced tier hits.
  serve::ServeResult again = engine.Suggest("informaton retreival");
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.suggestions.size(), r.suggestions.size());
}

TEST(OverloadServingTest, ReducedResultsNeverPolluteTheFullTierCache) {
  auto suggester = BuildSuggester();
  const std::string query = "informaton retreival";

  // Full-quality reference answer.
  serve::EngineOptions full_options;
  full_options.pool.num_threads = 1;
  serve::ServingEngine full_engine(suggester, full_options);
  serve::ServeResult full = full_engine.Suggest(query);
  ASSERT_TRUE(full.status.ok());

  // A degraded engine serves a capped answer; the full engine's cache key
  // space is disjoint ("t1|" prefix), so a full-tier request never reads
  // a degraded entry. Verified indirectly: the reduced answer is at most
  // as long as the full one and re-serving at full quality elsewhere
  // still yields the reference list.
  serve::EngineOptions reduced_options = full_options;
  reduced_options.overload.forced_tier =
      static_cast<int>(ServiceTier::kReduced);
  reduced_options.overload.reduced_tuning = QueryTuning{1, 128, 1};
  serve::ServingEngine reduced_engine(suggester, reduced_options);
  serve::ServeResult reduced = reduced_engine.Suggest(query);
  ASSERT_TRUE(reduced.status.ok());
  EXPECT_LE(reduced.suggestions.size(), 1u);
  EXPECT_LE(reduced.suggestions.size(), full.suggestions.size());

  serve::ServeResult full_again = full_engine.Suggest(query);
  ASSERT_TRUE(full_again.status.ok());
  EXPECT_TRUE(full_again.cache_hit);
  EXPECT_EQ(full_again.suggestions.size(), full.suggestions.size());
}

TEST(OverloadServingTest, MetricsToStringIncludesTierState) {
  serve::EngineOptions options;
  options.pool.num_threads = 1;
  serve::ServingEngine engine(BuildSuggester(), options);
  (void)engine.Suggest("information retrieval");
  std::string text = engine.Metrics().ToString();
  EXPECT_NE(text.find("tier=full"), std::string::npos) << text;
  EXPECT_NE(text.find("tiers="), std::string::npos) << text;
  EXPECT_NE(text.find("shed=0"), std::string::npos) << text;
}

}  // namespace
}  // namespace xclean

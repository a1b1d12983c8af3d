// dblp-typo: a closed loop of kClients threads calling
// ServingEngine::Suggest over distinct misspelled queries (CLEAN, RAND and
// RULE in equal parts) on the DBLP-like corpus with the paper's Table VI
// settings (FastSS radius and max_ed 3, gamma 1000). With no repeats the
// cache never hits, so the time goes to the query-cleaning core.
#include <atomic>
#include <mutex>
#include <thread>

#include "eval/metrics.h"
#include "serve/engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kPublications = 20000;
constexpr size_t kClients = 2;
/// Timed requests per second of --seconds; the list is fixed, not a time box.
constexpr size_t kQueriesPerSecond = 10000;
constexpr size_t kWarmupQueries = 1500;
constexpr int kSetupRepeats = 5;
/// In the traced run, every kProbeEvery-th request is also probed layer by
/// layer (CoreProbe).
constexpr size_t kProbeEvery = 4;

}  // namespace

Report RunDblpTypo(const RunContext& ctx) {
  Report report;
  Tracer* tracer = ctx.tracer;
  const std::string xml = DblpXml(ctx.seed, kPublications);
  const xclean::SuggesterOptions options = TableViOptions();

  std::shared_ptr<const xclean::XCleanSuggester> suggester;
  std::unique_ptr<xclean::serve::ServingEngine> engine;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    engine.reset();
    suggester.reset();
    const auto t0 = SteadyClock::now();
    suggester = BuildSuggester(xml, options, tracer);
    engine = std::make_unique<xclean::serve::ServingEngine>(suggester);
    setup_s.push_back(Seconds(t0, SteadyClock::now()));
  }
  ReportSetup(report, setup_s);

  std::unordered_set<std::string> seen;
  const size_t n = kQueriesPerSecond * static_cast<size_t>(ctx.seconds);
  const std::vector<BenchQuery> queries =
      MakeQueries(suggester->index(), ctx.seed, n, &seen);
  const std::vector<BenchQuery> warmup =
      MakeQueries(suggester->index(), ctx.seed + 0x9E37, kWarmupQueries, &seen);

  RequestLog log(n);
  std::vector<double> overhead_us(n, -1.0);
  std::vector<std::vector<xclean::Suggestion>> answers(n);
  std::vector<CoreCounts> counts(kClients);

  auto run_clients = [&](const std::vector<BenchQuery>& list, bool timed) {
    std::atomic<size_t> next{0};
    auto client = [&](size_t c) {
      CoreProbe probe(*suggester);
      for (size_t i = next.fetch_add(1); i < list.size();
           i = next.fetch_add(1)) {
        const auto t0 = SteadyClock::now();
        xclean::serve::ServeResult r = engine->Suggest(list[i].text);
        const auto t1 = SteadyClock::now();
        if (!timed) continue;
        log.begin[i] = t0;
        log.end[i] = t1;
        log.ok[i] = r.status.ok() && !r.truncated &&
                r.tier == xclean::ServiceTier::kFull;
        if (!r.cache_hit) overhead_us[i] = (r.latency_ms - r.compute_ms) * 1e3;
        answers[i] = std::move(r.suggestions);
        if (tracer != nullptr) {
          const uint64_t req = i + 1;
          const int64_t end = tracer->ToNs(t1);
          const uint64_t root =
              tracer->Record("request", tracer->ToNs(t0), end, 0, req);
          tracer->Record("core.compute",
                         end - static_cast<int64_t>(r.compute_ms * 1e6), end,
                         root, req, /*derived=*/true);
          if (i % kProbeEvery == 0) probe.Run(list[i].text, tracer, req);
        }
      }
      if (timed) counts[c] = probe.counts();
    };
    std::vector<std::thread> threads;
    for (size_t c = 1; c < kClients; ++c) threads.emplace_back(client, c);
    client(0);
    for (std::thread& t : threads) t.join();
  };

  run_clients(warmup, /*timed=*/false);
  const xclean::serve::SuggestionCache::Stats cache0 = engine->CacheStats();
  run_clients(queries, /*timed=*/true);
  const xclean::serve::SuggestionCache::Stats cache1 = engine->CacheStats();
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  report.Info("clients", static_cast<double>(kClients));

  // Reference: the same suggester called directly, one query per call.
  std::atomic<uint64_t> mismatched{0};
  std::mutex mu;
  ParallelRun(n, 4, [&](size_t i) {
    if (!log.ok[i]) return;
    const std::string diff =
        CompareAnswers(answers[i], suggester->Suggest(queries[i].text));
    if (diff.empty()) return;
    mismatched.fetch_add(1);
    log.ok[i] = 0;
    std::lock_guard<std::mutex> lock(mu);
    report.Mismatch("'" + queries[i].text + "': " + diff);
  });
  report.Info("mismatches", static_cast<double>(mismatched.load()));

  for (size_t i = 0; i < n; ++i) {
    log.rr[i] = xclean::ReciprocalRank(answers[i], queries[i].truth);
  }
  ReportRequests(report, log);

  const uint64_t hits = cache1.hits - cache0.hits;
  const uint64_t misses = cache1.misses - cache0.misses;
  report.Layer("serve.cache_hit_rate",
               hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) / (hits + misses),
               "share");
  report.Layer("serve.cache_evictions",
               static_cast<double>(cache1.evictions - cache0.evictions),
               "count");
  std::vector<double> overhead;
  for (double o : overhead_us) {
    if (o >= 0.0) overhead.push_back(o);
  }
  report.Layer("serve.overhead_us", Mean(overhead), "us");
  ReportIndexMemory(report, *suggester);
  if (tracer != nullptr) {
    CoreCounts total;
    for (const CoreCounts& c : counts) total.Add(c);
    ReportCoreLayers(report, *tracer, total);
    ReportSetupLayers(report, *tracer);
  }
  return report;
}

}  // namespace perfbench

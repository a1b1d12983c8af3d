// inex-live: the INEX-like deep corpus served with live updates. One
// closed-loop reader sends distinct queries; between them, at fixed points
// of the request list, the same thread adds and deletes generated articles,
// with auto-compaction every kCompactAfterDocs memtable documents
// publishing durably through a SnapshotLifecycle. Reads go through the
// layered evaluation while deltas exist. Each compaction is drained before
// the next read, so the reads, writes and compactions of a run follow one
// schedule whatever the speed of the host: write w comes after read
// w * n / writes, and a read never races a compaction. The warm-up writes
// until a first compaction has rebuilt the base, so every timed read runs
// on a compacted base.
#include <deque>
#include <filesystem>

#include "data/inex_gen.h"
#include "eval/metrics.h"
#include "serve/engine.h"
#include "workloads.h"
#include "xml/writer.h"

namespace perfbench {
namespace {

constexpr uint32_t kArticles = 4000;
/// Writes per second of --seconds, spread evenly over the reads.
constexpr size_t kWritesPerSecond = 3;
constexpr size_t kCompactAfterDocs = 8;
/// Bound on the warm-up writes that must arm the first compaction.
constexpr size_t kMaxWarmupWrites = 4 * kCompactAfterDocs;
constexpr size_t kReadsPerSecond = 1500;
constexpr size_t kWarmupQueries = 800;
constexpr size_t kCheckQueries = 400;
constexpr int kSetupRepeats = 3;
constexpr size_t kProbeEvery = 4;

/// Generated articles for the writer, serialized one document each.
std::vector<std::string> NewArticles(uint64_t seed, uint32_t count) {
  xclean::InexGenOptions gen;
  gen.seed = seed;
  gen.num_articles = count;
  const xclean::XmlTree tree = xclean::GenerateInex(gen);
  xclean::WriteOptions wo;
  wo.indent = false;
  std::vector<std::string> out;
  for (xclean::NodeId c = tree.FirstChild(tree.root());
       c != xclean::kInvalidNode; c = tree.NextSibling(c)) {
    out.push_back(xclean::WriteXml(tree, c, wo));
  }
  return out;
}

}  // namespace

Report RunInexLive(const RunContext& ctx) {
  Report report;
  Tracer* tracer = ctx.tracer;
  const std::string xml = InexXml(ctx.seed, kArticles);
  const xclean::SuggesterOptions options = TableViOptions();

  std::shared_ptr<const xclean::XCleanSuggester> suggester;
  std::unique_ptr<xclean::serve::ServingEngine> engine;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    engine.reset();
    suggester.reset();
    const std::string dir = ctx.work_dir + "/live-" + std::to_string(k);
    std::filesystem::create_directories(dir);
    const auto t0 = SteadyClock::now();
    suggester = BuildSuggester(xml, options, tracer);
    engine = std::make_unique<xclean::serve::ServingEngine>(suggester);
    const xclean::Status enabled =
        engine->EnableLiveUpdates(kCompactAfterDocs, dir);
    setup_s.push_back(Seconds(t0, SteadyClock::now()));
    if (!enabled.ok()) {
      std::fprintf(stderr, "EnableLiveUpdates: %s\n",
                   enabled.ToString().c_str());
      std::exit(3);
    }
  }
  ReportSetup(report, setup_s);
  std::shared_ptr<xclean::delta::LiveIndex> live = engine->live_index();

  std::unordered_set<std::string> seen;
  const size_t n = kReadsPerSecond * static_cast<size_t>(ctx.seconds);
  const std::vector<BenchQuery> queries =
      MakeQueries(suggester->index(), ctx.seed, n, &seen);
  const std::vector<BenchQuery> warmup =
      MakeQueries(suggester->index(), ctx.seed + 0x9E37, kWarmupQueries, &seen);
  const size_t writes = kWritesPerSecond * static_cast<size_t>(ctx.seconds);
  const std::vector<std::string> articles = NewArticles(
      ctx.seed * 7919 + 17, static_cast<uint32_t>(kMaxWarmupWrites + writes));

  // One thread, one fixed schedule: timed write w follows read
  // written_after(w), and a compaction it arms is drained before the next
  // read. Every run therefore reads through the same sequence of layered
  // states, whatever the speed of the host. Every third write deletes the
  // oldest surviving added article; the others add the next one.
  auto written_after = [&](size_t w) { return w * n / writes; };
  std::vector<double> write_ms;
  std::vector<double> compact_s, publish_ms;
  bool write_failed = false;
  std::deque<std::pair<xclean::delta::DocId, size_t>> added;
  std::vector<char> alive;
  uint64_t compactions = live->counters().compactions;
  size_t next_write = 0;  // writes made so far, the warm-up's included
  // Makes the next write; returns the seconds spent draining the
  // compaction it armed, which qps leaves out.
  auto write_one = [&] {
    const auto t0 = SteadyClock::now();
    {
      ScopedSpan span(tracer, "delta.write", 0, 0);
      if (next_write % 3 == 2 && !added.empty()) {
        const auto [id, article] = added.front();
        added.pop_front();
        if (!engine->DeleteDocument(id).ok()) write_failed = true;
        alive[article] = 0;
      } else {
        const size_t article = alive.size();
        xclean::Result<xclean::delta::DocId> id =
            engine->AddDocument(articles[article]);
        if (!id.ok()) write_failed = true;
        if (id.ok()) added.emplace_back(id.value(), article);
        alive.push_back(id.ok());
      }
    }
    ++next_write;
    const auto t1 = SteadyClock::now();
    write_ms.push_back(Millis(t0, t1));
    engine->WaitForLiveCompaction();
    const xclean::delta::LiveCounters c = live->counters();
    if (c.compactions != compactions) {
      compactions = c.compactions;
      compact_s.push_back(c.last_compact_micros / 1e6);
      publish_ms.push_back(c.last_publish_micros / 1e3);
    }
    return Seconds(t1, SteadyClock::now());
  };

  // Warm-up: writes until the first compaction has installed a rebuilt
  // base, then reads, so every timed window reads a base the compactor
  // built rather than the one set-up built.
  const uint64_t warm_compactions = compactions;
  while (compactions == warm_compactions && next_write < kMaxWarmupWrites) {
    write_one();
  }
  if (compactions == warm_compactions) {
    report.Mismatch("the warm-up writes armed no compaction");
  }
  const size_t warmup_writes = next_write;
  for (const BenchQuery& q : warmup) engine->Suggest(q.text);

  const xclean::delta::LiveCounters c0 = live->counters();
  auto write_through = [&](size_t reads_done) {
    double drained_s = 0.0;
    while (next_write - warmup_writes < writes &&
           written_after(next_write - warmup_writes) <= reads_done) {
      drained_s += write_one();
    }
    return drained_s;
  };
  write_through(0);

  // Reader: closed loop over distinct queries, the writes in between.
  RequestLog log(n);
  std::vector<double> read_ms;
  size_t layered = 0, pinned = 0;
  double layers = 0.0;
  CoreProbe probe(*suggester);
  xclean::QueryScratch scratch;
  for (size_t i = 0; i < n; ++i) {
    const auto t0 = SteadyClock::now();
    xclean::serve::ServeResult r = engine->Suggest(queries[i].text);
    const auto t1 = SteadyClock::now();
    log.begin[i] = t0;
    log.end[i] = t1;
    log.ok[i] = r.status.ok() && !r.truncated &&
                r.tier == xclean::ServiceTier::kFull;
    log.rr[i] = xclean::ReciprocalRank(r.suggestions, queries[i].truth);
    log.paused_s[i] = write_through(i + 1);
    if (tracer == nullptr) continue;
    const uint64_t req = i + 1;
    const int64_t end = tracer->ToNs(t1);
    const uint64_t root = tracer->Record("request", tracer->ToNs(t0), end, 0, req);
    tracer->Record("core.compute",
                   end - static_cast<int64_t>(r.compute_ms * 1e6), end, root,
                   req, true);
    if (i % kProbeEvery != 0) continue;
    // Layered read on a pinned snapshot, then the core probes on the base.
    const std::shared_ptr<const xclean::delta::LiveSnapshot> snap =
        live->snapshot();
    const xclean::Result<xclean::Query> query = xclean::ParseQueryBounded(
        queries[i].text, suggester->index().tokenizer(),
        xclean::QueryParseLimits());
    if (query.ok()) {
      ScopedSpan probe_root(tracer, "probe.live", 0, req);
      const auto r0 = SteadyClock::now();
      {
        ScopedSpan span(tracer, "delta.read", probe_root.id(), req);
        snap->Suggest(query.value(), &scratch);
      }
      read_ms.push_back(Millis(r0, SteadyClock::now()));
      ++pinned;
      layered += snap->fast_path() ? 0 : 1;
      layers += static_cast<double>(snap->layer_count());
    }
    probe.Run(queries[i].text, tracer, req);
  }
  std::vector<std::string> surviving;  // XML of added, undeleted articles
  for (size_t a = 0; a < alive.size(); ++a) {
    if (alive[a]) surviving.push_back(articles[a]);
  }
  const xclean::delta::LiveCounters c1 = live->counters();
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  if (write_failed) report.Mismatch("a write returned an error");

  // Reference: after writes stop and compaction drains, a sample of queries
  // must match a from-scratch rebuild of the final document set exactly.
  std::string final_xml = xml;
  const size_t close = final_xml.rfind("</");
  std::string docs;
  for (const std::string& a : surviving) docs += a;
  final_xml.insert(close, docs);
  const std::shared_ptr<const xclean::XCleanSuggester> rebuilt =
      BuildSuggester(final_xml, options, nullptr);
  const size_t check = std::min(kCheckQueries, n);
  std::vector<std::string> diffs(check);
  std::vector<std::vector<xclean::Suggestion>> got(check);
  for (size_t i = 0; i < check; ++i) {
    got[i] = engine->Suggest(queries[i].text).suggestions;
  }
  ParallelRun(check, 4, [&](size_t i) {
    diffs[i] = CompareAnswers(got[i], rebuilt->Suggest(queries[i].text));
  });
  size_t mismatched = 0;
  for (size_t i = 0; i < check; ++i) {
    if (diffs[i].empty()) continue;
    ++mismatched;
    log.ok[i] = 0;
    report.Mismatch("'" + queries[i].text + "' after drain: " + diffs[i]);
  }
  report.Info("mismatches", static_cast<double>(mismatched));
  report.Info("checked_after_drain", static_cast<double>(check));
  ReportRequests(report, log);

  report.attempted += writes;
  report.failed += write_failed ? 1 : 0;
  report.Info("writes", static_cast<double>(writes));
  double drained_s = 0.0;
  for (double p : log.paused_s) drained_s += p;
  report.Info("compaction_drain_s", drained_s);
  report.Info("reads_per_write", static_cast<double>(n) / writes);
  report.Info("write_p50_ms", Percentile(write_ms, 0.50));
  report.Info("write_p99_ms", Percentile(write_ms, 0.99));
  report.Info("compactions", static_cast<double>(c1.compactions - c0.compactions));
  report.Info("live_docs", static_cast<double>(c1.live_docs));
  report.Layer("delta.write_ms_p50", Percentile(write_ms, 0.50), "ms");
  report.Layer("delta.write_ms_p99", Percentile(write_ms, 0.99), "ms");
  report.Layer("delta.compactions",
               static_cast<double>(c1.compactions - c0.compactions), "count");
  report.Layer("delta.compact_s", Mean(compact_s), "s");
  report.Layer("delta.publish_ms", Mean(publish_ms), "ms");
  ReportIndexMemory(report, *suggester);
  if (tracer != nullptr) {
    report.Layer("delta.read_ms_p50", Percentile(read_ms, 0.50), "ms");
    report.Layer("delta.read_ms_p99", Percentile(read_ms, 0.99), "ms");
    report.Layer("delta.layered_share",
                 pinned == 0 ? 0.0 : static_cast<double>(layered) / pinned,
                 "share");
    report.Layer("delta.layers_mean", pinned == 0 ? 0.0 : layers / pinned,
                 "count");
    ReportCoreLayers(report, *tracer, probe.counts());
    ReportSetupLayers(report, *tracer);
  }
  return report;
}

}  // namespace perfbench

#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/random.h"
#include "data/dblp_gen.h"
#include "data/inex_gen.h"
#include "data/workload.h"
#include "eval/metrics.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace perfbench {

using xclean::Suggestion;

void Report::Info(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  info[name] = buf;
}

void Report::Mismatch(const std::string& what) {
  correct = false;
  if (mismatches.size() < 8) mismatches.push_back(what);
}

namespace {

std::string Compact(const xclean::XmlTree& tree) {
  xclean::WriteOptions wo;
  wo.indent = false;
  return xclean::WriteXml(tree, wo);
}

}  // namespace

std::string DblpXml(uint64_t seed, uint32_t publications) {
  xclean::DblpGenOptions gen;
  gen.seed = seed;
  gen.num_publications = publications;
  gen.content_typo_rate = 0.02;
  return Compact(xclean::GenerateDblp(gen));
}

std::string InexXml(uint64_t seed, uint32_t articles) {
  xclean::InexGenOptions gen;
  gen.seed = seed;
  gen.num_articles = articles;
  return Compact(xclean::GenerateInex(gen));
}

xclean::IndexOptions BenchIndexOptions() {
  xclean::IndexOptions options;
  options.fastss_max_ed = 3;
  return options;
}

xclean::SuggesterOptions TableViOptions() {
  xclean::SuggesterOptions options;
  options.xclean.max_ed = 3;
  options.xclean.gamma = 1000;
  return options;
}

std::vector<BenchQuery> MakeQueries(const xclean::XmlIndex& index,
                                    uint64_t seed, size_t count,
                                    std::unordered_set<std::string>* seen) {
  std::vector<BenchQuery> out;
  out.reserve(count);
  for (uint64_t round = 0; out.size() < count; ++round) {
    xclean::WorkloadOptions wo;
    wo.seed = seed * 1000003 + round;
    wo.num_queries = static_cast<uint32_t>((count - out.size()) * 5 / 4 + 16);
    const std::vector<xclean::Query> initial =
        xclean::SampleInitialQueries(index, wo);
    xclean::Rng rng(wo.seed ^ 0x5DEECE66Dull);
    for (size_t i = 0; i < initial.size() && out.size() < count; ++i) {
      xclean::Query dirty;
      switch ((out.size() + round) % 3) {
        case 0:
          dirty = initial[i];
          break;
        case 1:
          dirty = xclean::PerturbRand(initial[i], index, wo, rng);
          break;
        default:
          dirty = xclean::PerturbRule(initial[i], index, wo, rng);
          break;
      }
      std::string text = dirty.ToString();
      if (text.empty() || !seen->insert(text).second) continue;
      out.push_back(BenchQuery{std::move(text), initial[i]});
    }
    if (round > 64) {
      std::fprintf(stderr, "could not draw %zu distinct queries\n", count);
      std::exit(3);
    }
  }
  return out;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p of them at or below.
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double total = 0.0;
  for (double s : samples) total += s;
  return total / static_cast<double>(samples.size());
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

namespace {

std::string Words(const Suggestion& s) {
  std::string out;
  for (const std::string& w : s.words) {
    if (!out.empty()) out += ' ';
    out += w;
  }
  return out;
}

}  // namespace

std::string CompareAnswers(const std::vector<Suggestion>& got,
                           const std::vector<Suggestion>& want,
                           double rel_tol) {
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " suggestions, want " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].words != want[i].words) {
      return "rank " + std::to_string(i) + ": got '" + Words(got[i]) +
             "', want '" + Words(want[i]) + "'";
    }
    const double a = got[i].score, b = want[i].score;
    const bool same = rel_tol == 0.0
                          ? a == b
                          : std::fabs(a - b) <=
                                rel_tol * std::max(std::fabs(a), std::fabs(b));
    if (!same) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "rank %zu score %.17g, want %.17g", i, a,
                    b);
      return buf;
    }
  }
  return {};
}

void ParallelRun(size_t n, size_t threads,
                 const std::function<void(size_t)>& body) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) body(i);
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

void ReportRequests(Report& report, const RequestLog& log) {
  const size_t n = log.size();
  std::vector<double> latency_ms(n);
  size_t good = 0, okay = 0;
  double rr_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    latency_ms[i] = log.LatencyMs(i);
    if (!log.ok[i]) continue;
    ++okay;
    rr_sum += log.rr[i];
    if (latency_ms[i] <= kLatencyLimitMs) ++good;
  }
  // Requests answered OK over the wall time of requests [a, b), less the
  // pauses between them.
  auto rate = [&](size_t a, size_t b) {
    SteadyClock::time_point first = log.begin[a], last = log.end[a];
    size_t done = 0;
    double paused = 0.0;
    for (size_t i = a; i < b; ++i) {
      first = std::min(first, log.begin[i]);
      last = std::max(last, log.end[i]);
      done += log.ok[i] ? 1 : 0;
      if (i + 1 < b) paused += log.paused_s[i];
    }
    return done / (Seconds(first, last) - paused);
  };
  std::vector<double> qps, p50, p99;
  const size_t window = n / kLatencyWindows;
  for (size_t w = 0; w < kLatencyWindows && window > 0; ++w) {
    const size_t a = w * window, b = a + window;
    qps.push_back(rate(a, b));
    const std::vector<double> slice(latency_ms.begin() + a,
                                    latency_ms.begin() + b);
    p50.push_back(Percentile(slice, 0.50));
    p99.push_back(Percentile(slice, 0.99));
  }
  report.E2e("qps", n == 0 ? 0.0 : rate(0, n), "req/s");
  report.E2e("latency_p50_ms", Percentile(latency_ms, 0.50), "ms");
  report.E2e("latency_p99_ms", Percentile(latency_ms, 0.99), "ms");
  report.E2e("goodput", n == 0 ? 0.0 : static_cast<double>(good) / n,
             "share");
  report.E2e("success_rate", n == 0 ? 0.0 : static_cast<double>(okay) / n,
             "share");
  report.E2e("mrr", n == 0 ? 0.0 : rr_sum / n, "mrr");
  report.Info("error_rate", n == 0 ? 0.0 : 1.0 - static_cast<double>(okay) / n);
  report.Info("latency_samples", static_cast<double>(n));
  report.Info("windows", static_cast<double>(p50.size()));
  report.Info("window_samples", static_cast<double>(window));
  auto list = [](const std::vector<double>& values) {
    std::string out;
    char buf[32];
    for (double v : values) {
      std::snprintf(buf, sizeof(buf), "%s%.6g", out.empty() ? "" : " ", v);
      out += buf;
    }
    return out;
  };
  report.Info("window_qps", list(qps));
  report.Info("window_p50_ms", list(p50));
  report.Info("window_p99_ms", list(p99));
  report.attempted += n;
  report.failed += n - okay;
}

void ReportSetup(Report& report, const std::vector<double>& setup_s) {
  report.E2e("setup_s", Median(setup_s), "s");
  report.Info("setup_repeats", static_cast<double>(setup_s.size()));
  report.Info("setup_min_s", *std::min_element(setup_s.begin(), setup_s.end()));
  report.Info("setup_max_s", *std::max_element(setup_s.begin(), setup_s.end()));
}

void CoreCounts::Add(const CoreCounts& o) {
  queries += o.queries;
  keywords += o.keywords;
  variants += o.variants;
  suggestions += o.suggestions;
  run.subtrees_processed += o.run.subtrees_processed;
  run.occurrences_collected += o.run.occurrences_collected;
  run.candidates_enumerated += o.run.candidates_enumerated;
  run.entities_scored += o.run.entities_scored;
  run.result_type_computations += o.run.result_type_computations;
  run.accumulator_evictions += o.run.accumulator_evictions;
}

CoreProbe::CoreProbe(const xclean::XCleanSuggester& suggester)
    : suggester_(&suggester),
      variants_(suggester.index(),
                xclean::VariantGenOptions{
                    suggester.options().xclean.max_ed,
                    suggester.options().xclean.include_soundex}),
      types_(suggester.index(), suggester.options().xclean.reduction) {}

void CoreProbe::Run(const std::string& text, Tracer* tracer,
                    uint64_t request) {
  const xclean::XmlIndex& index = suggester_->index();
  ScopedSpan probe(tracer, "probe", 0, request);
  xclean::Result<xclean::Query> parsed = [&] {
    ScopedSpan span(tracer, "core.parse", probe.id(), request);
    return xclean::ParseQueryBounded(text, index.tokenizer(),
                                     xclean::QueryParseLimits());
  }();
  if (!parsed.ok()) return;
  const xclean::Query& query = parsed.value();
  counts_.queries++;
  for (const std::string& keyword : query.keywords) {
    ScopedSpan span(tracer, "text.variants", probe.id(), request);
    counts_.variants += variants_.Generate(keyword).size();
    counts_.keywords++;
  }
  xclean::XCleanRunStats stats;
  {
    ScopedSpan span(tracer, "core.eval", probe.id(), request);
    suggester_->algorithm().SuggestWithScratch(query, scratch_, &out_, &stats);
  }
  const uint32_t min_depth = suggester_->options().xclean.min_depth;
  std::vector<xclean::TokenId> tokens;
  for (const Suggestion& s : out_) {
    tokens.clear();
    for (const std::string& w : s.words) {
      tokens.push_back(index.vocabulary().Find(w));
    }
    ScopedSpan span(tracer, "lm.result_type", probe.id(), request);
    types_.FindResultType(tokens, min_depth);
    counts_.suggestions++;
  }
  counts_.Add(CoreCounts{0, 0, 0, 0, stats});
}

void ReportCoreLayers(Report& report, const Tracer& tracer,
                      const CoreCounts& counts) {
  const double q = std::max<double>(1.0, static_cast<double>(counts.queries));
  report.Layer("text.variants_us", Mean(tracer.DurationsUs("text.variants")),
               "us");
  report.Layer("text.variants_per_keyword",
               counts.keywords == 0
                   ? 0.0
                   : static_cast<double>(counts.variants) / counts.keywords,
               "count");
  report.Layer("core.parse_us", Mean(tracer.DurationsUs("core.parse")), "us");
  const std::vector<double> eval_us = tracer.DurationsUs("core.eval");
  report.Layer("core.eval_ms_p50", Percentile(eval_us, 0.50) / 1e3, "ms");
  report.Layer("core.eval_ms_p99", Percentile(eval_us, 0.99) / 1e3, "ms");
  report.Info("core.eval_samples", static_cast<double>(eval_us.size()));
  report.Layer("core.subtrees", counts.run.subtrees_processed / q, "count");
  report.Layer("core.occurrences", counts.run.occurrences_collected / q,
               "count");
  report.Layer("core.candidates", counts.run.candidates_enumerated / q,
               "count");
  report.Layer("core.entities_scored", counts.run.entities_scored / q,
               "count");
  report.Layer("core.result_types", counts.run.result_type_computations / q,
               "count");
  report.Layer("core.evictions", counts.run.accumulator_evictions / q,
               "count");
  report.Layer("lm.result_type_us", Mean(tracer.DurationsUs("lm.result_type")),
               "us");
}

std::shared_ptr<const xclean::XCleanSuggester> BuildSuggester(
    const std::string& xml, const xclean::SuggesterOptions& options,
    Tracer* tracer) {
  ScopedSpan setup(tracer, "setup", 0, 0);
  xclean::Result<xclean::XmlTree> tree = [&] {
    ScopedSpan span(tracer, "xml.parse", setup.id(), 0);
    return xclean::ParseXmlString(xml);
  }();
  if (!tree.ok()) {
    std::fprintf(stderr, "ParseXmlString: %s\n",
                 tree.status().ToString().c_str());
    std::exit(3);
  }
  std::unique_ptr<xclean::XmlIndex> index = [&] {
    ScopedSpan span(tracer, "index.build", setup.id(), 0);
    return xclean::XmlIndex::Build(std::move(tree).value(),
                                   BenchIndexOptions());
  }();
  index->set_source_bytes(xml.size());
  ScopedSpan span(tracer, "core.init", setup.id(), 0);
  return std::make_shared<const xclean::XCleanSuggester>(
      xclean::XCleanSuggester::FromIndex(std::move(index), options));
}

void ReportSetupLayers(Report& report, const Tracer& tracer) {
  report.Layer("xml.parse_s", Median(tracer.DurationsUs("xml.parse")) / 1e6,
               "s");
  report.Layer("index.build_s",
               Median(tracer.DurationsUs("index.build")) / 1e6, "s");
}

void ReportIndexMemory(Report& report, const xclean::XCleanSuggester& s) {
  constexpr double kMb = 1024.0 * 1024.0;
  report.Layer("index.memory_mb", s.index().ApproxMemoryBytes() / kMb, "MB");
  const xclean::LmStatsCache* lm = s.algorithm().lm_stats_cache();
  report.Layer("lm.stats_cache_mb",
               lm == nullptr ? 0.0 : lm->ApproxMemoryBytes() / kMb, "MB");
}

}  // namespace perfbench

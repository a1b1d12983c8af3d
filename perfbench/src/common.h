// Shared pieces of the repository benchmark: run context, the report every
// workload fills, seeded corpus and query generation, exact percentiles from
// per-request samples, and the answer comparisons behind the correctness
// checks.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/query.h"
#include "core/query_scratch.h"
#include "core/suggester.h"
#include "core/variant_gen.h"
#include "index/xml_index.h"
#include "lm/result_type.h"
#include "trace.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Latency limit behind `goodput`: an answer counts only when it is OK,
/// untruncated and returned within this many milliseconds.
inline constexpr double kLatencyLimitMs = 10.0;

/// Windows per timed phase whose values ReportRequests prints beside the
/// whole-run metrics, to show how the host's speed moved during the run.
inline constexpr size_t kLatencyWindows = 10;

/// Everything a workload receives from the command line.
struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  /// Scales the fixed request lists; never used as a time box.
  int seconds = 10;
  /// Traced run: spans around every layer call plus the per-layer probes.
  bool trace = false;
  /// Scratch directory inside the checkout (snapshot directories).
  std::string work_dir;
  Tracer* tracer = nullptr;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `e2e` and `layer` are keyed by metric
/// name; `info` holds the sample counts and other context printed beside
/// the metrics.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> info;
  std::vector<std::string> mismatches;

  void E2e(const std::string& name, double value, const char* unit) {
    e2e[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    layer[name] = Metric{value, unit};
  }
  void Info(const std::string& name, const std::string& value) {
    info[name] = value;
  }
  void Info(const std::string& name, double value);
  /// Records a failed correctness check (at most a few are kept verbatim).
  void Mismatch(const std::string& what);
};

/// One generated request: the raw text sent to the system and the clean
/// query it was derived from (the ground truth for MRR).
struct BenchQuery {
  std::string text;
  xclean::Query truth;
};

/// Serialized corpora, generated from the seed. The XML text is what set-up
/// starts from.
std::string DblpXml(uint64_t seed, uint32_t publications);
std::string InexXml(uint64_t seed, uint32_t articles);

/// Index options of every workload: FastSS radius 3 (Table VI, RULE sets).
xclean::IndexOptions BenchIndexOptions();

/// The paper's Table VI settings: max_ed 3 (within the FastSS radius),
/// gamma 1000, the other knobs at their defaults.
xclean::SuggesterOptions TableViOptions();

/// `count` distinct queries sampled from `index`, a third each CLEAN, RAND
/// and RULE, skipping any text already in `seen` (which receives the new
/// ones) — so successive calls draw disjoint lists from one seed stream.
std::vector<BenchQuery> MakeQueries(const xclean::XmlIndex& index,
                                    uint64_t seed, size_t count,
                                    std::unordered_set<std::string>* seen);

/// Exact percentile (nearest rank) of `samples`; sorts a copy.
double Percentile(std::vector<double> samples, double p);
double Mean(const std::vector<double>& samples);

/// Seconds between two steady-clock points, and milliseconds.
inline double Seconds(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double Millis(SteadyClock::time_point a, SteadyClock::time_point b) {
  return Seconds(a, b) * 1e3;
}

/// Median of repeated set-up timings.
double Median(std::vector<double> values);

/// Peak resident set of this process so far, in MB (getrusage).
double PeakRssMb();

/// Same words in the same order, with scores equal (rel_tol 0: bit for
/// bit) or within `rel_tol` relative error. Returns an empty string on a
/// match, else a description of the first difference.
std::string CompareAnswers(const std::vector<xclean::Suggestion>& got,
                           const std::vector<xclean::Suggestion>& want,
                           double rel_tol = 0.0);

/// Runs `body(i)` for i in [0, n) on `threads` threads (untimed reference
/// work; the calling thread takes part).
void ParallelRun(size_t n, size_t threads, const std::function<void(size_t)>& body);

/// Per-request record of a timed phase, filled by each workload.
struct RequestLog {
  /// When the request was issued, and when its answer arrived (or the
  /// request was refused).
  std::vector<SteadyClock::time_point> begin, end;
  /// Answered OK, untruncated and correct.
  std::vector<char> ok;
  /// Reciprocal rank of the clean query in the answer.
  std::vector<double> rr;
  /// Seconds spent after request i, before request i + 1 began, on work
  /// that qps leaves out (inex-live's compaction drains); 0 elsewhere.
  std::vector<double> paused_s;

  explicit RequestLog(size_t n)
      : begin(n), end(n), ok(n, 0), rr(n, 0.0), paused_s(n, 0.0) {}
  size_t size() const { return begin.size(); }
  double LatencyMs(size_t i) const { return Millis(begin[i], end[i]); }
};

/// Fills qps, the latency percentiles, goodput, success_rate and mrr from
/// the log over the whole timed phase, and counts attempted/failed
/// requests. qps leaves the paused_s between requests out of the phase's
/// time; the percentiles are exact over every request's sample. Failed
/// requests count against goodput and success and score 0 for MRR. Each of
/// kLatencyWindows windows of consecutive requests gets its qps, p50 and
/// p99 printed as info.
void ReportRequests(Report& report, const RequestLog& log);

/// Reports `setup_s` as the median of the repeated set-ups, with the count
/// and the spread of the repeats beside it.
void ReportSetup(Report& report, const std::vector<double>& setup_s);

/// Work counted by CoreProbe; per-thread instances are summed.
struct CoreCounts {
  uint64_t queries = 0;
  uint64_t keywords = 0;
  uint64_t variants = 0;
  uint64_t suggestions = 0;
  xclean::XCleanRunStats run;

  void Add(const CoreCounts& o);
};

/// Outside-in timing of the query-cleaning layers for one request, by
/// calling each module's public function directly under its own span:
/// ParseQueryBounded (core.parse), VariantGenerator::Generate per keyword
/// with no memo (text.variants), XClean::SuggestWithScratch on a scratch the
/// probe owns (core.eval) and ResultTypeScorer::FindResultType on each
/// returned suggestion (lm.result_type). One probe per thread.
class CoreProbe {
 public:
  explicit CoreProbe(const xclean::XCleanSuggester& suggester);

  void Run(const std::string& text, Tracer* tracer, uint64_t request);
  const CoreCounts& counts() const { return counts_; }

 private:
  const xclean::XCleanSuggester* suggester_;
  xclean::VariantGenerator variants_;
  xclean::ResultTypeScorer types_;
  xclean::QueryScratch scratch_;
  std::vector<xclean::Suggestion> out_;
  CoreCounts counts_;
};

/// Fills the text.*, core.* and lm.* per-layer metrics from the probe spans
/// and the summed counts.
void ReportCoreLayers(Report& report, const Tracer& tracer,
                      const CoreCounts& counts);

/// Builds a ready-to-serve suggester from corpus XML: the steps of
/// XCleanSuggester::FromXmlString, run one by one as ParseXmlString,
/// XmlIndex::Build and XCleanSuggester::FromIndex under the spans xml.parse,
/// index.build and core.init (no-ops when `tracer` is null), so setup_s
/// times the same code in both modes.
std::shared_ptr<const xclean::XCleanSuggester> BuildSuggester(
    const std::string& xml, const xclean::SuggesterOptions& options,
    Tracer* tracer);

/// xml.parse_s and index.build_s: medians of the traced set-up spans.
void ReportSetupLayers(Report& report, const Tracer& tracer);

/// index.memory_mb and lm.stats_cache_mb of one suggester.
void ReportIndexMemory(Report& report, const xclean::XCleanSuggester& s);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

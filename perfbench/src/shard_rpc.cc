// shard-rpc: the DBLP-like corpus range-partitioned into kShards shards
// (BuildShardedCorpus, gamma 0). Each shard is a ShardServer behind an
// RpcShardServer on loopback; the Coordinator fans out over one
// RpcShardBackend per shard, and one client thread drives a closed loop of
// distinct queries. Fan-out, wire encode/decode, loopback syscalls and
// Coordinator::Merge run only in this workload.
//
// The whole fleet runs on one CPU. Spread over the VM's vCPUs, every leg
// woke a thread on another vCPU, and on a shared host such a wake-up
// waits until the host runs that vCPU again: run-level qps then varied
// from 590 to 2240 and p99 from 1.5 to 9.4 ms on one seed. On one CPU the
// legs run one after another, so latency counts the four shards' work
// plus the wire, not the fan-out's parallel speed-up.
#include <sched.h>

#include <array>
#include <atomic>
#include <mutex>

#include "eval/metrics.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_shard_server.h"
#include "rpc/wire.h"
#include "shard/coordinator.h"
#include "shard/sharded_corpus.h"
#include "workloads.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

namespace shard = xclean::shard;
namespace rpc = xclean::rpc;

constexpr uint32_t kPublications = 20000;
constexpr size_t kShards = 4;
constexpr uint64_t kGeneration = 1;
constexpr size_t kQueriesPerSecond = 2500;
constexpr size_t kWarmupQueries = 1000;
constexpr int kSetupRepeats = 5;
/// Scores may differ from the unsharded oracle by float summation order
/// only; the same tolerance the shard differential test uses.
constexpr double kScoreTolerance = 1e-9;

/// Per-request state shared by the traced run's two taps. One client thread
/// drives the loop and each shard sees one leg at a time, so a slot per
/// shard suffices. `request` is 0 outside the timed loop (nothing traced).
struct LegTable {
  std::atomic<uint64_t> request{0};
  std::atomic<uint64_t> suggest_span{0};
  std::array<std::atomic<uint64_t>, kShards> leg_span{};
  std::array<std::atomic<int64_t>, kShards> leg_ns{};
  std::array<std::atomic<int64_t>, kShards> eval_ns{};
  std::mutex mu;
  std::array<shard::ShardRequest, kShards> requests;
  std::array<shard::ShardResponse, kShards> responses;
};

/// Server side: between RpcShardServer and ShardServer, times the shard's
/// evaluation (shard.eval).
class EvalTap final : public shard::ShardBackend {
 public:
  EvalTap(shard::ShardServer* inner, Tracer* tracer, LegTable* legs)
      : inner_(inner), tracer_(tracer), legs_(legs) {}
  shard::ShardResponse Evaluate(const shard::ShardRequest& request) override {
    const uint32_t s = inner_->shard_id();
    const int64_t t0 = tracer_->NowNs();
    shard::ShardResponse response = inner_->Evaluate(request);
    const int64_t t1 = tracer_->NowNs();
    if (legs_->request.load() == 0) return response;  // warm-up
    tracer_->Record("shard.eval", t0, t1, legs_->leg_span[s].load(),
                    legs_->request.load());
    legs_->eval_ns[s] = t1 - t0;
    return response;
  }

 private:
  shard::ShardServer* inner_;
  Tracer* tracer_;
  LegTable* legs_;
};

/// Client side: between the Coordinator and RpcShardBackend, times each
/// leg (shard.leg) and keeps the messages for the encode/decode and merge
/// probes.
class LegTap final : public shard::ShardBackend {
 public:
  LegTap(uint32_t shard_id, shard::ShardBackend* inner, Tracer* tracer,
         LegTable* legs)
      : shard_id_(shard_id), inner_(inner), tracer_(tracer), legs_(legs) {}
  shard::ShardResponse Evaluate(const shard::ShardRequest& request) override {
    if (legs_->request.load() == 0) return inner_->Evaluate(request);
    const uint64_t id = tracer_->NextId();
    legs_->leg_span[shard_id_] = id;
    const int64_t t0 = tracer_->NowNs();
    shard::ShardResponse response = inner_->Evaluate(request);
    const int64_t t1 = tracer_->NowNs();
    tracer_->Record("shard.leg", t0, t1, legs_->suggest_span.load(),
                    legs_->request.load(), false, id);
    legs_->leg_ns[shard_id_] = t1 - t0;
    std::lock_guard<std::mutex> lock(legs_->mu);
    legs_->requests[shard_id_] = request;
    legs_->responses[shard_id_] = response;
    return response;
  }

 private:
  uint32_t shard_id_;
  shard::ShardBackend* inner_;
  Tracer* tracer_;
  LegTable* legs_;
};

/// Shards, their RPC servers and clients, and the coordinator.
struct Fleet {
  shard::ShardedCorpus corpus;
  std::vector<std::unique_ptr<shard::ShardServer>> shards;
  std::vector<std::unique_ptr<EvalTap>> eval_taps;
  std::vector<std::unique_ptr<rpc::RpcShardServer>> servers;
  std::vector<std::unique_ptr<rpc::RpcShardBackend>> clients;
  std::vector<std::unique_ptr<LegTap>> leg_taps;
  std::unique_ptr<shard::Coordinator> coordinator;

  ~Fleet() {
    coordinator.reset();
    leg_taps.clear();
    clients.clear();
    for (auto& s : servers) s->Shutdown();
  }
};

std::unique_ptr<Fleet> StartFleet(const std::string& xml,
                                  const xclean::XCleanOptions& xopts,
                                  const shard::CoordinatorOptions& copts,
                                  Tracer* tracer, LegTable* legs) {
  auto fleet = std::make_unique<Fleet>();
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
  shard::ShardedCorpusOptions options;
  options.num_shards = kShards;
  options.index = BenchIndexOptions();
  options.xclean = xopts;
  xclean::Result<shard::ShardedCorpus> built = [&] {
    ScopedSpan span(tracer, "index.build", setup.id(), 0);
    return shard::BuildShardedCorpus(tree.value(), options, kGeneration);
  }();
  if (!built.ok()) {
    std::fprintf(stderr, "BuildShardedCorpus: %s\n",
                 built.status().ToString().c_str());
    std::exit(3);
  }
  fleet->corpus = std::move(built).value();
  std::vector<shard::ShardBackend*> backends;
  for (uint32_t s = 0; s < kShards; ++s) {
    fleet->shards.push_back(std::make_unique<shard::ShardServer>(
        s, fleet->corpus.engine, kGeneration));
    shard::ShardBackend* served = fleet->shards.back().get();
    if (tracer != nullptr) {
      fleet->eval_taps.push_back(std::make_unique<EvalTap>(
          fleet->shards.back().get(), tracer, legs));
      served = fleet->eval_taps.back().get();
    }
    rpc::RpcServerOptions sopts;
    sopts.shard_id = s;
    fleet->servers.push_back(
        std::make_unique<rpc::RpcShardServer>(served, sopts));
    const xclean::Status started = fleet->servers.back()->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "RpcShardServer(%u): %s\n", s,
                   started.ToString().c_str());
      std::exit(3);
    }
    fleet->clients.push_back(std::make_unique<rpc::RpcShardBackend>(
        fleet->servers.back()->port(), s));
    shard::ShardBackend* leg = fleet->clients.back().get();
    if (tracer != nullptr) {
      fleet->leg_taps.push_back(
          std::make_unique<LegTap>(s, leg, tracer, legs));
      leg = fleet->leg_taps.back().get();
    }
    backends.push_back(leg);
  }
  fleet->coordinator = std::make_unique<shard::Coordinator>(
      backends, fleet->corpus.stats, xopts, copts);
  return fleet;
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns the CPUs it had.
cpu_set_t PinToOneCpu() {
  cpu_set_t had;
  CPU_ZERO(&had);
  if (sched_getaffinity(0, sizeof(had), &had) != 0) return had;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &had)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    break;
  }
  return had;
}

rpc::RpcClientStats SumClientStats(const Fleet& fleet) {
  rpc::RpcClientStats sum;
  for (const auto& c : fleet.clients) {
    const rpc::RpcClientStats s = c->stats();
    sum.dials += s.dials;
    sum.timeouts += s.timeouts;
    sum.connections_evicted += s.connections_evicted;
  }
  return sum;
}

}  // namespace

Report RunShardRpc(const RunContext& ctx) {
  Report report;
  Tracer* tracer = ctx.tracer;
  const std::string xml = DblpXml(ctx.seed, kPublications);
  xclean::XCleanOptions xopts;
  xopts.max_ed = 3;
  xopts.gamma = 0;  // exactness precondition of the partial-sum merge
  shard::CoordinatorOptions copts;
  copts.fanout_timeout = std::chrono::milliseconds(1000);

  const cpu_set_t all_cpus = PinToOneCpu();
  LegTable legs;
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    fleet.reset();
    const auto t0 = SteadyClock::now();
    fleet = StartFleet(xml, xopts, copts, tracer, &legs);
    setup_s.push_back(Seconds(t0, SteadyClock::now()));
  }
  ReportSetup(report, setup_s);

  // Queries are sampled shard by shard (each shard index covers a slice of
  // the documents) and interleaved, one distinct stream for the run.
  const size_t n = kQueriesPerSecond * static_cast<size_t>(ctx.seconds);
  std::unordered_set<std::string> seen;
  auto sample = [&](uint64_t seed, size_t count) {
    std::vector<std::vector<BenchQuery>> per_shard;
    for (size_t s = 0; s < kShards; ++s) {
      per_shard.push_back(MakeQueries(*fleet->corpus.layers->layers[s].index,
                                      seed + s, (count + kShards - 1) / kShards,
                                      &seen));
    }
    std::vector<BenchQuery> out;
    for (size_t i = 0; out.size() < count; ++i) {
      out.push_back(std::move(per_shard[i % kShards][i / kShards]));
    }
    return out;
  };
  const std::vector<BenchQuery> queries = sample(ctx.seed, n);
  const std::vector<BenchQuery> warmup = sample(ctx.seed + 0x9E37, kWarmupQueries);
  const xclean::Tokenizer& tokenizer =
      fleet->corpus.layers->layers[0].index->tokenizer();

  for (const BenchQuery& q : warmup) {
    fleet->coordinator->Suggest(xclean::ParseQuery(q.text, tokenizer),
                                kGeneration);
  }

  RequestLog log(n);
  std::vector<std::vector<xclean::Suggestion>> answers(n);
  uint64_t failed_legs = 0;
  // Traced-only samples.
  std::vector<double> slowest_leg_ms, merge_us, fanout_us, wire_us, eval_ms,
      encode_us, decode_us, request_bytes, response_bytes, partials;
  std::string wire;
  const rpc::RpcClientStats rpc0 = SumClientStats(*fleet);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t req = i + 1;
    const auto t0 = SteadyClock::now();
    ScopedSpan root(tracer, "request", 0, req);
    const xclean::Query query = xclean::ParseQuery(queries[i].text, tokenizer);
    shard::CoordinatorResult r;
    int64_t suggest_ns = 0;
    {
      ScopedSpan span(tracer, "shard.suggest", root.id(), req);
      legs.request = req;
      legs.suggest_span = span.id();
      const int64_t s0 = tracer == nullptr ? 0 : tracer->NowNs();
      r = fleet->coordinator->Suggest(query, kGeneration);
      if (tracer != nullptr) suggest_ns = tracer->NowNs() - s0;
    }
    root.End();
    log.begin[i] = t0;
    log.end[i] = SteadyClock::now();
    log.ok[i] = r.status.ok() && !r.truncated;
    failed_legs += r.shards_failed + r.shards_stale;
    answers[i] = std::move(r.suggestions);
    if (tracer == nullptr) continue;

    // Probes on the recorded legs: re-run the merge, and encode/decode each
    // recorded request and response.
    ScopedSpan probe(tracer, "probe", 0, req);
    std::vector<shard::ShardOutcome> outcomes(kShards);
    std::vector<shard::ShardRequest> sent(kShards);
    int64_t slowest = 0;
    {
      std::lock_guard<std::mutex> lock(legs.mu);
      for (size_t s = 0; s < kShards; ++s) {
        sent[s] = legs.requests[s];
        outcomes[s].kind = shard::ShardOutcomeKind::kOk;
        outcomes[s].response = legs.responses[s];
        slowest = std::max<int64_t>(slowest, legs.leg_ns[s]);
        wire_us.push_back((legs.leg_ns[s] - legs.eval_ns[s]) / 1e3);
        eval_ms.push_back(legs.eval_ns[s] / 1e6);
        partials.push_back(static_cast<double>(legs.responses[s].partials.size()));
      }
    }
    const int64_t m0 = tracer->NowNs();
    shard::CoordinatorResult merged;
    {
      ScopedSpan span(tracer, "shard.merge", probe.id(), req);
      merged = shard::Coordinator::Merge(*fleet->corpus.stats, xopts, copts,
                                         kGeneration, outcomes);
    }
    const int64_t merge_ns = tracer->NowNs() - m0;
    if (!CompareAnswers(merged.suggestions, answers[i]).empty()) {
      report.Mismatch("'" + queries[i].text +
                      "': Merge re-run differs from Suggest");
      log.ok[i] = 0;
    }
    slowest_leg_ms.push_back(slowest / 1e6);
    merge_us.push_back(merge_ns / 1e3);
    fanout_us.push_back((suggest_ns - slowest - merge_ns) / 1e3);
    for (size_t s = 0; s < kShards; ++s) {
      const auto now = SteadyClock::now();
      shard::ShardRequest decoded_request;
      shard::ShardResponse decoded_response;
      const int64_t e0 = tracer->NowNs();
      {
        ScopedSpan span(tracer, "rpc.encode", probe.id(), req);
        wire.clear();
        rpc::EncodeShardRequest(sent[s], now, wire);
      }
      const int64_t e1 = tracer->NowNs();
      request_bytes.push_back(static_cast<double>(wire.size()));
      {
        ScopedSpan span(tracer, "rpc.decode", probe.id(), req);
        (void)rpc::DecodeShardRequest(wire, now, &decoded_request);
      }
      const int64_t e2 = tracer->NowNs();
      {
        ScopedSpan span(tracer, "rpc.encode", probe.id(), req);
        wire.clear();
        rpc::EncodeShardResponse(outcomes[s].response, wire);
      }
      const int64_t e3 = tracer->NowNs();
      response_bytes.push_back(static_cast<double>(wire.size()));
      {
        ScopedSpan span(tracer, "rpc.decode", probe.id(), req);
        (void)rpc::DecodeShardResponse(wire, &decoded_response);
      }
      const int64_t e4 = tracer->NowNs();
      encode_us.push_back(((e1 - e0) + (e3 - e2)) / 1e3);
      decode_us.push_back(((e2 - e1) + (e4 - e3)) / 1e3);
    }
  }
  const rpc::RpcClientStats rpc1 = SumClientStats(*fleet);
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");

  // Reference: the unsharded gamma = 0 oracle, built after the timed phase
  // and run on all CPUs again.
  sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
  xclean::SuggesterOptions oracle_options;
  oracle_options.xclean = xopts;
  const std::shared_ptr<const xclean::XCleanSuggester> oracle =
      BuildSuggester(xml, oracle_options, nullptr);
  std::vector<std::string> diffs(n);
  ParallelRun(n, 4, [&](size_t i) {
    if (log.ok[i]) {
      diffs[i] = CompareAnswers(answers[i], oracle->Suggest(queries[i].text),
                                 kScoreTolerance);
    }
  });
  size_t mismatched = 0;
  for (size_t i = 0; i < n; ++i) {
    log.rr[i] = xclean::ReciprocalRank(answers[i], queries[i].truth);
    if (diffs[i].empty()) continue;
    ++mismatched;
    log.ok[i] = 0;
    report.Mismatch("'" + queries[i].text + "': " + diffs[i]);
  }
  report.Info("mismatches", static_cast<double>(mismatched));
  ReportRequests(report, log);
  report.Info("shards", static_cast<double>(kShards));

  constexpr double kMb = 1024.0 * 1024.0;
  double index_bytes = 0.0;
  for (const auto& layer : fleet->corpus.layers->layers) {
    index_bytes += static_cast<double>(layer.index->ApproxMemoryBytes());
  }
  report.Layer("index.memory_mb", index_bytes / kMb, "MB");
  report.Layer("shard.failed_legs", static_cast<double>(failed_legs), "count");
  report.Layer("rpc.dials", static_cast<double>(rpc1.dials - rpc0.dials),
               "count");
  report.Layer("rpc.evictions",
               static_cast<double>(rpc1.connections_evicted -
                                   rpc0.connections_evicted),
               "count");
  report.Layer("rpc.timeouts",
               static_cast<double>(rpc1.timeouts - rpc0.timeouts), "count");
  if (tracer != nullptr) {
    report.Layer("shard.eval_ms_p50", Percentile(eval_ms, 0.50), "ms");
    report.Layer("shard.eval_ms_p99", Percentile(eval_ms, 0.99), "ms");
    report.Layer("shard.slowest_leg_ms_p50", Percentile(slowest_leg_ms, 0.50),
                 "ms");
    report.Layer("shard.merge_us", Mean(merge_us), "us");
    report.Layer("shard.fanout_us", Mean(fanout_us), "us");
    report.Layer("shard.partials_per_leg", Mean(partials), "count");
    report.Layer("rpc.encode_us", Mean(encode_us), "us");
    report.Layer("rpc.decode_us", Mean(decode_us), "us");
    report.Layer("rpc.request_bytes", Mean(request_bytes), "bytes");
    report.Layer("rpc.response_bytes", Mean(response_bytes), "bytes");
    report.Layer("rpc.wire_us", Mean(wire_us), "us");
    ReportSetupLayers(report, *tracer);
  }
  return report;
}

}  // namespace perfbench

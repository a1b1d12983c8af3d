// Repository benchmark entry point:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--commit <id>]
//
// Runs one workload, prints the host fingerprint, every metric by name with
// its unit and the sample counts, writes the full report (and, traced, the
// span file) under --out, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics untraced and the per-layer metrics traced
// (only the layers this workload ran; run.py completes the list from
// BENCHMARK.json). Exits 1 when a correctness check failed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workloads.h"

namespace perfbench {
namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // cut at the first NUL
    const size_t b = brand.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : brand.substr(b);
  }
#endif
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string InfoJson(const std::map<std::string, std::string>& info) {
  std::string out = "{";
  for (const auto& [k, v] : info) {
    if (out.size() > 1) out += ", ";
    out += JsonString(k) + ": " + JsonString(v);
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<dblp-typo|inex-live|shard-rpc> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--commit <id>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunContext ctx;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      ctx.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || ctx.workload.empty() || ctx.seconds < 1 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  Report (*run)(const RunContext&) = nullptr;
  if (ctx.workload == "dblp-typo") run = RunDblpTypo;
  if (ctx.workload == "inex-live") run = RunInexLive;
  if (ctx.workload == "shard-rpc") run = RunShardRpc;
  if (run == nullptr) return Usage();

  ctx.trace = trace == 1;
  ctx.work_dir = out_dir + "/work-" + std::to_string(getpid());
  std::error_code error;
  std::filesystem::create_directories(ctx.work_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", ctx.work_dir.c_str(),
                 error.message().c_str());
    return 3;
  }
  Tracer tracer;
  if (ctx.trace) ctx.tracer = &tracer;

  std::map<std::string, std::string> host = {
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu", CpuModel()},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"fault_injection", PERFBENCH_FAULT_INJECTION},
      {"commit", commit},
  };
  std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, trace);
  for (const auto& [k, v] : host) std::printf("host %s=%s\n", k.c_str(), v.c_str());
  std::fflush(stdout);

  Report report = run(ctx);
  std::filesystem::remove_all(ctx.work_dir, error);

  for (const auto& [k, v] : report.info) {
    std::printf("info %s=%s\n", k.c_str(), v.c_str());
  }
  for (const auto& [name, m] : report.e2e) {
    std::printf("metric %-26s %14.6f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string summary_json = "[]";
  if (ctx.trace) {
    for (const auto& [name, m] : report.layer) {
      std::printf("layer  %-26s %14.6f %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
    // Self time per span name, in the order the layers occur along a
    // request (mean start offset from the request's root span).
    std::printf("self time (us, mean per span) by root span, in path "
                "order:\n");
    summary_json = "[";
    std::string root;
    for (const LayerTimes& t : tracer.Summarize()) {
      if (t.root != root) {
        root = t.root;
        std::printf("  [%s]\n", root.c_str());
      }
      std::printf("    %-18s n=%-7zu offset=%10.1f  total=%10.1f  "
                  "self=%10.1f\n",
                  t.name.c_str(), t.count, t.mean_offset_us, t.mean_us,
                  t.mean_self_us);
      if (summary_json.size() > 1) summary_json += ", ";
      summary_json += "{\"root\": " + JsonString(t.root) +
                      ", \"name\": " + JsonString(t.name) +
                      ", \"count\": " + std::to_string(t.count) +
                      ", \"offset_us\": " + JsonNumber(t.mean_offset_us) +
                      ", \"mean_us\": " + JsonNumber(t.mean_us) +
                      ", \"self_us\": " + JsonNumber(t.mean_self_us) + "}";
    }
    summary_json += "]";
    const std::string spans = out_dir + "/" + ctx.workload + "-seed" +
                              std::to_string(ctx.seed) + ".spans.jsonl";
    if (!tracer.WriteJsonLines(spans)) {
      std::fprintf(stderr, "could not write %s\n", spans.c_str());
      return 3;
    }
    std::printf("spans %zu written to %s\n", tracer.size(), spans.c_str());
  }
  for (const std::string& m : report.mismatches) {
    std::printf("MISMATCH %s\n", m.c_str());
  }

  const std::string report_path = out_dir + "/" + ctx.workload + "-seed" +
                                  std::to_string(ctx.seed) + "-trace" +
                                  std::to_string(trace) + ".json";
  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
                 "\"trace\": %d, \"correct\": %s, \"attempted\": %llu, "
                 "\"failed\": %llu, \"host\": %s, \"info\": %s, "
                 "\"end_to_end\": %s, \"per_layer\": %s, \"self_time\": %s}\n",
                 JsonString(ctx.workload).c_str(),
                 static_cast<unsigned long long>(ctx.seed), ctx.seconds, trace,
                 report.correct ? "true" : "false",
                 static_cast<unsigned long long>(report.attempted),
                 static_cast<unsigned long long>(report.failed),
                 InfoJson(host).c_str(), InfoJson(report.info).c_str(),
                 MetricsJson(report.e2e).c_str(),
                 ctx.trace ? MetricsJson(report.layer).c_str() : "{}",
                 summary_json.c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(ctx.trace ? report.layer : report.e2e).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

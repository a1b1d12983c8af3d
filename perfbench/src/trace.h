// In-memory span recorder for the traced benchmark run. Spans are taken
// around calls into the library's public functions from the benchmark's own
// code (nothing inside the library is instrumented), kept in memory while
// the workload runs, and written out as JSON lines when it ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;  ///< relative to the tracer's origin
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = a root span
  uint64_t request = 0;  ///< shared by every span of one request
  /// True when the interval was reconstructed from a duration the library
  /// reported (e.g. ServeResult::compute_ms) rather than clocked directly.
  bool derived = false;
};

/// Per-name aggregate over all recorded spans, grouped by the name of the
/// root span they hang under ("request", "probe", "setup", ...).
struct LayerTimes {
  std::string root;
  std::string name;
  size_t count = 0;
  double mean_us = 0.0;
  /// Span time not covered by its child spans.
  double mean_self_us = 0.0;
  /// Mean start offset from the request's root span: the position of the
  /// layer along the request's path.
  double mean_offset_us = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  int64_t ToNs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  int64_t NowNs() const { return ToNs(std::chrono::steady_clock::now()); }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span under a pre-allocated id (or a fresh one when
  /// `id` is 0); returns the id.
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent, uint64_t request, bool derived = false,
                  uint64_t id = 0);

  /// Aggregates by (root name, span name); within a root, ordered along the
  /// path (mean start offset from the root span).
  std::vector<LayerTimes> Summarize() const;
  /// All spans recorded under `name`, as durations in microseconds.
  std::vector<double> DurationsUs(const char* name) const;

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;
  size_t size() const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op, so untraced runs pay one
/// branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request)
      : tracer_(tracer), name_(name), parent_(parent), request_(request) {
    if (tracer_ != nullptr) {
      id_ = tracer_->NextId();
      start_ns_ = tracer_->NowNs();
    }
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (tracer_ == nullptr || ended_) return;
    ended_ = true;
    tracer_->Record(name_, start_ns_, tracer_->NowNs(), parent_, request_,
                    false, id_);
  }
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_ = 0;
  int64_t start_ns_ = 0;
  bool ended_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

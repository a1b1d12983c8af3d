#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

uint64_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                        uint64_t parent, uint64_t request, bool derived,
                        uint64_t id) {
  if (id == 0) id = NextId();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, std::max(start_ns, end_ns), id, parent,
                        request, derived});
  return id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::DurationsUs(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  const std::string want(name);
  for (const Span& s : spans_) {
    if (want == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::vector<LayerTimes> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) by_id[spans_[i].id] = i;

  // Children intervals per parent, for self time = duration minus the part
  // of the span's interval that its children cover (children may overlap,
  // e.g. parallel shard legs, so the union is taken).
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : spans_) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  auto root_of = [&](const Span& s) {
    const Span* cur = &s;
    for (int hops = 0; cur->parent != 0 && hops < 64; ++hops) {
      auto it = by_id.find(cur->parent);
      if (it == by_id.end()) break;
      cur = &spans_[it->second];
    }
    return cur;
  };

  struct Acc {
    LayerTimes t;
    double total_sum = 0.0;
    double self_sum = 0.0;
    double offset_sum = 0.0;
  };
  std::map<std::pair<std::string, std::string>, Acc> acc;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_b = 0, cur_e = -1;
      for (auto [b, e] : iv) {
        b = std::max(b, s.start_ns);
        e = std::min(e, s.end_ns);
        if (e <= b) continue;
        if (cur_e < b) {
          if (cur_e > cur_b) covered += cur_e - cur_b;
          cur_b = b;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (cur_e > cur_b) covered += cur_e - cur_b;
    }
    const double dur_us = (s.end_ns - s.start_ns) / 1e3;
    const Span* root = root_of(s);
    Acc& a = acc[{root->name, s.name}];
    a.t.root = root->name;
    a.t.name = s.name;
    a.t.count++;
    a.total_sum += dur_us;
    a.self_sum += dur_us - covered / 1e3;
    a.offset_sum += (s.start_ns - root->start_ns) / 1e3;
  }
  std::vector<LayerTimes> out;
  for (auto& [key, a] : acc) {
    const double n = static_cast<double>(a.t.count);
    a.t.mean_us = a.total_sum / n;
    a.t.mean_self_us = a.self_sum / n;
    a.t.mean_offset_us = a.offset_sum / n;
    out.push_back(std::move(a.t));
  }
  std::sort(out.begin(), out.end(), [](const LayerTimes& x, const LayerTimes& y) {
    if (x.root != y.root) return x.root > y.root;  // "request" first
    if (x.name == x.root) return y.name != y.root;  // the root span leads
    if (y.name == y.root) return false;
    return x.mean_offset_us < y.mean_offset_us;
  });
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"derived\":%s}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 s.derived ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

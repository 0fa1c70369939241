// In-memory span recorder for the traced run.
//
// A span is one call from the benchmark into a layer's public entry point:
// its name ("<layer>.<call>"), start and end on the steady clock, the span
// that caused it (its parent) and the request it belongs to. Each client
// thread owns one SpanLog, so recording takes no lock; the logs are merged
// and written out once the run has ended.
#ifndef STAGEDB_PERFBENCH_SPANS_H_
#define STAGEDB_PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;    // "<layer>.<call>", a string literal
  int32_t parent;      // index in the same SpanLog, -1 for a root
  int64_t request;     // request id shared by every span of one statement
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  /// Opens a span and returns its index; close it with End.
  int32_t Begin(const char* name, int64_t request, int32_t parent = -1) {
    spans_.push_back({name, parent, request, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) { spans_[index].end_ns = NowNs(); }

  /// Closes span `index` and returns its duration in nanoseconds.
  int64_t EndAndGet(int32_t index) {
    End(index);
    return spans_[index].end_ns - spans_[index].start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// The layer a span belongs to: its name up to the first '.'.
inline std::string LayerOf(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

/// Self time per layer, in nanoseconds, summed over every span of the logs:
/// a span's duration minus the part of it that its children cover.
inline std::map<std::string, int64_t> SelfTimeByLayer(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, int64_t> self;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t cursor = s.start_ns;
      for (const auto& [lo, hi] : kids) {
        const int64_t from = std::max(lo, cursor);
        const int64_t to = std::min(hi, s.end_ns);
        if (to > from) covered += to - from;
        cursor = std::max(cursor, hi);
      }
      self[LayerOf(s.name)] += (s.end_ns - s.start_ns) - covered;
    }
  }
  return self;
}

/// Writes every span as one CSV line: thread,name,request,parent,start,end
/// (times in ns relative to `origin_ns`). Returns false if the file cannot be
/// written.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs,
                       int64_t origin_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,name,request,parent,start_ns,end_ns\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      std::fprintf(f, "%zu,%s,%lld,%d,%lld,%lld\n", t, s.name,
                   static_cast<long long>(s.request), s.parent,
                   static_cast<long long>(s.start_ns - origin_ns),
                   static_cast<long long>(s.end_ns - origin_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // STAGEDB_PERFBENCH_SPANS_H_

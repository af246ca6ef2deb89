#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "stats.h"

namespace perfbench {

int SpanRecorder::Begin(const std::string& name, int parent, int64_t item) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  return Add(name, parent, now, now, item);
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

int SpanRecorder::Add(const std::string& name, int parent, int64_t start_ns,
                      int64_t end_ns, int64_t item) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, item});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

/// Children of every span, by index.
std::vector<std::vector<int>> ChildLists(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size()) {
      children[static_cast<size_t>(parent)].push_back(static_cast<int>(i));
    }
  }
  return children;
}

/// Length of the union of \p intervals clipped to [lo, hi].
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

}  // namespace

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  const std::vector<std::vector<int>> children = ChildLists(spans);
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>> intervals;
    intervals.reserve(children[i].size());
    for (const int c : children[i]) {
      const Span& child = spans[static_cast<size_t>(c)];
      intervals.emplace_back(child.start_ns, child.end_ns);
    }
    self[i] = spans[i].duration_ns() -
              UnionLength(std::move(intervals), spans[i].start_ns,
                          spans[i].end_ns);
  }
  return self;
}

int64_t TotalNs(const std::vector<Span>& spans, const std::string& name) {
  int64_t total = 0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.duration_ns();
  }
  return total;
}

double LeafCoverage(const std::vector<Span>& spans, int root) {
  if (root < 0 || static_cast<size_t>(root) >= spans.size()) return 0.0;
  const int64_t duration = spans[static_cast<size_t>(root)].duration_ns();
  if (duration <= 0) return 0.0;
  const std::vector<std::vector<int>> children = ChildLists(spans);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  int64_t uncovered = 0;
  std::vector<int> stack = {root};
  while (!stack.empty()) {
    const int index = stack.back();
    stack.pop_back();
    const std::vector<int>& kids = children[static_cast<size_t>(index)];
    if (kids.empty()) continue;  // A leaf: its time is covered.
    uncovered += self[static_cast<size_t>(index)];
    stack.insert(stack.end(), kids.begin(), kids.end());
  }
  return 1.0 - static_cast<double>(uncovered) / static_cast<double>(duration);
}

bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t epoch = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start_ns < epoch) epoch = spans[i].start_ns;
  }
  std::fputs("[\n", out);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f,"
                 "\"parent\":%d,\"item\":%lld}%s\n",
                 s.name.c_str(),
                 static_cast<double>(s.start_ns - epoch) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3, s.parent,
                 static_cast<long long>(s.item),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench

// In-memory span recorder for the traced run. Spans are taken around the
// benchmark's own calls into each module's public functions; nothing
// inside the program is instrumented.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// \brief One timed interval. Times are steady-clock nanoseconds.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the span that caused this one, -1 for a root.
  int parent = -1;
  /// Pair or request id the span works on, -1 when none.
  int64_t item = -1;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// \brief Thread-safe span store. A disabled recorder records nothing and
/// returns -1 from every call, so untraced runs pay one branch per site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index (or -1 when disabled).
  int Begin(const std::string& name, int parent = -1, int64_t item = -1);
  /// Closes span \p index now (no-op for -1).
  void End(int index);
  /// Records a finished span with explicit times.
  int Add(const std::string& name, int parent, int64_t start_ns,
          int64_t end_ns, int64_t item = -1);

  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// \brief RAII span: Begin in the constructor, End in the destructor.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int parent = -1,
             int64_t item = -1)
      : recorder_(recorder), index_(recorder->Begin(name, parent, item)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers (children may overlap when they
/// ran on different threads).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Total duration of the spans named \p name.
int64_t TotalNs(const std::vector<Span>& spans, const std::string& name);

/// Share of root span \p root's duration spent inside leaf spans (spans
/// with no children) below it: 1 minus the self time of \p root and of
/// every non-leaf descendant, over the root's duration.
double LeafCoverage(const std::vector<Span>& spans, int root);

/// Writes the spans as a JSON array of {name, start_us, dur_us, parent,
/// item}, times relative to the earliest span.
bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

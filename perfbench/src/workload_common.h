// Pieces every workload shares: options, the result report, the per-layer
// metric catalog, input set-up, and the probe helper.
#ifndef PERFBENCH_WORKLOAD_COMMON_H_
#define PERFBENCH_WORKLOAD_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "coach/coach_config.h"
#include "common/status.h"
#include "data/dataset.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

/// Corpus size of every workload: the paper's 52k Alpaca pairs.
inline constexpr size_t kCorpusSize = 52000;
/// Pairs sampled by the expert study (the paper's 6k).
inline constexpr size_t kStudySample = 6000;
/// Width of the ExecutionContext the batch stages run on.
inline constexpr size_t kThreads = 4;

/// \brief Command-line options of one invocation.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Work directory holding the set-up outputs and run artifacts.
  std::string dir;
  /// The coachlm CLI binary (serve workload).
  std::string coachlm;
  /// Where the traced run writes its spans (JSON).
  std::string trace_out;

  std::string CorpusPath() const { return dir + "/corpus.jsonl"; }
  std::string CheckpointPath() const { return dir + "/coach.json"; }
  std::string OutPath(const std::string& name) const {
    return dir + "/" + name;
  }
};

/// The coach configuration of `coachlm revise`/`train` defaults: paper
/// scale, alpha = 0.3, chatglm2 backbone, compiled rules.
coachlm::coach::CoachConfig BenchCoachConfig();

/// \brief What one invocation reports: counts, correctness, and metrics.
class Report {
 public:
  void Metric(const std::string& name, double value) {
    metrics_[name] = value;
  }
  void Attempt(uint64_t n) { attempted_ += n; }
  /// Counts \p n failed operations and logs why.
  void Fail(uint64_t n, const std::string& why);
  /// A diagnostic line on stderr (the human-readable run log).
  static void Note(const std::string& line);
  /// Time to add to the set-up processes' wall time for setup_s: work
  /// the run process does before its first timed operation.
  void AddSetupSeconds(double s) { setup_extra_s_ += s; }

  /// Adds, as 0, every metric of this run's catalog (per-layer when traced,
  /// end-to-end otherwise) that the run did not measure, so each run prints
  /// the full set; a traced run also gets fail_ratio.
  void FillUnmeasured(bool trace);
  /// Emits calls / busy_s / p50_us / p99_us of the spans named \p name,
  /// limited to the suffixes the catalog lists for that name.
  void SpanMetrics(const std::vector<Span>& spans, const std::string& name);

  /// One JSON line: correct, attempted, failed, setup_extra_s, metrics.
  std::string ToJson() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  double setup_extra_s_ = 0.0;
  std::map<std::string, double> metrics_;
};

/// \brief One catalog entry: metric name and unit.
struct MetricDef {
  const char* name;
  const char* unit;
};
/// End-to-end metrics printed by untraced runs (BENCHMARK.json end_to_end;
/// setup_s is added by run.py).
const std::vector<MetricDef>& EndToEndCatalog();
/// Per-layer metrics printed by traced runs (BENCHMARK.json per_layer).
const std::vector<MetricDef>& PerLayerCatalog();

/// Generates the seeded corpus into the work directory; with
/// \p with_checkpoint also runs the study on it and trains the paper-scale
/// coach checkpoint the revise and serve workloads load.
coachlm::Status SetUp(const Options& options, bool with_checkpoint);

/// \p count distinct indices below \p n, drawn from \p seed.
std::vector<size_t> SampleIndices(uint64_t seed, size_t n, size_t count);

/// Times fn(i) for i in [0, count): one span named \p name per call under
/// \p parent, whose item is the id fn returns.
template <typename Fn>
void Probe(SpanRecorder* spans, const std::string& name, int parent,
           size_t count, Fn fn) {
  for (size_t i = 0; i < count; ++i) {
    const int64_t t0 = NowNs();
    const int64_t item = fn(i);
    spans->Add(name, parent, t0, NowNs(), item);
  }
}

/// Workload entry points: run the timed section (untraced) or the traced
/// run with its probes, filling \p report.
coachlm::Status RunReviseBatch(const Options& options, Report* report);
coachlm::Status RunCoachTuning(const Options& options, Report* report);
coachlm::Status RunServeOpenLoop(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_COMMON_H_

// coach_tuning: the `coachlm study` + `coachlm train` flow. LoadCorpus ->
// RunRevisionStudy over 6,000 sampled pairs -> SaveRevisions ->
// LoadRevisions -> CoachTrainer::Train -> SaveCheckpoint.

#include <malloc.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "coach/coach_lm.h"
#include "coach/trainer.h"
#include "common/execution.h"
#include "data/corpus_io.h"
#include "data/revision_io.h"
#include "expert/pipeline.h"
#include "synth/content_engine.h"
#include "text/edit_distance.h"
#include "workload_common.h"

namespace perfbench {

using namespace coachlm;

namespace {

constexpr size_t kMinCycles = 3;

struct Cycle {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t checkpoint_hash = 0;
  RevisionDataset study_revisions;
  RevisionDataset loaded_revisions;
};

/// One study + train cycle, each public call in its own span.
Result<Cycle> RunCycle(const Options& options, const ExecutionContext& exec,
                       SpanRecorder* spans, int parent) {
  Cycle cycle;
  const std::string revisions_path = options.OutPath("revisions.jsonl");
  const std::string checkpoint_path = options.OutPath("tuned.json");
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  Result<InstructionDataset> corpus = [&] {
    const ScopedSpan span(spans, "data.load_corpus", parent);
    return LoadCorpus(options.CorpusPath());
  }();
  if (!corpus.ok()) return corpus.status();
  {
    const ScopedSpan span(spans, "expert.study", parent);
    synth::ContentEngine engine;
    expert::RevisionStudyConfig config;
    config.sample_size = kStudySample;
    config.seed = options.seed;
    cycle.study_revisions =
        expert::RunRevisionStudy(*corpus, engine, config, {}, exec).revisions;
  }
  {
    const ScopedSpan span(spans, "data.revisions.save", parent);
    COACHLM_RETURN_NOT_OK(SaveRevisions(revisions_path, cycle.study_revisions));
  }
  Result<RevisionDataset> loaded = [&] {
    const ScopedSpan span(spans, "data.revisions.load", parent);
    return LoadRevisions(revisions_path);
  }();
  if (!loaded.ok()) return loaded.status();
  cycle.loaded_revisions = std::move(loaded).ValueOrDie();
  const coach::CoachLm model = [&] {
    const ScopedSpan span(spans, "coach.train", parent);
    return coach::CoachTrainer(BenchCoachConfig())
        .Train(cycle.loaded_revisions);
  }();
  {
    const ScopedSpan span(spans, "coach.save_checkpoint", parent);
    COACHLM_RETURN_NOT_OK(model.SaveCheckpoint(checkpoint_path));
  }
  cycle.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  cycle.cpu_s = ProcessCpuSeconds() - cpu0;
  const auto hash = HashFile(checkpoint_path);
  if (!hash) {
    return Status::IoError("perfbench: cannot read " + checkpoint_path);
  }
  cycle.checkpoint_hash = *hash;
  return cycle;
}

/// The revision records must survive the save/load round trip.
void CheckRoundTrip(const Cycle& cycle, Report* report) {
  report->Attempt(cycle.study_revisions.size());
  size_t bad = cycle.study_revisions.size() == cycle.loaded_revisions.size()
                   ? 0
                   : cycle.study_revisions.size();
  for (size_t i = 0; bad == 0 && i < cycle.study_revisions.size(); ++i) {
    const RevisionRecord& a = cycle.study_revisions[i];
    const RevisionRecord& b = cycle.loaded_revisions[i];
    if (!(a.original == b.original) || !(a.revised == b.revised) ||
        a.char_edit_distance != b.char_edit_distance) {
      ++bad;
    }
  }
  if (bad > 0) report->Fail(bad, "revision records changed across save/load");
}

Status Untraced(const Options& options, Report* report) {
  const ExecutionContext exec(kThreads);
  SpanRecorder off(false);
  std::vector<double> walls;
  std::vector<double> peaks;
  Cycle first;
  const int64_t start = NowNs();
  while (walls.size() < kMinCycles ||
         static_cast<double>(NowNs() - start) / 1e9 < options.seconds) {
    malloc_trim(0);
    ResetPeakRss();
    Result<Cycle> cycle = RunCycle(options, exec, &off, -1);
    if (!cycle.ok()) return cycle.status();
    peaks.push_back(PeakRssMb());
    report->Attempt(kStudySample);
    const double wall = cycle->wall_s;
    if (walls.empty()) {
      first = std::move(cycle).ValueOrDie();
      CheckRoundTrip(first, report);
    } else if (cycle->checkpoint_hash != first.checkpoint_hash) {
      report->Fail(kStudySample, "cycle " + std::to_string(walls.size()) +
                                     " checkpoint bytes differ from cycle 0");
    }
    walls.push_back(wall);
  }

  // The derived fields (the character edit distance) recompute to the
  // values the study stored.
  for (const RevisionRecord& record : first.study_revisions) {
    RevisionRecord copy = record;
    copy.RecomputeDerived();
    report->Attempt(1);
    if (copy.char_edit_distance != record.char_edit_distance) {
      report->Fail(1, "recomputed edit distance differs for pair " +
                          std::to_string(record.original.id));
    }
  }

  const double wall = Median(walls);
  Report::Note("study+train cycles: " + std::to_string(walls.size()) +
               ", median wall " + std::to_string(wall) + " s; " +
               std::to_string(first.study_revisions.size()) +
               " revision records");
  report->Metric("wall_s", wall);
  report->Metric("pairs_per_s", static_cast<double>(kStudySample) / wall);
  std::string peak_list;
  for (const double p : peaks) peak_list += " " + std::to_string(p);
  Report::Note("per-job peak RSS (MB):" + peak_list);
  std::string wall_list;
  for (const double w : walls) wall_list += " " + std::to_string(w);
  Report::Note("per-job wall (s):" + wall_list);
  // The median over jobs of each job's own peak: before each job the heap
  // returns freed memory (malloc_trim) and VmHWM is reset. The peak of a
  // single job moves by 10-20% with allocator timing.
  report->Metric("peak_rss_mb", Median(peaks));
  return Status::OK();
}

Status Traced(const Options& options, Report* report) {
  const ExecutionContext exec(kThreads);
  SpanRecorder off(false);
  Result<Cycle> plain = RunCycle(options, exec, &off, -1);
  if (!plain.ok()) return plain.status();

  SpanRecorder spans(true);
  const int root = spans.Begin("trace");
  const int job = spans.Begin("coach_tuning.job", root);
  Result<Cycle> traced = RunCycle(options, exec, &spans, job);
  spans.End(job);
  if (!traced.ok()) return traced.status();

  // Character edit distance on both sides of every revision record.
  const RevisionDataset& records = traced->study_revisions;
  std::vector<std::pair<std::string, std::string>> sides;
  sides.reserve(2 * records.size());
  double cells = 0.0;
  for (const RevisionRecord& r : records) {
    sides.emplace_back(r.original.FullInstruction(),
                       r.revised.FullInstruction());
    sides.emplace_back(r.original.output, r.revised.output);
  }
  for (const auto& [a, b] : sides) {
    cells += static_cast<double>(a.size()) * static_cast<double>(b.size());
  }
  std::vector<size_t> distances(sides.size());
  Probe(&spans, "text.char_distance", root, sides.size(), [&](size_t i) {
    distances[i] = editdist::CharDistance(sides[i].first, sides[i].second);
    return static_cast<int64_t>(records[i / 2].original.id);
  });
  spans.End(root);
  // The tracing overhead compares the traced cycle with a warm untraced one.
  Result<Cycle> warm = RunCycle(options, exec, &off, -1);
  if (!warm.ok()) return warm.status();

  report->Attempt(kStudySample);
  if (traced->checkpoint_hash != plain->checkpoint_hash) {
    report->Fail(kStudySample,
                 "traced checkpoint bytes differ from the untraced run");
  }
  CheckRoundTrip(*traced, report);
  for (size_t i = 0; i < records.size(); ++i) {
    report->Attempt(1);
    if (distances[2 * i] + distances[2 * i + 1] !=
        records[i].char_edit_distance) {
      report->Fail(1, "probe edit distance differs for pair " +
                          std::to_string(records[i].original.id));
    }
  }

  const std::vector<Span> all = spans.spans();
  for (const char* name : {"data.load_corpus", "expert.study", "coach.train",
                           "coach.save_checkpoint", "text.char_distance"}) {
    report->SpanMetrics(all, name);
  }
  report->Metric("data.revisions.save_s",
                 static_cast<double>(TotalNs(all, "data.revisions.save")) /
                     1e9);
  report->Metric("data.revisions.load_s",
                 static_cast<double>(TotalNs(all, "data.revisions.load")) /
                     1e9);
  report->Metric("data.load_corpus.records", static_cast<double>(kCorpusSize));
  std::error_code ec;
  report->Metric("data.load_corpus.bytes",
                 static_cast<double>(
                     std::filesystem::file_size(options.CorpusPath(), ec)));
  report->Metric("text.char_distance.cells", cells);
  report->Metric("process.cpu_util",
                 warm->cpu_s / (warm->wall_s * static_cast<double>(kThreads)));
  report->Metric("trace.overhead_ratio", traced->wall_s / warm->wall_s - 1.0);
  report->Metric("trace.coverage_ratio", LeafCoverage(all, root));
  if (!options.trace_out.empty() && !WriteSpansJson(all, options.trace_out)) {
    return Status::IoError("perfbench: cannot write " + options.trace_out);
  }
  return Status::OK();
}

}  // namespace

Status RunCoachTuning(const Options& options, Report* report) {
  return options.trace ? Traced(options, report) : Untraced(options, report);
}

}  // namespace perfbench

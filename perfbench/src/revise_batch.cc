// revise_batch: the paper's deployment job. LoadCorpus -> LoadCheckpoint ->
// ReviseDataset -> SaveCorpus over the 52k JSONL corpus, the same calls
// `coachlm revise` makes, on a 4-wide ExecutionContext.

#include <malloc.h>

#include <filesystem>
#include <string>
#include <vector>

#include "coach/coach_lm.h"
#include "common/execution.h"
#include "data/corpus_io.h"
#include "lm/pair_text.h"
#include "serve_requests.h"
#include "workload_common.h"

namespace perfbench {

using namespace coachlm;

namespace {

constexpr size_t kReplayPairs = 1200;
constexpr size_t kProbePairs = 2000;
constexpr size_t kRoundTripPairs = 5000;
constexpr size_t kServeRequests = 1500;
constexpr size_t kMinPasses = 3;

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t out_hash = 0;
  InstructionDataset revised;
};

/// One revise job, with each public call in its own span under \p parent.
Result<Pass> RunPass(const Options& options, const ExecutionContext& exec,
                     SpanRecorder* spans, int parent) {
  Pass pass;
  const std::string out = options.OutPath("revised.jsonl");
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  Result<InstructionDataset> corpus = [&] {
    const ScopedSpan span(spans, "data.load_corpus", parent);
    return LoadCorpus(options.CorpusPath());
  }();
  if (!corpus.ok()) return corpus.status();
  Result<coach::CoachLm> model = [&] {
    const ScopedSpan span(spans, "lm.load_checkpoint", parent);
    return coach::CoachLm::LoadCheckpoint(options.CheckpointPath(),
                                          BenchCoachConfig());
  }();
  if (!model.ok()) return model.status();
  {
    const ScopedSpan span(spans, "coach.revise_dataset", parent);
    pass.revised = model->ReviseDataset(*corpus, {}, nullptr, exec);
  }
  {
    const ScopedSpan span(spans, "data.save_corpus", parent);
    COACHLM_RETURN_NOT_OK(SaveCorpus(out, pass.revised));
  }
  pass.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  const auto hash = HashFile(out);
  if (!hash) return Status::IoError("perfbench: cannot read " + out);
  pass.out_hash = *hash;
  return pass;
}

Status Untraced(const Options& options, Report* report) {
  const ExecutionContext exec(kThreads);
  SpanRecorder off(false);
  // Only the replayed pairs' batch outputs are kept across passes, so the
  // peak RSS is that of one revise job.
  const std::vector<size_t> picks =
      SampleIndices(MixSeed(options.seed, 0x7e91a7), kCorpusSize, kReplayPairs);
  std::vector<InstructionPair> batch_output;
  std::vector<double> walls;
  std::vector<double> peaks;
  uint64_t first_hash = 0;
  size_t corpus_size = 0;
  const int64_t start = NowNs();
  while (walls.size() < kMinPasses ||
         static_cast<double>(NowNs() - start) / 1e9 < options.seconds) {
    malloc_trim(0);
    ResetPeakRss();
    Result<Pass> pass = RunPass(options, exec, &off, -1);
    if (!pass.ok()) return pass.status();
    peaks.push_back(PeakRssMb());
    report->Attempt(pass->revised.size());
    if (walls.empty()) {
      first_hash = pass->out_hash;
      corpus_size = pass->revised.size();
      for (const size_t index : picks) {
        if (index < corpus_size) batch_output.push_back(pass->revised[index]);
      }
    } else if (pass->out_hash != first_hash) {
      report->Fail(pass->revised.size(),
                   "pass " + std::to_string(walls.size()) +
                       " output differs from pass 0");
    }
    walls.push_back(pass->wall_s);
  }

  // Replay a seeded subsample one pair at a time through CoachLm::Revise
  // with the per-id stream, as `coachlm serve` does: each must equal the
  // batch output.
  Result<coach::CoachLm> model = coach::CoachLm::LoadCheckpoint(
      options.CheckpointPath(), BenchCoachConfig());
  if (!model.ok()) return model.status();
  Result<InstructionDataset> corpus = LoadCorpus(options.CorpusPath());
  if (!corpus.ok()) return corpus.status();
  if (batch_output.size() != picks.size() || corpus->size() != corpus_size) {
    return Status::FailedPrecondition(
        "perfbench: corpus smaller than expected");
  }
  for (size_t i = 0; i < picks.size(); ++i) {
    const InstructionPair& pair = (*corpus)[picks[i]];
    Rng rng = DeriveRng(model->config().seed, pair.id);
    report->Attempt(1);
    if (!(model->Revise(pair, &rng) == batch_output[i])) {
      report->Fail(1, "replayed pair " + std::to_string(pair.id) +
                          " differs from the batch output");
    }
  }

  const double wall = Median(walls);
  Report::Note("revise passes: " + std::to_string(walls.size()) +
               ", median wall " + std::to_string(wall) + " s");
  report->Metric("wall_s", wall);
  report->Metric("pairs_per_s", static_cast<double>(corpus_size) / wall);
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
  // A first untraced pass warms the process up and gives the reference
  // output; probe inputs are prepared before the traced section opens.
  Result<Pass> plain = RunPass(options, exec, &off, -1);
  if (!plain.ok()) return plain.status();
  Result<coach::CoachLm> model = coach::CoachLm::LoadCheckpoint(
      options.CheckpointPath(), BenchCoachConfig());
  if (!model.ok()) return model.status();
  Result<InstructionDataset> corpus = LoadCorpus(options.CorpusPath());
  if (!corpus.ok()) return corpus.status();
  const std::vector<size_t> picks = SampleIndices(
      MixSeed(options.seed, 0x9b0be), corpus->size(), kRoundTripPairs);
  const lm::BackboneModel& backbone = model->backbone();
  // The serve layer's inputs: the requests `coachlm serve` would get for
  // the probe pairs, and their expected bodies from the batch output.
  InstructionDataset pool;
  InstructionDataset revised_pool;
  for (size_t i = 0; i < kProbePairs; ++i) {
    pool.Add((*corpus)[picks[i]]);
    revised_pool.Add(plain->revised[picks[i]]);
  }
  const RequestSet requests = BuildRequests(pool, options.seed, kServeRequests);
  const std::vector<uint64_t> expected = ExpectedHashes(revised_pool, requests);

  SpanRecorder spans(true);
  const int root = spans.Begin("trace");
  const int job = spans.Begin("revise_batch.job", root);
  Result<Pass> traced = RunPass(options, exec, &spans, job);
  spans.End(job);
  if (!traced.ok()) return traced.status();

  coach::RevisionPassStats stats;
  std::vector<InstructionPair> revised(kProbePairs);
  Probe(&spans, "coach.revise", root, kProbePairs, [&](size_t i) {
    const InstructionPair& pair = (*corpus)[picks[i]];
    Rng rng = DeriveRng(model->config().seed, pair.id);
    revised[i] = model->Revise(pair, &rng, &stats);
    return static_cast<int64_t>(pair.id);
  });
  Probe(&spans, "lm.backbone.agreement", root, kProbePairs, [&](size_t i) {
    const InstructionPair& pair = (*corpus)[picks[i]];
    (void)backbone.TopicalAgreement(pair.FullInstruction(), pair.output);
    return static_cast<int64_t>(pair.id);
  });
  size_t hits = 0;
  Probe(&spans, "lm.backbone.retrieve", root, kProbePairs, [&](size_t i) {
    const InstructionPair& pair = (*corpus)[picks[i]];
    if (!backbone
             .RetrieveRelevant(pair.FullInstruction() + "\n" + pair.input,
                               pair.output, 3)
             .empty()) {
      ++hits;
    }
    return static_cast<int64_t>(pair.id);
  });
  std::vector<Result<InstructionPair>> round_trips;
  round_trips.reserve(picks.size());
  Probe(&spans, "lm.pair_text.round_trip", root, picks.size(), [&](size_t i) {
    const InstructionPair& pair = (*corpus)[picks[i]];
    round_trips.push_back(lm::DeserializePair(lm::SerializePair(pair)));
    return static_cast<int64_t>(pair.id);
  });
  COACHLM_RETURN_NOT_OK(ProbeServeLayers(options, requests, 0,
                                         kServeRequests, expected, &spans,
                                         root, report));
  spans.End(root);
  // The tracing overhead compares the traced pass with a warm untraced one.
  Result<Pass> warm = RunPass(options, exec, &off, -1);
  if (!warm.ok()) return warm.status();

  // Output checks, outside the traced section.
  report->Attempt(traced->revised.size());
  if (traced->out_hash != plain->out_hash) {
    report->Fail(traced->revised.size(),
                 "traced revise output differs from the untraced output");
  }
  for (size_t i = 0; i < kProbePairs; ++i) {
    report->Attempt(1);
    if (!(revised[i] == traced->revised[picks[i]])) {
      report->Fail(1, "probe revise of pair " + std::to_string(revised[i].id) +
                          " differs from the batch output");
    }
  }
  for (size_t i = 0; i < picks.size(); ++i) {
    const InstructionPair& pair = (*corpus)[picks[i]];
    report->Attempt(1);
    // The post-processor contract: the flat text form parses back to the
    // same fields (the id is not part of the text).
    if (!round_trips[i].ok() ||
        round_trips[i]->instruction != pair.instruction ||
        round_trips[i]->input != pair.input ||
        round_trips[i]->output != pair.output) {
      report->Fail(1, "pair text round trip changed pair " +
                          std::to_string(pair.id));
    }
  }

  const std::vector<Span> all = spans.spans();
  for (const char* name :
       {"data.load_corpus", "data.save_corpus", "lm.load_checkpoint",
        "coach.revise_dataset", "coach.revise", "lm.backbone.agreement",
        "lm.backbone.retrieve", "lm.pair_text.round_trip", "serve.http.parse",
        "serve.handler"}) {
    report->SpanMetrics(all, name);
  }
  std::error_code ec;
  report->Metric("data.load_corpus.records",
                 static_cast<double>(corpus->size()));
  report->Metric("data.load_corpus.bytes",
                 static_cast<double>(
                     std::filesystem::file_size(options.CorpusPath(), ec)));
  report->Metric("data.save_corpus.records",
                 static_cast<double>(traced->revised.size()));
  report->Metric("data.save_corpus.bytes",
                 static_cast<double>(std::filesystem::file_size(
                     options.OutPath("revised.jsonl"), ec)));
  report->Metric("coach.revise.changed_ratio",
                 static_cast<double>(stats.changed) / kProbePairs);
  report->Metric("coach.revise.invalid_ratio",
                 static_cast<double>(stats.invalid_replaced) / kProbePairs);
  report->Metric("lm.backbone.retrieve.hit_ratio",
                 static_cast<double>(hits) / kProbePairs);
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

Status RunReviseBatch(const Options& options, Report* report) {
  return options.trace ? Traced(options, report) : Untraced(options, report);
}

}  // namespace perfbench

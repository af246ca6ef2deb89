#include "workload_common.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "coach/coach_lm.h"
#include "coach/trainer.h"
#include "common/execution.h"
#include "common/rng.h"
#include "data/corpus_io.h"
#include "expert/pipeline.h"
#include "synth/content_engine.h"
#include "synth/generator.h"

namespace perfbench {

using namespace coachlm;

coach::CoachConfig BenchCoachConfig() {
  coach::CoachConfig config;
  config.alpha = 0.3;
  config.backbone = lm::ChatGlm26B();
  config.compiled_rules = true;
  return config;
}

void Report::Fail(uint64_t n, const std::string& why) {
  failed_ += n;
  Note("FAILED (" + std::to_string(n) + "): " + why);
}

void Report::Note(const std::string& line) {
  std::fprintf(stderr, "perfbench: %s\n", line.c_str());
}

const std::vector<MetricDef>& EndToEndCatalog() {
  static const std::vector<MetricDef> catalog = {
      {"peak_rss_mb", "MB"},
      {"wall_s", "s"},
      {"pairs_per_s", "pairs/s"},
  };
  return catalog;
}

const std::vector<MetricDef>& PerLayerCatalog() {
  static const std::vector<MetricDef> catalog = {
      {"fail_ratio", "ratio"},
      {"process.cpu_util", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.coverage_ratio", "ratio"},
      {"data.load_corpus.calls", "count"},
      {"data.load_corpus.busy_s", "s"},
      {"data.load_corpus.records", "count"},
      {"data.load_corpus.bytes", "bytes"},
      {"data.save_corpus.calls", "count"},
      {"data.save_corpus.busy_s", "s"},
      {"data.save_corpus.records", "count"},
      {"data.save_corpus.bytes", "bytes"},
      {"data.revisions.save_s", "s"},
      {"data.revisions.load_s", "s"},
      {"lm.load_checkpoint.calls", "count"},
      {"lm.load_checkpoint.busy_s", "s"},
      {"lm.backbone.agreement.calls", "count"},
      {"lm.backbone.agreement.busy_s", "s"},
      {"lm.backbone.agreement.p50_us", "us"},
      {"lm.backbone.agreement.p99_us", "us"},
      {"lm.backbone.retrieve.calls", "count"},
      {"lm.backbone.retrieve.busy_s", "s"},
      {"lm.backbone.retrieve.p50_us", "us"},
      {"lm.backbone.retrieve.p99_us", "us"},
      {"lm.backbone.retrieve.hit_ratio", "ratio"},
      {"lm.pair_text.round_trip.calls", "count"},
      {"lm.pair_text.round_trip.busy_s", "s"},
      {"lm.pair_text.round_trip.p50_us", "us"},
      {"lm.pair_text.round_trip.p99_us", "us"},
      {"coach.revise_dataset.busy_s", "s"},
      {"coach.revise.calls", "count"},
      {"coach.revise.busy_s", "s"},
      {"coach.revise.p50_us", "us"},
      {"coach.revise.p99_us", "us"},
      {"coach.revise.changed_ratio", "ratio"},
      {"coach.revise.invalid_ratio", "ratio"},
      {"coach.train.busy_s", "s"},
      {"coach.save_checkpoint.busy_s", "s"},
      {"expert.study.busy_s", "s"},
      {"text.char_distance.calls", "count"},
      {"text.char_distance.busy_s", "s"},
      {"text.char_distance.p50_us", "us"},
      {"text.char_distance.p99_us", "us"},
      {"text.char_distance.cells", "count"},
      {"serve.http.parse.calls", "count"},
      {"serve.http.parse.busy_s", "s"},
      {"serve.http.parse.p50_us", "us"},
      {"serve.http.parse.p99_us", "us"},
      {"serve.handler.calls", "count"},
      {"serve.handler.busy_s", "s"},
      {"serve.handler.p50_us", "us"},
      {"serve.handler.p99_us", "us"},
      {"serve.wire.connect_p50_us", "us"},
      {"serve.wire.connect_p99_us", "us"},
      {"serve.wire.first_byte_p50_us", "us"},
      {"serve.wire.first_byte_p99_us", "us"},
      {"serve.server.revise_p50_us", "us"},
      {"serve.server.revise_p99_us", "us"},
      {"serve.server.queue_depth_peak", "count"},
      {"serve.server.requests_shed", "count"},
      {"serve.server.requests_5xx", "count"},
      {"serve.ref_p50_ms", "ms"},
      {"serve.ref_p99_ms", "ms"},
      {"serve.ref_samples", "count"},
      {"serve.max_rate_rps", "req/s"},
      {"loadgen.lag_p99_ms", "ms"},
      {"loadgen.conn_wait_p99_ms", "ms"},
      {"loadgen.backlog_max", "count"},
      {"loadgen.invalid_rungs", "count"},
      {"loadgen.overload_failed", "count"},
  };
  return catalog;
}

void Report::FillUnmeasured(bool trace) {
  for (const MetricDef& def : trace ? PerLayerCatalog() : EndToEndCatalog()) {
    metrics_.emplace(def.name, 0.0);
  }
  if (trace) {
    Metric("fail_ratio", attempted_ == 0 ? 0.0
                                         : static_cast<double>(failed_) /
                                               static_cast<double>(attempted_));
  }
}

void Report::SpanMetrics(const std::vector<Span>& spans,
                         const std::string& name) {
  std::set<std::string> wanted;
  for (const MetricDef& def : PerLayerCatalog()) {
    const std::string full = def.name;
    if (full.rfind(name + ".", 0) == 0) {
      wanted.insert(full.substr(name.size() + 1));
    }
  }
  std::vector<double> us;
  for (const Span& s : spans) {
    if (s.name == name) {
      us.push_back(static_cast<double>(s.duration_ns()) / 1e3);
    }
  }
  double busy_us = 0.0;
  for (const double u : us) busy_us += u;
  if (wanted.count("calls")) {
    Metric(name + ".calls", static_cast<double>(us.size()));
  }
  if (wanted.count("busy_s")) Metric(name + ".busy_s", busy_us / 1e6);
  for (const auto& [suffix, q] :
       {std::pair<std::string, double>{"p50_us", 0.50}, {"p99_us", 0.99}}) {
    if (!wanted.count(suffix) || us.empty()) continue;
    const Percentile p = ComputePercentile(us, q);
    Note(name + " " + p.ToString("us"));
    Metric(name + "." + suffix, p.ValueOr0());
  }
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"setup_extra_s\": %.9g, \"metrics\": {",
                attempted_, failed_, setup_extra_s_);
  out += buf;
  std::map<std::string, std::string> units;
  for (const auto* catalog : {&EndToEndCatalog(), &PerLayerCatalog()}) {
    for (const MetricDef& def : *catalog) units[def.name] = def.unit;
  }
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    const auto unit = units.find(name);
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value,
                  unit == units.end() ? "?" : unit->second.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

Status SetUp(const Options& options, bool with_checkpoint) {
  const ExecutionContext exec(kThreads);
  synth::CorpusConfig corpus_config;
  corpus_config.size = kCorpusSize;
  corpus_config.seed = options.seed;
  const InstructionDataset corpus =
      synth::SynthCorpusGenerator(corpus_config).Generate(exec).dataset;
  COACHLM_RETURN_NOT_OK(SaveCorpus(options.CorpusPath(), corpus));
  if (!with_checkpoint) return Status::OK();
  expert::RevisionStudyConfig study_config;
  study_config.sample_size = kStudySample;
  study_config.seed = options.seed;
  synth::ContentEngine engine;
  const expert::RevisionStudyResult study =
      expert::RunRevisionStudy(corpus, engine, study_config, {}, exec);
  const coach::CoachLm model =
      coach::CoachTrainer(BenchCoachConfig()).Train(study.revisions);
  return model.SaveCheckpoint(options.CheckpointPath());
}

std::vector<size_t> SampleIndices(uint64_t seed, size_t n, size_t count) {
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  Rng rng(seed);
  count = std::min(count, n);
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + static_cast<size_t>(rng.NextBelow(n - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(count);
  return indices;
}

}  // namespace perfbench

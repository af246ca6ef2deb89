// Micro benchmarks of the pipeline stages: corpus generation, quality
// scoring, rule extraction, CoachLM inference, and judging — the costs
// behind the Section IV-A throughput figures.

#include <benchmark/benchmark.h>

#include "coach/trainer.h"
#include "expert/pipeline.h"
#include "lm/rule_extractor.h"
#include "judge/pairwise_judge.h"
#include "quality/criteria.h"
#include "synth/generator.h"

namespace coachlm {
namespace {

struct Fixture {
  Fixture() {
    synth::CorpusConfig config;
    config.size = 2000;
    config.seed = 42;
    synth::SynthCorpusGenerator generator(config);
    corpus = generator.Generate();
    expert::RevisionStudyConfig study_config;
    study_config.sample_size = 600;
    study = expert::RunRevisionStudy(corpus.dataset, generator.engine(),
                                     study_config);
    coach::CoachConfig coach_config;
    coach_config.alpha = 0.3;
    model = std::make_unique<coach::CoachLm>(
        coach::CoachTrainer(coach_config).Train(study.revisions));
  }
  synth::SynthCorpus corpus;
  expert::RevisionStudyResult study;
  std::unique_ptr<coach::CoachLm> model;
};

Fixture& SharedFixture() {
  static Fixture fixture;
  return fixture;
}

void BM_GeneratePair(benchmark::State& state) {
  synth::CorpusConfig config;
  synth::SynthCorpusGenerator generator(config);
  Rng rng(1);
  uint64_t id = 0;
  for (auto _ : state) {
    InstructionPair pair;
    std::vector<synth::DefectType> defects;
    generator.GeneratePair(++id, &rng, &pair, &defects);
    benchmark::DoNotOptimize(pair);
  }
}
BENCHMARK(BM_GeneratePair);

void BM_ScorePair(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        quality::ScorePair(fixture.corpus.dataset[i++ % 2000]));
  }
}
BENCHMARK(BM_ScorePair);

void BM_RuleExtraction(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  for (auto _ : state) {
    lm::RuleExtractor extractor;
    for (size_t i = 0; i < 50 && i < fixture.study.revisions.size(); ++i) {
      extractor.Consume(fixture.study.revisions[i]);
    }
    benchmark::DoNotOptimize(extractor.Finalize());
  }
}
BENCHMARK(BM_RuleExtraction);

void BM_CoachRevise(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  Rng rng(2);
  size_t i = 0;
  size_t revised = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.model->Revise(fixture.corpus.dataset[i++ % 2000], &rng));
    ++revised;
  }
  state.SetItemsProcessed(static_cast<int64_t>(revised));
}
BENCHMARK(BM_CoachRevise);

/// Backbone retrieval alone: the agreement check and memory retrieval
/// Revise makes per pair, over the fixture corpus.
void BM_BackboneScore(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  const lm::BackboneModel& backbone = fixture.model->backbone();
  size_t i = 0;
  for (auto _ : state) {
    const InstructionPair& pair = fixture.corpus.dataset[i++ % 2000];
    benchmark::DoNotOptimize(
        backbone.TopicalAgreement(pair.FullInstruction(), pair.output));
    benchmark::DoNotOptimize(backbone.RetrieveRelevant(
        pair.FullInstruction() + "\n" + pair.input, pair.output, 3));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BackboneScore);

/// Cost of one rule-store compilation — what every serve hot reload pays
/// on top of reading the checkpoint.
void BM_RuleCompile(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  const lm::RuleStore& rules = fixture.model->rules();
  for (auto _ : state) {
    const lm::CompiledRuleSet compiled(rules, 2);
    benchmark::DoNotOptimize(compiled.num_patterns());
  }
}
BENCHMARK(BM_RuleCompile);

void BM_JudgeCompareDebiased(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  const judge::PairwiseJudge judge(judge::PandaLmProfile());
  Rng rng(3);
  const InstructionPair& a = fixture.corpus.dataset[0];
  const InstructionPair& b = fixture.corpus.dataset[1];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        judge.CompareDebiased(a, a.output, b.output, &rng));
  }
}
BENCHMARK(BM_JudgeCompareDebiased);

void BM_ExpertRevise(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  synth::ContentEngine engine;
  expert::ExpertReviser reviser(&engine);
  Rng rng(4);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reviser.Revise(fixture.corpus.dataset[i++ % 2000], &rng));
  }
}
BENCHMARK(BM_ExpertRevise);

}  // namespace
}  // namespace coachlm

BENCHMARK_MAIN();

#include "coach/coach_lm.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "coach/trainer.h"
#include "expert/pipeline.h"
#include "lm/pair_text.h"
#include "quality/criteria.h"
#include "synth/generator.h"
#include "text/string_util.h"

namespace coachlm {
namespace coach {
namespace {

/// Shared small pipeline state, built once.
class CoachLmTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusConfig config;
    config.size = 3000;
    config.seed = 42;
    generator_ = new synth::SynthCorpusGenerator(config);
    corpus_ = new synth::SynthCorpus(generator_->Generate());
    expert::RevisionStudyConfig study_config;
    study_config.sample_size = 900;
    study_ = new expert::RevisionStudyResult(expert::RunRevisionStudy(
        corpus_->dataset, generator_->engine(), study_config));
    CoachConfig coach_config;
    coach_config.alpha = 0.3;
    model_ = new CoachLm(CoachTrainer(coach_config).Train(study_->revisions));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete study_;
    delete corpus_;
    delete generator_;
  }

  static synth::SynthCorpusGenerator* generator_;
  static synth::SynthCorpus* corpus_;
  static expert::RevisionStudyResult* study_;
  static CoachLm* model_;
};

synth::SynthCorpusGenerator* CoachLmTest::generator_ = nullptr;
synth::SynthCorpus* CoachLmTest::corpus_ = nullptr;
expert::RevisionStudyResult* CoachLmTest::study_ = nullptr;
CoachLm* CoachLmTest::model_ = nullptr;

TEST_F(CoachLmTest, TrainedModelHasRules) {
  EXPECT_FALSE(model_->rules().empty());
  EXPECT_GT(model_->rules().train_pairs, 20u);
  EXPECT_GT(model_->rules().mean_target_response_words, 30.0);
}

TEST_F(CoachLmTest, RevisionImprovesDeficientPairs) {
  Rng rng(5);
  size_t improved = 0, revised = 0;
  for (size_t i = 0; i < 300; ++i) {
    if (!corpus_->IsDeficient(i)) continue;
    const InstructionPair& pair = corpus_->dataset[i];
    const InstructionPair out = model_->Revise(pair, &rng);
    if (out.output == pair.output && out.instruction == pair.instruction) {
      continue;
    }
    ++revised;
    const double before = quality::ScorePair(pair).Combined();
    const double after = quality::ScorePair(out).Combined();
    if (after > before) ++improved;
  }
  ASSERT_GT(revised, 30u);
  EXPECT_GT(static_cast<double>(improved) / revised, 0.75);
}

TEST_F(CoachLmTest, RevisionPreservesIdAndCategory) {
  Rng rng(7);
  const InstructionPair& pair = corpus_->dataset[10];
  const InstructionPair out = model_->Revise(pair, &rng);
  EXPECT_EQ(out.id, pair.id);
  EXPECT_EQ(out.category, pair.category);
}

TEST_F(CoachLmTest, RawOutputIsSerializedPair) {
  Rng rng(11);
  const std::string raw = model_->ReviseToText(corpus_->dataset[3], &rng);
  // Either a valid serialized pair or a degenerate output the
  // post-processor must handle; valid is overwhelmingly likely here.
  EXPECT_TRUE(lm::DeserializePair(raw).ok() ||
              strings::Contains(raw, "@@"));
}

TEST_F(CoachLmTest, PostProcessorReplacesDegenerateOutputs) {
  // Force degeneration by using a backbone with 100% invalid rate.
  CoachConfig config;
  config.backbone.invalid_output_rate = 1.0;
  CoachLm degenerate(config, model_->rules());
  Rng rng(13);
  RevisionPassStats stats;
  const InstructionPair out =
      degenerate.Revise(corpus_->dataset[0], &rng, &stats);
  EXPECT_EQ(out, corpus_->dataset[0]);  // fell back to the original
  EXPECT_EQ(stats.invalid_replaced, 1u);
}

TEST_F(CoachLmTest, UntrainedBackboneIsNearIdentity) {
  CoachConfig config;
  config.backbone.invalid_output_rate = 0.0;
  config.backbone.fluency_noise = 0.0;
  CoachLm raw(config, lm::RuleStore{});
  Rng rng(17);
  const InstructionPair& pair = corpus_->dataset[5];
  const InstructionPair out = raw.Revise(pair, &rng);
  EXPECT_EQ(out.output, pair.output);
  EXPECT_EQ(out.instruction, pair.instruction);
}

TEST_F(CoachLmTest, DatasetRevisionIsDeterministicAcrossThreadCounts) {
  InstructionDataset slice;
  for (size_t i = 0; i < 60; ++i) slice.Add(corpus_->dataset[i]);
  const ExecutionContext serial(1);
  const ExecutionContext wide(4);
  const InstructionDataset a =
      model_->ReviseDataset(slice, {}, nullptr, serial);
  const InstructionDataset b = model_->ReviseDataset(slice, {}, nullptr, wide);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST_F(CoachLmTest, LeakageGuardSkipsTrainingPairs) {
  InstructionDataset slice;
  for (size_t i = 0; i < 20; ++i) slice.Add(corpus_->dataset[i]);
  std::unordered_set<std::string> guard;
  guard.insert(lm::SerializePair(corpus_->dataset[4]));
  RevisionPassStats stats;
  const ExecutionContext serial(1);
  const InstructionDataset out =
      model_->ReviseDataset(slice, guard, &stats, serial);
  EXPECT_EQ(stats.leakage_skipped, 1u);
  EXPECT_EQ(out[4], corpus_->dataset[4]);
}

TEST_F(CoachLmTest, CheckpointRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "coachlm_ckpt.json").string();
  ASSERT_TRUE(model_->SaveCheckpoint(path).ok());
  auto loaded = CoachLm::LoadCheckpoint(path, model_->config());
  ASSERT_TRUE(loaded.ok());
  // Same rules -> same revision behaviour.
  Rng r1(23), r2(23);
  EXPECT_EQ(model_->ReviseToText(corpus_->dataset[8], &r1),
            loaded->ReviseToText(corpus_->dataset[8], &r2));
  std::remove(path.c_str());
}

/// The relatedness ReviseResponse compares to the rewrite threshold when
/// the instruction was revised to \p revised, and the reference that
/// tallies the original full instruction directly.
struct RelatednessPair {
  double revise;
  double reference;
};

RelatednessPair Relatedness(const lm::BackboneModel& backbone,
                            const InstructionPair& pair,
                            const std::string& revised) {
  const lm::PreparedQuery context =
      backbone.Prepare(revised + "\n" + pair.input);
  return {ResponseRelatedness(backbone, pair, revised, context),
          backbone.TopicalAgreement(pair.FullInstruction(), pair.output)};
}

InstructionPair PhotosynthesisPair(const std::string& instruction,
                                   const std::string& input) {
  InstructionPair pair;
  pair.id = 1;
  pair.instruction = instruction;
  pair.input = input;
  pair.output =
      "Photosynthesis lets plants turn sunlight, water and carbon dioxide "
      "into glucose, releasing oxygen through the chlorophyll in leaves.";
  return pair;
}

TEST_F(CoachLmTest, RelatednessReusesTheContextWhenOnlyCaseChanged) {
  const lm::BackboneModel& backbone = model_->backbone();
  const InstructionPair pair = PhotosynthesisPair(
      "explain how PHOTOSYNTHESIS works in plants.",
      "Plants capture light with chlorophyll in their leaves.");
  const RelatednessPair r = Relatedness(
      backbone, pair, "Explain how photosynthesis works in plants.");
  EXPECT_GT(r.reference, 0.0);
  EXPECT_EQ(r.revise, r.reference);
}

TEST_F(CoachLmTest, RelatednessTalliesTheOriginalAfterATokenSubstitution) {
  const lm::BackboneModel& backbone = model_->backbone();
  const InstructionPair pair = PhotosynthesisPair(
      "Explain teh process of photosynthesis in plants.", "");
  const std::string revised =
      "Explain the process of photosynthesis in plants.";
  const RelatednessPair r = Relatedness(backbone, pair, revised);
  EXPECT_EQ(r.revise, r.reference);
  // The revised text tallies differently ("teh" is an unknown content
  // word, "the" a stopword), so its context must not stand in here.
  EXPECT_NE(backbone.Prepare(revised + "\n").tally.total,
            backbone.Prepare(pair.FullInstruction()).tally.total);
}

TEST_F(CoachLmTest, RelatednessReusesTheContextWithAnEmptyInput) {
  const lm::BackboneModel& backbone = model_->backbone();
  const InstructionPair pair =
      PhotosynthesisPair("describe photosynthesis in detail", "");
  const RelatednessPair r =
      Relatedness(backbone, pair, "Describe photosynthesis in detail");
  EXPECT_GT(r.reference, 0.0);
  EXPECT_EQ(r.revise, r.reference);
}

TEST_F(CoachLmTest, RelatednessMatchesTheReferenceOnCorpusRevisions) {
  const lm::BackboneModel& backbone = model_->backbone();
  size_t reused = 0;
  for (size_t i = 0; i < 400; ++i) {
    const InstructionPair& pair = corpus_->dataset[i];
    Rng rng = DeriveRng(model_->config().seed, pair.id);
    const std::string revised = model_->Revise(pair, &rng).instruction;
    if (strings::EqualsIgnoreCase(revised, pair.instruction)) ++reused;
    const RelatednessPair r = Relatedness(backbone, pair, revised);
    EXPECT_EQ(r.revise, r.reference) << pair.id;
  }
  EXPECT_GT(reused, 100u);
  EXPECT_LT(reused, 400u);
}

TEST_F(CoachLmTest, LoadCheckpointFailsOnMissingFile) {
  EXPECT_FALSE(CoachLm::LoadCheckpoint("/no/such/ckpt.json", {}).ok());
}

}  // namespace
}  // namespace coach
}  // namespace coachlm

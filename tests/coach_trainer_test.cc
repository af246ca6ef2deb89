#include "coach/trainer.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "coach/alpha_selection.h"
#include "determinism_fixture.h"
#include "expert/pipeline.h"
#include "json/jsonl.h"
#include "lm/pair_text.h"
#include "synth/generator.h"

namespace coachlm {
namespace coach {
namespace {

class CoachTrainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusConfig config;
    config.size = 3000;
    config.seed = 42;
    synth::SynthCorpusGenerator generator(config);
    const synth::SynthCorpus corpus = generator.Generate();
    expert::RevisionStudyConfig study_config;
    study_config.sample_size = 900;
    revisions_ = new RevisionDataset(
        expert::RunRevisionStudy(corpus.dataset, generator.engine(),
                                 study_config)
            .revisions);
  }
  static void TearDownTestSuite() { delete revisions_; }
  static RevisionDataset* revisions_;
};

RevisionDataset* CoachTrainerTest::revisions_ = nullptr;

TEST_F(CoachTrainerTest, CoachDatasetFollowsAlphaSelection) {
  CoachConfig config;
  config.alpha = 0.3;
  CoachTrainer trainer(config);
  const InstructionDataset coach_dataset =
      trainer.BuildCoachDataset(*revisions_);
  EXPECT_EQ(coach_dataset.size(), AlphaCount(revisions_->size(), 0.3));
  for (const InstructionPair& sample : coach_dataset) {
    EXPECT_EQ(sample.instruction, lm::kRevisionPrompt);
    EXPECT_TRUE(lm::DeserializePair(sample.input).ok());
    EXPECT_TRUE(lm::DeserializePair(sample.output).ok());
  }
}

TEST_F(CoachTrainerTest, AlphaZeroYieldsUntrainedModel) {
  CoachConfig config;
  config.alpha = 0.0;
  const CoachLm model = CoachTrainer(config).Train(*revisions_);
  EXPECT_TRUE(model.rules().empty());
}

TEST_F(CoachTrainerTest, MoreAlphaMoreTrainingPairs) {
  CoachConfig low;
  low.alpha = 0.2;
  CoachConfig high;
  high.alpha = 0.9;
  const CoachLm small = CoachTrainer(low).Train(*revisions_);
  const CoachLm large = CoachTrainer(high).Train(*revisions_);
  EXPECT_LT(small.rules().train_pairs, large.rules().train_pairs);
}

TEST_F(CoachTrainerTest, HighAlphaDilutesExpansionAggressiveness) {
  // The Fig. 5(a) mechanism: near-identity pairs in C_1 lower the learned
  // expansion statistics relative to C_0.3.
  CoachConfig focused;
  focused.alpha = 0.3;
  CoachConfig diluted;
  diluted.alpha = 1.0;
  const CoachLm sharp = CoachTrainer(focused).Train(*revisions_);
  const CoachLm soft = CoachTrainer(diluted).Train(*revisions_);
  EXPECT_GT(sharp.rules().mean_appended_sentences,
            soft.rules().mean_appended_sentences);
}

TEST_F(CoachTrainerTest, TrainingIsDeterministic) {
  CoachConfig config;
  config.alpha = 0.4;
  const CoachLm a = CoachTrainer(config).Train(*revisions_);
  const CoachLm b = CoachTrainer(config).Train(*revisions_);
  EXPECT_EQ(a.rules().ToJson().Dump(), b.rules().ToJson().Dump());
}

TEST_F(CoachTrainerTest, CheckpointBytesMatchGolden) {
  // Pins the trained checkpoint, so the alpha-selection ranking and the
  // rules learned from it stay byte-for-byte what they were when
  // recorded.
  constexpr uint64_t kCheckpointGoldenHash = 5431599100172456465ULL;
  CoachConfig config;
  config.alpha = 0.3;
  const CoachLm model = CoachTrainer(config).Train(*revisions_);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "coachlm_trainer_golden.json";
  ASSERT_TRUE(model.SaveCheckpoint(path.string()).ok());
  auto bytes = json::ReadFile(path.string());
  std::filesystem::remove(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(testfix::Fnv1a(bytes.ValueOrDie()), kCheckpointGoldenHash);
}

}  // namespace
}  // namespace coach
}  // namespace coachlm

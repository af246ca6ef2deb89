#include "coach/verifier.h"

#include "coach/coach_config.h"

#include <gtest/gtest.h>

#include <string>

#include "coach/coach_lm.h"
#include "coach/trainer.h"
#include "common/execution.h"
#include "determinism_fixture.h"
#include "expert/pipeline.h"
#include "synth/generator.h"
#include "synth/topic_bank.h"

namespace coachlm {
namespace coach {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest() : backbone_(lm::ChatGlm26B()), verifier_(&backbone_) {}
  lm::BackboneModel backbone_;
  ExpansionVerifier verifier_;
};

TEST_F(VerifierTest, AcceptsGroundedFluentExpansion) {
  const synth::Topic* gravity = synth::FindTopicIn("gravity");
  ASSERT_NE(gravity, nullptr);
  VerifierStats stats;
  const auto out =
      verifier_.Verify(backbone_.Prepare("Explain gravity to a beginner."),
                       gravity->details[0], &stats);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, gravity->details[0]);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(VerifierTest, RejectsUngroundedExpansion) {
  // Chess content offered for a gravity question is the hallucination
  // signature.
  const synth::Topic* chess = synth::FindTopicIn("chess strategy");
  ASSERT_NE(chess, nullptr);
  VerifierStats stats;
  const auto out =
      verifier_.Verify(backbone_.Prepare("Explain gravity to a beginner."),
                       chess->details[0], &stats);
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(stats.rejected, 1u);
}

TEST_F(VerifierTest, RepairsDisfluentExpansion) {
  const synth::Topic* gravity = synth::FindTopicIn("gravity");
  ASSERT_NE(gravity, nullptr);
  // A fluency slip the backbone itself would produce.
  std::string slipped = gravity->details[0];
  slipped[0] = static_cast<char>(std::tolower(slipped[0]));
  VerifierStats stats;
  const auto out = verifier_.Verify(
      backbone_.Prepare("Explain gravity please."), slipped, &stats);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, gravity->details[0]);  // restored casing
  EXPECT_EQ(stats.repaired, 1u);
}

TEST_F(VerifierTest, StatsAccumulateAcrossCalls) {
  const synth::Topic* gravity = synth::FindTopicIn("gravity");
  VerifierStats stats;
  const lm::PreparedQuery context = backbone_.Prepare("Explain gravity.");
  verifier_.Verify(context, gravity->details[0], &stats);
  verifier_.Verify(context, gravity->details[1], &stats);
  EXPECT_EQ(stats.checked, 2u);
}

/// Verified-revise golden: testfix::HashDataset of a corpus revised with
/// verify_expansions on, recorded before the verifier's grounding query
/// was prepared once per pair. A change here is a change in verified
/// revision output.
class VerifiedReviseGoldenTest : public ::testing::TestWithParam<size_t> {
 protected:
  size_t threads() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(ThreadCounts, VerifiedReviseGoldenTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<size_t>& param) {
                           return "threads" + std::to_string(param.param);
                         });

TEST_P(VerifiedReviseGoldenTest, SyntheticCorpus) {
  synth::CorpusConfig corpus_config;
  corpus_config.size = 600;
  corpus_config.seed = 42;
  synth::SynthCorpusGenerator generator(corpus_config);
  const synth::SynthCorpus corpus = generator.Generate();
  expert::RevisionStudyConfig study_config;
  study_config.sample_size = 250;
  const auto study = expert::RunRevisionStudy(corpus.dataset,
                                              generator.engine(),
                                              study_config);
  struct Case {
    double alpha;
    uint64_t hash;
  };
  const Case cases[] = {
      {0.3, 0xe502c7082e791812ULL},
      {1.0, 0xdb829d43718ae6dcULL},
  };
  const ExecutionContext exec(threads());
  for (const Case& c : cases) {
    CoachConfig config;
    config.alpha = c.alpha;
    config.seed = 23;
    config.verify_expansions = true;
    const CoachLm verified = CoachTrainer(config).Train(study.revisions);
    const InstructionDataset out =
        verified.ReviseDataset(corpus.dataset, {}, nullptr, exec);
    EXPECT_EQ(testfix::HashDataset(out), c.hash) << "alpha " << c.alpha;
    // The verifier must have acted: the same model unverified revises to
    // different bytes.
    config.verify_expansions = false;
    const CoachLm plain = CoachTrainer(config).Train(study.revisions);
    EXPECT_NE(testfix::HashDataset(
                  plain.ReviseDataset(corpus.dataset, {}, nullptr, exec)),
              c.hash)
        << "alpha " << c.alpha;
  }
}

}  // namespace
}  // namespace coach
}  // namespace coachlm

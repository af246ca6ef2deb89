// Rule-engine contract: the CompiledRuleSet freezes each rule family in
// apply order with its support gates resolved, and coach revision over the
// golden corpora reproduces hashes recorded before the engine was reduced
// to one apply path — at every thread count and seed.

#include "lm/rule_compile.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coach/coach_lm.h"
#include "coach/trainer.h"
#include "common/execution.h"
#include "determinism_fixture.h"
#include "expert/pipeline.h"
#include "synth/generator.h"

namespace coachlm {
namespace lm {
namespace {

RuleStore PopulatedStore() {
  RuleStore store;
  store.token_subs["teh"]["the"] = 12;
  store.token_subs["teh"]["then"] = 1;
  store.token_subs["recieve"]["receive"] = 3;
  store.token_subs["hopeless"]["x"] = 1;  // below support: compiles away
  store.capitalize_support = 5;
  store.doubled_removal_support = 2;
  store.reflow_support = 7;
  store.strip_tokens["OUTPUT:"] = 4;
  store.opener_removals["As an AI language model,"] = 6;
  store.closings["Hope this helps!"] = 9;
  store.closings["Rare closing."] = 1;
  store.markers["For example,"] = 11;
  store.context_exemplars["Keep the answer under 200 words."] = 3;
  store.strip_phrases["in zero words"] = 2;
  store.strip_phrases["without using words"] = 2;  // equal support: tie
  store.filler_replacements["the thing"] = {"gravity", "chess"};
  store.filler_replacements["one-shot"] = {"once"};  // < 2: compiles away
  store.train_pairs = 100;
  store.mean_appended_sentences = 2.5;
  store.mean_target_response_words = 120.0;
  store.closing_rate = 0.8;
  store.context_add_rate = 0.1;
  store.rewrite_rate = 0.3;
  store.rewrite_overlap_threshold = 0.12;
  return store;
}

TEST(CompiledRuleSetTest, FamiliesFrozenInApplyOrder) {
  const RuleStore store = PopulatedStore();
  const CompiledRuleSet compiled(store, /*min_support=*/2);

  // token_subs: map order, best replacement resolved, sub-support dropped.
  ASSERT_EQ(compiled.token_subs().size(), 2u);
  EXPECT_EQ(compiled.token_subs()[0].from, "recieve");
  EXPECT_EQ(compiled.token_subs()[0].to, "receive");
  EXPECT_EQ(compiled.token_subs()[1].from, "teh");
  EXPECT_EQ(compiled.token_subs()[1].to, "the");

  // strip_phrases: PhrasesAbove order — equal support ties lexicographic.
  EXPECT_EQ(compiled.strip_phrases(),
            (std::vector<std::string>{"in zero words", "without using words"}));

  // fillers: only phrases with >= 2 distinct replacements.
  EXPECT_EQ(compiled.fillers(), std::vector<std::string>{"the thing"});
  EXPECT_EQ(compiled.openers(),
            std::vector<std::string>{"As an AI language model,"});
  EXPECT_EQ(compiled.strip_tokens(), std::vector<std::string>{"OUTPUT:"});

  // Rotation tables and gates.
  EXPECT_EQ(compiled.closings(),
            RuleStore::PhrasesAbove(store.closings, 2));
  EXPECT_EQ(compiled.markers(), RuleStore::PhrasesAbove(store.markers, 2));
  EXPECT_EQ(compiled.context_exemplars(),
            RuleStore::PhrasesAbove(store.context_exemplars, 2));
  EXPECT_TRUE(compiled.capitalize());
  EXPECT_TRUE(compiled.remove_doubled());
  EXPECT_TRUE(compiled.reflow());
  EXPECT_DOUBLE_EQ(compiled.closing_rate(), 0.8);
  EXPECT_DOUBLE_EQ(compiled.context_add_rate(), 0.1);
  EXPECT_DOUBLE_EQ(compiled.rewrite_overlap_threshold(), 0.12);
  EXPECT_DOUBLE_EQ(compiled.mean_target_response_words(), 120.0);
  EXPECT_EQ(compiled.expansion_budget(), 3u);  // llround(2.5) = 3

  // One searched pattern per rule in the five searched families.
  EXPECT_EQ(compiled.num_patterns(), 2u + 2u + 1u + 1u + 1u);
}

TEST(CompiledRuleSetTest, HighSupportThresholdCompilesEmptyFamilies) {
  const CompiledRuleSet compiled(PopulatedStore(), /*min_support=*/100);
  EXPECT_TRUE(compiled.token_subs().empty());
  EXPECT_TRUE(compiled.strip_phrases().empty());
  EXPECT_TRUE(compiled.openers().empty());
  EXPECT_TRUE(compiled.strip_tokens().empty());
  EXPECT_TRUE(compiled.closings().empty());
  EXPECT_TRUE(compiled.markers().empty());
  EXPECT_FALSE(compiled.capitalize());
  EXPECT_FALSE(compiled.remove_doubled());
  EXPECT_FALSE(compiled.reflow());
  // Fillers are not support-gated.
  EXPECT_EQ(compiled.fillers().size(), 1u);
  EXPECT_EQ(compiled.num_patterns(), 1u);
}

TEST(CompiledRuleSetTest, EmptyStoreCompiles) {
  const CompiledRuleSet compiled(RuleStore(), /*min_support=*/2);
  EXPECT_EQ(compiled.num_patterns(), 0u);
  EXPECT_TRUE(compiled.token_subs().empty());
  EXPECT_TRUE(compiled.fillers().empty());
  EXPECT_TRUE(compiled.closings().empty());
  EXPECT_FALSE(compiled.capitalize());
  EXPECT_LT(compiled.rewrite_overlap_threshold(), 0.0);
  EXPECT_EQ(compiled.expansion_budget(), 0u);
}

/// Revise goldens: testfix::HashDataset of the revised corpora, recorded
/// with the scan and the automaton-backed engines (which agreed) before
/// rule application was reduced to one path. A change here is a change in
/// revision output.
class ReviseGoldenTest : public ::testing::TestWithParam<size_t> {
 protected:
  size_t threads() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ReviseGoldenTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<size_t>& param) {
                           return "threads" + std::to_string(param.param);
                         });

TEST_P(ReviseGoldenTest, FixtureCorpusAcrossSeeds) {
  struct Case {
    uint64_t seed;
    uint64_t hash;
  };
  // The fixture's closing rate is 1 with a single closing, so no draw
  // changes its output: all three seeds land on the same bytes.
  const Case cases[] = {
      {23ULL, 0x1dd83b1ddcf388bbULL},
      {7ULL, 0x1dd83b1ddcf388bbULL},
      {20260809ULL, 0x1dd83b1ddcf388bbULL},
  };
  for (const Case& c : cases) {
    coach::CoachConfig config;
    config.alpha = 1.0;
    config.seed = c.seed;
    const coach::CoachLm model =
        coach::CoachTrainer(config).Train(testfix::FixtureRevisions());
    const ExecutionContext exec(threads());
    const InstructionDataset out =
        model.ReviseDataset(testfix::FixtureCorpus(), {}, nullptr, exec);
    EXPECT_EQ(testfix::HashDataset(out), c.hash) << "seed " << c.seed;
  }
}

TEST_P(ReviseGoldenTest, SyntheticCorpus) {
  // A trained-for-real rule store over a generated corpus: the same
  // pipeline the end-to-end golden uses.
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
    uint64_t seed;
    uint64_t hash;
  };
  const Case cases[] = {
      {0.3, 23ULL, 0xc403722d5a427e16ULL},
      {0.3, 7ULL, 0xe08a032bc4040bc4ULL},
      {1.0, 23ULL, 0x917729fbad8b335aULL},
      {1.0, 7ULL, 0x4b218b885bbd91ddULL},
  };
  const ExecutionContext exec(threads());
  for (const Case& c : cases) {
    coach::CoachConfig config;
    config.alpha = c.alpha;
    config.seed = c.seed;
    const coach::CoachLm model =
        coach::CoachTrainer(config).Train(study.revisions);
    const InstructionDataset out =
        model.ReviseDataset(corpus.dataset, {}, nullptr, exec);
    EXPECT_EQ(testfix::HashDataset(out), c.hash)
        << "alpha " << c.alpha << " seed " << c.seed;
  }
}

}  // namespace
}  // namespace lm
}  // namespace coachlm

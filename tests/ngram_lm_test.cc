#include "text/ngram_lm.h"

#include <gtest/gtest.h>

#include "synth/topic_bank.h"

namespace coachlm {
namespace {

NgramLm TrainedOnTopics() {
  NgramLm lm(3);
  for (const synth::Topic& topic : synth::Topics()) {
    lm.AddText(topic.fact);
    for (const std::string& d : topic.details) lm.AddText(d);
  }
  return lm;
}

TEST(NgramLmTest, UntrainedModelSentinels) {
  NgramLm lm;
  EXPECT_EQ(lm.train_tokens(), 0u);
  EXPECT_GE(lm.Perplexity("anything"), 1e9);
}

TEST(NgramLmTest, TrainingAccumulatesTokens) {
  NgramLm lm;
  lm.AddText("The cat sat on the mat.");
  EXPECT_GT(lm.train_tokens(), 5u);
}

TEST(NgramLmTest, SeenTextHasLowerPerplexityThanGibberish) {
  NgramLm lm = TrainedOnTopics();
  const double seen = lm.Perplexity(
      "The water cycle moves water through evaporation, condensation, and "
      "precipitation.");
  const double gibberish = lm.Perplexity("zzq qqz plof grok mnop xyzzy");
  EXPECT_LT(seen, gibberish);
}

TEST(NgramLmTest, SentenceLogProbIsNegativeAndFinite) {
  NgramLm lm = TrainedOnTopics();
  const double logp = lm.SentenceLogProb({"water", "vapor", "condenses"});
  EXPECT_LT(logp, 0.0);
  EXPECT_GT(logp, -1e6);
}

TEST(VocabTest, ReservedIdsAndLookup) {
  Vocab vocab;
  EXPECT_EQ(vocab.size(), 3u);
  const uint32_t id = vocab.Add("hello");
  EXPECT_EQ(vocab.Add("hello"), id);  // idempotent
  EXPECT_EQ(vocab.Lookup("hello"), id);
  EXPECT_EQ(vocab.Lookup("unseen"), Vocab::kUnk);
  EXPECT_EQ(vocab.Token(id), "hello");
  EXPECT_EQ(vocab.Token(9999), "<unk>");
}

TEST(VocabTest, EncodeMapsUnknowns) {
  Vocab vocab;
  vocab.Add("a");
  const auto ids = vocab.Encode({"a", "b"});
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], Vocab::kUnk);
  EXPECT_EQ(ids[1], Vocab::kUnk);
}

}  // namespace
}  // namespace coachlm

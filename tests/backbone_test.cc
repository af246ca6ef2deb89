#include "lm/backbone.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "synth/generator.h"
#include "synth/topic_bank.h"
#include "text/string_util.h"

namespace coachlm {
namespace lm {
namespace {

TEST(BackboneTest, ProfilesOrderByStrength) {
  EXPECT_LT(Llama7B().knowledge_coverage, ChatGlm6B().knowledge_coverage);
  EXPECT_LT(ChatGlm6B().knowledge_coverage, ChatGlm26B().knowledge_coverage);
  EXPECT_GT(Llama7B().fluency_noise, ChatGlm26B().fluency_noise);
}

TEST(BackboneTest, StrongerBackboneRemembersMore) {
  const BackboneModel weak(Llama7B());
  const BackboneModel strong(ChatGlm26B());
  size_t weak_sentences = 0, strong_sentences = 0;
  // num_docs can coincide; compare retrievable content for a fixed query.
  for (const synth::Topic& topic : synth::Topics()) {
    weak_sentences += weak.RetrieveRelevant("Explain " + topic.name + ".",
                                            "", 10).size();
    strong_sentences += strong.RetrieveRelevant("Explain " + topic.name + ".",
                                                "", 10).size();
  }
  EXPECT_GT(strong_sentences, weak_sentences);
}

TEST(BackboneTest, RetrievalFindsTopicalContent) {
  const BackboneModel model(ChatGlm26B());
  const auto sentences = model.RetrieveRelevant(
      "Give a step-by-step guide to getting started with gardening.", "", 3);
  ASSERT_FALSE(sentences.empty());
  const synth::Topic* gardening = synth::FindTopicIn("gardening");
  ASSERT_NE(gardening, nullptr);
  for (const std::string& s : sentences) {
    EXPECT_TRUE(synth::TopicOwnsText(*gardening, s)) << s;
  }
}

TEST(BackboneTest, RetrievalRefusesUnknownSubjects) {
  const BackboneModel model(ChatGlm26B());
  EXPECT_TRUE(model.RetrieveRelevant("Calculate 12 + 7 now.", "", 3).empty());
  EXPECT_TRUE(model.RetrieveRelevant("zxqv plugh", "", 3).empty());
}

TEST(BackboneTest, RetrievalSkipsExistingContentCaseInsensitively) {
  const BackboneModel model(ChatGlm26B());
  const std::string context = "Explain photosynthesis to a student.";
  const auto first = model.RetrieveRelevant(context, "", 2);
  ASSERT_FALSE(first.empty());
  std::string existing = first[0];
  existing[0] = static_cast<char>(std::tolower(existing[0]));
  const auto second = model.RetrieveRelevant(context, existing, 5);
  for (const std::string& s : second) EXPECT_NE(s, first[0]);
}

TEST(BackboneTest, TopicalAgreementSeparatesOnFromOffTopic) {
  const BackboneModel model(ChatGlm26B());
  const synth::Topic* gravity = synth::FindTopicIn("gravity");
  const synth::Topic* chess = synth::FindTopicIn("chess strategy");
  ASSERT_NE(gravity, nullptr);
  ASSERT_NE(chess, nullptr);
  const std::string question = "Explain gravity in simple terms.";
  const double on_topic =
      model.TopicalAgreement(question, gravity->fact + " " + gravity->details[0]);
  const double off_topic =
      model.TopicalAgreement(question, chess->fact + " " + chess->details[0]);
  EXPECT_GT(on_topic, off_topic + 0.1);
}

TEST(BackboneTest, CodeQuestionsAgreeThroughIdentifiers) {
  const BackboneModel model(ChatGlm26B());
  const std::string question =
      "Find and fix the bug in the following Python function.\n"
      "def fibonacci(n):\n    sequence = []";
  const std::string answer = "def fibonacci(n):\n    sequence = []\n"
                             "    a, b = 0, 1";
  EXPECT_GT(model.TopicalAgreement(question, answer), 0.3);
}

uint64_t Fnv1a(const std::string& text, uint64_t h) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Hash of the exact agreement bits and retrieved sentences a backbone
/// yields over a seeded corpus: any change to a score's value, a
/// tie-break, or an activation decision changes it.
uint64_t ScoringHash(const BackboneModel& model,
                     const InstructionDataset& dataset, size_t* retrieved) {
  uint64_t h = 1469598103934665603ULL;
  *retrieved = 0;
  for (const InstructionPair& pair : dataset) {
    char hex[64];
    std::snprintf(hex, sizeof(hex), "%a",
                  model.TopicalAgreement(pair.FullInstruction(), pair.output));
    h = Fnv1a(hex, h);
    for (const std::string& sentence : model.RetrieveRelevant(
             pair.FullInstruction() + "\n" + pair.input, pair.output, 3)) {
      h = Fnv1a(sentence, h);
      h = Fnv1a("\x1f", h);
      ++*retrieved;
    }
    h = Fnv1a("\x1e", h);
  }
  return h;
}

TEST(BackboneTest, ScoringIsBitIdenticalToStringKeyedScoring) {
  synth::CorpusConfig config;
  config.size = 500;
  config.seed = 3;
  const synth::SynthCorpus corpus =
      synth::SynthCorpusGenerator(config).Generate();
  // Recorded with the per-document sorted-string-key scorer that the
  // word index replaced; the index must reproduce every bit of it.
  const std::pair<BackboneProfile, uint64_t> expected[] = {
      {Llama7B(), 0xbfd77f21b38f34f2ULL},
      {ChatGlm6B(), 0xd8d43638203d89a9ULL},
      {ChatGlm26B(), 0x583f488167931ef8ULL},
  };
  for (const auto& [profile, hash] : expected) {
    size_t retrieved = 0;
    EXPECT_EQ(ScoringHash(BackboneModel(profile), corpus.dataset, &retrieved),
              hash)
        << profile.name;
    EXPECT_GT(retrieved, 100u) << profile.name;
  }
}

TEST(BackboneTest, EdgeQueriesScoreAsDefined) {
  const BackboneModel model(ChatGlm26B());
  const synth::Topic* gravity = synth::FindTopicIn("gravity");
  ASSERT_NE(gravity, nullptr);
  const std::string on_topic = gravity->fact + " " + gravity->details[0];
  // No content words on one side: agreement is exactly zero and nothing
  // is retrieved.
  for (const std::string& empty_side :
       {std::string(), std::string("the and of with it is"),
        std::string("a an to of ? ! ...")}) {
    EXPECT_EQ(model.TopicalAgreement(empty_side, on_topic), 0.0) << empty_side;
    EXPECT_EQ(model.TopicalAgreement(on_topic, empty_side), 0.0) << empty_side;
    EXPECT_TRUE(model.RetrieveRelevant(empty_side, "", 3).empty())
        << empty_side;
  }
  // A lone long subject word is discriminative on its own.
  const auto lone = model.RetrieveRelevant("photosynthesis", "", 3);
  ASSERT_FALSE(lone.empty());
  EXPECT_GT(model.TopicalAgreement("photosynthesis", lone[0]), 0.0);
  // Code identifiers reach the code task's memory.
  const auto code = model.RetrieveRelevant("def fibonacci(n): sequence", "", 3);
  ASSERT_FALSE(code.empty());
  EXPECT_GT(model.TopicalAgreement("def fibonacci(n):", code[0]), 0.0);
}

TEST(BackboneTest, FluencyNoiseDeterministicAndBounded) {
  const BackboneModel model(Llama7B());
  const std::string sentence = "The government will receive the report.";
  size_t corrupted = 0;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    if (model.ApplyFluencyNoise(sentence, &rng) != sentence) ++corrupted;
  }
  EXPECT_NEAR(static_cast<double>(corrupted) / 2000.0,
              Llama7B().fluency_noise, 0.03);
}

TEST(BackboneTest, DegenerationRateMatchesProfile) {
  const BackboneModel model(ChatGlm26B());
  Rng rng(6);
  size_t degenerate = 0;
  for (int i = 0; i < 20000; ++i) {
    if (model.DegeneratesThisCall(&rng)) ++degenerate;
  }
  EXPECT_NEAR(static_cast<double>(degenerate) / 20000.0,
              ChatGlm26B().invalid_output_rate, 0.005);
}

}  // namespace
}  // namespace lm
}  // namespace coachlm

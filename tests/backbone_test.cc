#include "lm/backbone.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "synth/code_bank.h"
#include "synth/generator.h"
#include "synth/topic_bank.h"
#include "text/similarity.h"
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

/// Every memory document's association key, rebuilt as the model
/// describes it: the sorted content words of the subject plus the
/// sentences retained at `knowledge_coverage`. Uses neither the model's
/// word index nor its lookup tables, so it checks the id path too.
std::vector<std::vector<std::string>> ReferenceKeys(
    const BackboneProfile& profile) {
  Rng rng(profile.pretrain_seed);
  std::vector<std::vector<std::string>> keys;
  const auto add = [&](std::string key_source,
                       const std::vector<std::string>& sentences) {
    bool retained = false;
    for (const std::string& sentence : sentences) {
      if (rng.NextBool(profile.knowledge_coverage)) {
        key_source += " " + sentence;
        retained = true;
      }
    }
    if (retained) keys.push_back(similarity::SortedContentWords(key_source));
  };
  for (const synth::Topic& topic : synth::Topics()) {
    std::vector<std::string> sentences = {topic.fact};
    sentences.insert(sentences.end(), topic.details.begin(),
                     topic.details.end());
    add(topic.name + " " + topic.domain, sentences);
  }
  for (const synth::CodeTask& task : synth::CodeTasks()) {
    add(task.name + " " + task.description + " " + task.code + " " +
            task.buggy_code,
        task.explanation);
  }
  return keys;
}

/// The tally the scanner must reproduce, composed from
/// similarity::SortedContentWords: each distinct content word adds its
/// length to `total`, and to every document whose reference key holds it.
QueryTally ReferenceTally(const std::vector<std::vector<std::string>>& keys,
                          const std::string& text) {
  QueryTally ref;
  ref.docs.resize(keys.size());
  for (const std::string& word : similarity::SortedContentWords(text)) {
    ref.total += word.size();
    for (size_t d = 0; d < keys.size(); ++d) {
      if (!std::binary_search(keys[d].begin(), keys[d].end(), word)) continue;
      DocTally& doc = ref.docs[d];
      doc.matched += word.size();
      ++doc.count;
      doc.longest = std::max(doc.longest, word.size());
    }
  }
  return ref;
}

TEST(BackboneTest, ScannerTalliesMatchSortedContentWords) {
  const BackboneModel model(ChatGlm26B());
  const std::vector<std::vector<std::string>> keys =
      ReferenceKeys(ChatGlm26B());
  ASSERT_EQ(keys.size(), model.num_docs());
  const synth::Topic* gravity = synth::FindTopicIn("gravity");
  ASSERT_NE(gravity, nullptr);
  std::vector<std::string> texts = {
      "",
      "THE",
      "The THE the tHe and AND",
      "Gravity gravity GRAVITY gravity. (Gravity)",
      "Explain GRAVITY and Gravitational pull, then gravity again.",
      "caf\xc3\xa9 na\xc3\xafve \xc3\xbc""ber Gravity \xff\xfe bytes",
      "3.14. 3.14 pi=3.14. v2.0.1.",
      "... --- !!! ?? -- (( )) \"' ,,,",
      "zxqv ZXQV zxqv plugh PLUGH",
      "def fibonacci(n):\n    sequence = []\n\treturn sequence",
      gravity->fact + " " + gravity->details[0],
  };
  synth::CorpusConfig config;
  config.size = 40;
  config.seed = 5;
  for (const InstructionPair& pair :
       synth::SynthCorpusGenerator(config).Generate().dataset) {
    texts.push_back(pair.FullInstruction());
    texts.push_back(pair.output);
  }
  for (const std::string& text : texts) {
    const PreparedQuery query = model.Prepare(text);
    EXPECT_EQ(query.lower, strings::Lower(text));
    const QueryTally ref = ReferenceTally(keys, text);
    ASSERT_EQ(query.tally.total, ref.total) << text;
    ASSERT_EQ(query.tally.docs.size(), ref.docs.size());
    for (size_t d = 0; d < ref.docs.size(); ++d) {
      EXPECT_EQ(query.tally.docs[d].matched, ref.docs[d].matched) << text;
      EXPECT_EQ(query.tally.docs[d].count, ref.docs[d].count) << text;
      EXPECT_EQ(query.tally.docs[d].longest, ref.docs[d].longest) << text;
    }
  }
  // The reference is not vacuous: the on-topic text matches several key
  // words of one document.
  const QueryTally on_topic = ReferenceTally(keys, texts[10]);
  EXPECT_TRUE(std::any_of(on_topic.docs.begin(), on_topic.docs.end(),
                          [](const DocTally& doc) { return doc.count >= 2; }));
  // A stopword in capitals is still a stopword; unknown words count once.
  EXPECT_EQ(model.Prepare("THE").tally.total, 0u);
  EXPECT_EQ(model.Prepare("zxqv ZXQV zxqv").tally.total, 4u);
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

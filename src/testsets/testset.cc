#include "testsets/testset.h"

#include "common/rng.h"
#include "synth/content_engine.h"
#include "synth/topic_bank.h"

namespace coachlm {
namespace testsets {
namespace {

/// Topic choice mirroring the corpus generator's domain affinities.
const synth::Topic& PickTopic(Category category, Rng* rng) {
  const auto& topics = synth::Topics();
  auto pick_domain = [&](const std::string& domain) -> const synth::Topic& {
    std::vector<const synth::Topic*> matching;
    for (const synth::Topic& t : topics) {
      if (t.domain == domain) matching.push_back(&t);
    }
    if (matching.empty()) return rng->Pick(topics);
    return *matching[rng->NextBelow(matching.size())];
  };
  switch (category) {
    case Category::kScienceQa:
      return pick_domain("science");
    case Category::kHistoryQa:
      return pick_domain("history");
    default:
      return rng->Pick(topics);
  }
}

}  // namespace

TestSet BuildTestSet(const TestSetSpec& spec) {
  TestSet set;
  set.name = spec.name;
  set.reference_source = spec.reference_source;
  set.num_categories = spec.categories.size();
  synth::ContentEngine engine;
  Rng rng(spec.seed);
  for (size_t i = 0; i < spec.size; ++i) {
    const Category category = spec.categories[i % spec.categories.size()];
    const synth::Topic& topic = PickTopic(category, &rng);
    synth::ResponseRichness richness;
    richness.explanations = spec.reference_explanations;
    richness.closing = rng.NextBool(spec.reference_closing_rate);
    // Real-world test instructions carry moderate context.
    richness.context = rng.NextBool(0.4);
    InstructionPair item = engine.BuildCleanPair(
        static_cast<uint64_t>(1000000 + i), category, topic, richness, &rng);
    set.items.Add(std::move(item));
  }
  return set;
}

TestSet CoachLm150() {
  TestSetSpec spec;
  spec.name = "CoachLM150";
  spec.reference_source = "Human";
  spec.size = 150;
  spec.categories = AllCategories();  // all 42 categories
  // Expert-written references are correct and reasonably rich but concise
  // — experts answer well without padding.
  spec.reference_explanations = 2;
  spec.reference_closing_rate = 0.35;
  spec.seed = 1501;
  return BuildTestSet(spec);
}

TestSet PandaLm170() {
  TestSetSpec spec;
  spec.name = "PandaLM170";
  spec.reference_source = "ChatGPT";
  spec.size = 170;
  spec.categories = {
      Category::kGeneralQa,      Category::kSummarization,
      Category::kParaphrasing,   Category::kInformationExtraction,
      Category::kHowToGuide,     Category::kRecommendation,
      Category::kBrainstorming,  Category::kEmailDrafting,
      Category::kOpinion,        Category::kStoryWriting,
      Category::kGrammarCorrection,
  };  // 11 categories, as in Table VI
  spec.reference_explanations = 1;
  spec.reference_closing_rate = 0.15;
  spec.seed = 1701;
  return BuildTestSet(spec);
}

TestSet Vicuna80() {
  TestSetSpec spec;
  spec.name = "Vicuna80";
  spec.reference_source = "Bard";
  spec.size = 80;
  spec.categories = {
      Category::kEssayWriting,  Category::kRoleplay,
      Category::kMathProblem,   Category::kGeneralQa,
      Category::kScienceQa,     Category::kHistoryQa,
      Category::kCoding,        Category::kLogicalReasoning,
      Category::kComparison,
  };  // 9 categories: writing, role-play, math, knowledge, ...
  spec.reference_explanations = 4;
  spec.reference_closing_rate = 0.7;
  spec.seed = 801;
  return BuildTestSet(spec);
}

TestSet SelfInstruct252() {
  TestSetSpec spec;
  spec.name = "Self-instruct252";
  spec.reference_source = "Human";
  spec.size = 252;
  spec.categories = {
      Category::kEmailDrafting,     Category::kSummarization,
      Category::kGeneralQa,         Category::kDataFormatting,
      Category::kInformationExtraction, Category::kCodeExplanation,
      Category::kHowToGuide,        Category::kBrainstorming,
      Category::kSentimentAnalysis, Category::kTextClassification,
      Category::kNaming,            Category::kRecommendation,
      Category::kDialogueCompletion, Category::kTranslation,
      Category::kOrdering,
  };  // 15 application scenarios (Gmail, Twitter, GitHub, ...)
  spec.reference_explanations = 2;
  spec.reference_closing_rate = 0.25;
  spec.seed = 2521;
  return BuildTestSet(spec);
}

std::vector<TestSet> AllTestSets() {
  return {CoachLm150(), PandaLm170(), Vicuna80(), SelfInstruct252()};
}

}  // namespace testsets
}  // namespace coachlm

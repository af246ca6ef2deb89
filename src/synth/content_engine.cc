#include "synth/content_engine.h"

#include <algorithm>

#include "synth/arith.h"
#include "text/ascii.h"
#include "text/lexicons.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

namespace coachlm {
namespace synth {
namespace {

/// Deterministic neighbor topic used by comparison instructions.
const Topic& NeighborTopic(const Topic& topic) {
  const auto& topics = Topics();
  for (size_t i = 0; i < topics.size(); ++i) {
    if (topics[i].name == topic.name) {
      return topics[(i + 1) % topics.size()];
    }
  }
  return topics.front();
}

/// Applies the lexicon spelling corruptions to every applicable word.
std::string CorruptSpelling(const std::string& text) {
  std::string out = text;
  for (const auto& [good, bad] : lexicons::SpellingCorruptions()) {
    out = strings::ReplaceAll(out, good, bad);
  }
  return out;
}

/// Repairs all known corrupted spellings (inverse of CorruptSpelling).
std::string FixSpelling(const std::string& text) {
  std::string out = text;
  for (const auto& [bad, good] : lexicons::SpellingRepairs()) {
    out = strings::ReplaceAll(out, bad, good);
  }
  return out;
}

/// Lower-cases the first alphabetic character (a grammar corruption that
/// Capitalize() inverts exactly).
std::string Decapitalize(std::string s) {
  for (char& c : s) {
    if (ascii::IsAlpha(c)) {
      c = ascii::ToLower(c);
      break;
    }
  }
  return s;
}

bool IsCodeCategory(Category category) {
  return category == Category::kCoding ||
         category == Category::kCodeExplanation ||
         category == Category::kDebuggingHelp;
}

const CodeTask& CodeTaskFor(const Topic& topic) {
  // Deterministic code task keyed by topic identity so instruction and
  // response generation agree without shared mutable state.
  const auto& tasks = CodeTasks();
  size_t h = 0;
  for (char c : topic.name) h = h * 131 + static_cast<unsigned char>(c);
  return tasks[h % tasks.size()];
}

/// First clause of a sentence (up to ~60% of its words).
std::string FirstClause(const std::string& sentence) {
  const auto words = tokenizer::WhitespaceTokenize(sentence);
  const size_t keep = std::max<size_t>(3, words.size() * 3 / 5);
  std::vector<std::string> head(words.begin(),
                                words.begin() + std::min(keep, words.size()));
  return strings::Join(head, " ");
}

std::string PositiveReview(const Topic& topic) {
  return "I really enjoyed learning about " + topic.name +
         ". The material was clear, engaging, and well organized.";
}

std::string NegativeReview(const Topic& topic) {
  return "I was disappointed by the session on " + topic.name +
         ". The material felt confusing, dull, and poorly organized.";
}

}  // namespace

std::string ContentEngine::ContextSentence(Category category,
                                           const Topic& topic,
                                           Rng* rng) const {
  static const std::vector<std::string> kScaffolds = {
      "Assume the reader is a curious beginner with no background in %D.",
      "Imagine you are a patient teacher preparing material on %D.",
      "Keep the answer under 200 words and use plain language.",
      "Include at least one concrete example to support your answer.",
      "Structure the answer so each point builds on the previous one.",
      "Think through the question step by step before answering.",
  };
  (void)category;
  std::string scaffold = rng->Pick(kScaffolds);
  return strings::ReplaceAll(scaffold, "%D", topic.domain);
}

std::vector<std::string> ContentEngine::ExplanationSentences(
    const Topic& topic, Rng* rng, size_t count,
    const std::string& avoid) const {
  static const std::vector<std::string> kMarkers = {
      "For example, ", "Note that ", "In addition, ", "More specifically, ",
      "As background, ", "It also helps to know that ",
  };
  std::vector<std::string> out;
  const std::string avoid_lower = strings::Lower(avoid);
  // Deterministic rotation through details starting at a random offset.
  const size_t start = static_cast<size_t>(
      rng->NextBelow(topic.details.size()));
  for (size_t i = 0; i < topic.details.size() && out.size() < count; ++i) {
    const std::string& detail =
        topic.details[(start + i) % topic.details.size()];
    if (strings::Contains(avoid_lower, strings::Lower(detail))) continue;
    if (rng->NextBool(0.5)) {
      out.push_back(kMarkers[(start + i) % kMarkers.size()] +
                    Decapitalize(detail));
    } else {
      out.push_back(detail);
    }
  }
  return out;
}

std::string ContentEngine::ClosingLine(Rng* rng) const {
  static const std::vector<std::string> kClosings = {
      "I hope this helps — feel free to ask if anything is unclear!",
      "Hope this helps; happy to expand on any point.",
      "Let me know if you would like more detail on any step.",
      "I hope you find this useful, and good luck with your project!",
  };
  return rng->Pick(kClosings);
}

std::string ContentEngine::InstructionText(Category category,
                                           const Topic& topic,
                                           Rng* rng) const {
  auto pick = [&](std::initializer_list<const char*> options) {
    std::vector<std::string> list(options.begin(), options.end());
    return strings::ReplaceAll(rng->Pick(list), "%T", topic.name);
  };
  switch (category) {
    case Category::kInformationExtraction:
      return pick({"Extract the key facts from the following passage about %T.",
                   "List the main facts stated in this passage about %T."});
    case Category::kGrammarCorrection:
      return pick({"Correct the grammar and spelling in the following "
                   "sentence about %T.",
                   "Fix the errors in this sentence about %T."});
    case Category::kSummarization:
      return pick({"Summarize the following passage about %T in one sentence.",
                   "Give a one-sentence summary of this passage about %T."});
    case Category::kParaphrasing:
      return pick({"Paraphrase the following sentence about %T.",
                   "Rewrite this sentence about %T in your own words."});
    case Category::kTranslation:
      return pick({"Translate the following sentence about %T into French.",
                   "Render this sentence about %T in French."});
    case Category::kTextClassification:
      return pick({"Classify the following passage about %T into one of: "
                   "science, history, technology, business, arts, daily life.",
                   "Which domain does this passage about %T belong to: "
                   "science, history, technology, business, arts, or daily "
                   "life?"});
    case Category::kSentimentAnalysis:
      return pick({"Determine whether the sentiment of the following review "
                   "is positive or negative.",
                   "Is the sentiment of this review positive or negative?"});
    case Category::kKeywordExtraction:
      return pick({"Extract the most important keywords from the following "
                   "passage about %T.",
                   "List the keywords of this passage about %T."});
    case Category::kSentenceCompletion:
      return pick({"Complete the following sentence about %T.",
                   "Finish this sentence about %T."});
    case Category::kSpellingCorrection:
      return pick({"Correct the spelling mistakes in the following sentence "
                   "about %T.",
                   "Fix the misspelled words in this sentence about %T."});
    case Category::kTextSimplification:
      return pick({"Simplify the following sentence about %T so a child "
                   "could understand it.",
                   "Rewrite this sentence about %T in simpler language."});
    case Category::kDataFormatting:
      return pick({"Convert the following facts about %T into a bulleted "
                   "list.",
                   "Reformat this prose about %T as a bulleted list."});
    case Category::kTableToText:
      return pick({"Write one sentence describing the following table about "
                   "%T.",
                   "Describe the content of this table about %T in a "
                   "sentence."});
    case Category::kEntityRecognition:
      return pick({"Identify the named entities in the following sentence "
                   "about %T.",
                   "List the entities mentioned in this sentence about %T."});
    case Category::kOrdering:
      return pick({"Arrange the following points about %T in a logical "
                   "order.",
                   "Put these statements about %T into a sensible order."});
    case Category::kComparison: {
      const Topic& other = NeighborTopic(topic);
      return strings::ReplaceAll(
          pick({"Compare %T with %O in a short paragraph.",
                "What are the key differences between %T and %O?"}),
          "%O", other.name);
    }
    case Category::kGeneralQa:
      return pick({"What is %T?", "Explain %T briefly.",
                   "Can you describe %T?"});
    case Category::kInDomainQa:
      return strings::ReplaceAll(
          pick({"In the context of %D, explain the significance of %T.",
                "Why does %T matter within %D?"}),
          "%D", topic.domain);
    case Category::kScienceQa:
      return pick({"From a scientific perspective, how does %T work?",
                   "Explain the science behind %T."});
    case Category::kHistoryQa:
      return pick({"What is the historical importance of %T?",
                   "Describe the history of %T."});
    case Category::kMathProblem: {
      ArithProblem problem;
      problem.lhs = rng->NextInt(12, 97);
      problem.rhs = rng->NextInt(8, 89);
      const char ops[3] = {'+', '-', '*'};
      problem.op = ops[rng->NextBelow(3)];
      if (problem.op == '*') {
        problem.lhs = rng->NextInt(3, 19);
        problem.rhs = rng->NextInt(4, 24);
      }
      return "Calculate " + problem.Expression() +
             " and show your reasoning.";
    }
    case Category::kLogicalReasoning:
      return pick({"Premise 1: Every introductory course on %T includes "
                   "practical examples. Premise 2: This course is an "
                   "introductory course on %T. What follows?",
                   "All guides about %T recommend starting with the basics. "
                   "This book is a guide about %T. What can you conclude?"});
    case Category::kCoding: {
      const CodeTask& task = CodeTaskFor(topic);
      return "Write a Python function that " + task.description + ".";
    }
    case Category::kCodeExplanation:
      return pick({"Explain what the following Python function does.",
                   "Describe the behaviour of this Python function."});
    case Category::kDebuggingHelp:
      return pick({"Find and fix the bug in the following Python function.",
                   "This Python function is buggy. Identify the problem and "
                   "correct it."});
    case Category::kHowToGuide:
      return pick({"Give a step-by-step guide to getting started with %T.",
                   "How do I get started with %T? Provide concrete steps."});
    case Category::kRecommendation:
      return pick({"Recommend three practices for someone who wants to learn "
                   "about %T.",
                   "Suggest three ways to build a solid understanding of "
                   "%T."});
    case Category::kDialogueCompletion:
      return pick({"Continue the following dialogue naturally.",
                   "Write the next line of this conversation."});
    case Category::kOpinion:
      return pick({"What is your view on the importance of %T?",
                   "Do you think %T deserves more public attention? Why?"});
    case Category::kHealthAdvice:
      return pick({"Share general guidance about %T, with appropriate "
                   "caution.",
                   "What general advice can you give about %T?"});
    case Category::kStoryWriting:
      return pick({"Write a short story inspired by %T.",
                   "Compose a brief story in which %T plays a central "
                   "role."});
    case Category::kPoemWriting:
      return pick({"Write a short poem about %T.",
                   "Compose a four-line poem about %T."});
    case Category::kCopywriting:
      return pick({"Write a product description for an online course about "
                   "%T.",
                   "Draft marketing copy for a beginner's course on %T."});
    case Category::kEmailDrafting:
      return pick({"Draft a professional email inviting colleagues to a "
                   "lunchtime talk about %T.",
                   "Write a polite email announcing a workshop on %T."});
    case Category::kBrainstorming:
      return pick({"Brainstorm five ideas related to %T.",
                   "List five creative ideas connected to %T."});
    case Category::kNaming:
      return pick({"Suggest three names for a podcast about %T.",
                   "Propose three titles for a newsletter about %T."});
    case Category::kSloganWriting:
      return pick({"Write a slogan for a campaign promoting %T.",
                   "Create a catchy slogan about %T."});
    case Category::kJokeWriting:
      return pick({"Write a light-hearted joke about %T.",
                   "Tell a gentle joke involving %T."});
    case Category::kLyricsWriting:
      return pick({"Write a short song verse about %T.",
                   "Compose four lines of song lyrics about %T."});
    case Category::kRoleplay:
      return pick({"Pretend you are a museum guide introducing %T to "
                   "visitors.",
                   "Act as a friendly tour guide presenting %T."});
    case Category::kEssayWriting:
      return pick({"Write a short essay about %T.",
                   "Compose a brief essay discussing %T."});
    case Category::kSpeechWriting:
      return pick({"Write the opening of a speech about %T.",
                   "Draft the introduction of a talk on %T."});
  }
  return "Explain " + topic.name + ".";
}

std::string ContentEngine::InputText(Category category, const Topic& topic,
                                     Rng* rng) const {
  switch (category) {
    case Category::kInformationExtraction:
    case Category::kSummarization:
    case Category::kKeywordExtraction:
    case Category::kTextClassification:
      return topic.fact + " " + topic.details[0] + " " + topic.details[1];
    case Category::kGrammarCorrection:
      return Decapitalize(CorruptSpelling(rng->Pick(topic.details)));
    case Category::kSpellingCorrection:
      return CorruptSpelling(rng->Pick(topic.details));
    case Category::kParaphrasing:
    case Category::kTranslation:
    case Category::kTextSimplification:
    case Category::kEntityRecognition:
      return rng->Pick(topic.details);
    case Category::kSentimentAnalysis:
      return rng->NextBool(0.5) ? PositiveReview(topic)
                                : NegativeReview(topic);
    case Category::kSentenceCompletion:
      return FirstClause(topic.fact) + " ...";
    case Category::kDataFormatting:
      return topic.details[0] + " " + topic.details[1] + " " +
             topic.details[2];
    case Category::kTableToText:
      return "subject | domain\n" + topic.name + " | " + topic.domain;
    case Category::kOrdering:
      return "A) " + topic.details[2] + "\nB) " + topic.details[0] + "\nC) " +
             topic.details[1];
    case Category::kCodeExplanation:
      return CodeTaskFor(topic).code;
    case Category::kDebuggingHelp:
      return CodeTaskFor(topic).buggy_code;
    case Category::kDialogueCompletion:
      return "A: I have been curious about " + topic.name +
             " lately.\nB: What would you like to know?\nA: Just the "
             "essentials to get oriented.";
    default:
      return "";
  }
}

std::string ContentEngine::CoreAnswer(Category category, const Topic& topic,
                                      const std::string& instruction_text,
                                      const std::string& input_text,
                                      Rng* rng) const {
  switch (category) {
    case Category::kInformationExtraction: {
      std::string out = "The key facts are:";
      for (const std::string& s : tokenizer::SplitSentences(input_text)) {
        out += "\n- " + s;
      }
      return out;
    }
    case Category::kGrammarCorrection:
      return "Corrected sentence: " +
             strings::Capitalize(FixSpelling(input_text));
    case Category::kSpellingCorrection:
      return "Corrected sentence: " + FixSpelling(input_text);
    case Category::kSummarization:
      return "In short, " + Decapitalize(topic.fact);
    case Category::kParaphrasing:
      return "In other words: " + input_text;
    case Category::kTranslation:
      return "French translation: [FR] " + input_text;
    case Category::kTextClassification:
      return "Category: " + topic.domain + ".";
    case Category::kSentimentAnalysis: {
      const bool positive = strings::Contains(input_text, "enjoyed") ||
                            strings::Contains(input_text, "clear");
      return positive
                 ? "Sentiment: positive. The review praises the material as "
                   "clear and engaging."
                 : "Sentiment: negative. The review criticizes the material "
                   "as confusing and dull.";
    }
    case Category::kKeywordExtraction:
      return "Keywords: " + topic.name + ", " + topic.domain + ".";
    case Category::kSentenceCompletion:
      return topic.fact;
    case Category::kTextSimplification:
      return "Simply put: " + Decapitalize(topic.fact);
    case Category::kDataFormatting: {
      std::string out = "Here is the list:";
      for (const std::string& s : tokenizer::SplitSentences(input_text)) {
        out += "\n- " + s;
      }
      return out;
    }
    case Category::kTableToText:
      return "The table shows that " + topic.name + " belongs to the " +
             topic.domain + " domain.";
    case Category::kEntityRecognition:
      return "Entities: " + topic.name + " (" + topic.domain + ").";
    case Category::kOrdering:
      return "A sensible order is:\n1. " + topic.details[0] + "\n2. " +
             topic.details[1] + "\n3. " + topic.details[2];
    case Category::kComparison: {
      const Topic& other = NeighborTopic(topic);
      return topic.fact + " By contrast, " + Decapitalize(other.fact) +
             " The former sits in the " + topic.domain +
             " domain while the latter belongs to " + other.domain + ".";
    }
    case Category::kGeneralQa:
    case Category::kInDomainQa:
    case Category::kScienceQa:
    case Category::kHistoryQa:
      return topic.fact;
    case Category::kMathProblem: {
      auto problem = ParseArithProblem(instruction_text);
      if (!problem) return "The result cannot be determined.";
      const int64_t answer = problem->Answer();
      return "Let's work through it: " + problem->Expression() + " = " +
             std::to_string(answer) + ". The answer is " +
             std::to_string(answer) + ".";
    }
    case Category::kLogicalReasoning: {
      // Echo the predicate of whichever premise template was used so the
      // conclusion actually answers the stated syllogism.
      if (strings::Contains(instruction_text, "practical examples")) {
        return "It follows that this course also includes practical "
               "examples, because it belongs to the class the first premise "
               "describes: introductory courses on " + topic.name + ".";
      }
      return "It follows that this book also recommends starting with the "
             "basics, because it is a guide about " + topic.name +
             " and the first premise covers all such guides.";
    }
    case Category::kCoding: {
      // Answer the task the instruction actually asked for; the
      // topic-derived task is only a fallback for instruction text that
      // names no known task.
      const CodeTask* task = FindCodeTaskIn(instruction_text);
      if (task == nullptr) task = &CodeTaskFor(topic);
      return "Here is a Python function that " + task->description +
             ":\n```python\n" + task->code + "\n```";
    }
    case Category::kCodeExplanation: {
      const CodeTask* task = FindCodeTaskIn(input_text);
      if (task == nullptr) task = &CodeTaskFor(topic);
      return "This function " + task->description + ". " +
             task->explanation[0];
    }
    case Category::kDebuggingHelp: {
      const CodeTask* task = FindCodeTaskIn(input_text);
      if (task == nullptr) task = &CodeTaskFor(topic);
      return "The bug: " + task->bug_note + ". Corrected version:\n```python\n" +
             task->code + "\n```";
    }
    case Category::kHowToGuide:
      return "Here is a practical way to begin:\n1. " + topic.details[0] +
             "\n2. " + topic.details[1] + "\n3. " + topic.details[2];
    case Category::kRecommendation:
      return "Three practices that work well:\n1. " + topic.details[0] +
             "\n2. " + topic.details[1] + "\n3. " + topic.details[2];
    case Category::kDialogueCompletion:
      return "B: Happy to share the essentials. " + topic.fact;
    case Category::kOpinion:
      return "I believe " + topic.name + " deserves real attention. " +
             topic.details[0];
    case Category::kHealthAdvice:
      return topic.fact +
             " Please remember this is general information, not a "
             "substitute for professional advice.";
    case Category::kStoryWriting:
      return "Maya had always wondered about " + topic.name + ". " +
             topic.details[0] +
             " That evening, watching the city settle into dusk, she "
             "finally understood: " + Decapitalize(topic.fact);
    case Category::kPoemWriting:
      return "Quiet minds that seek to see,\nfind in " + topic.name +
             " a key;\nwhat the patient learner knows,\nline by line, the "
             "insight grows.";
    case Category::kCopywriting:
      return "Discover " + topic.name +
             " the approachable way! Our self-paced course takes you from "
             "curious beginner to confident practitioner. " +
             topic.details[0];
    case Category::kEmailDrafting:
      return "Subject: Lunchtime talk on " + topic.name +
             "\n\nDear colleagues,\n\nYou are warmly invited to a short "
             "lunchtime talk about " + topic.name + " this Thursday. " +
             topic.details[0] + "\n\nBest regards,\nThe Learning Team";
    case Category::kBrainstorming:
      return "Five ideas:\n1. Start a study group focused on " + topic.name +
             ".\n2. " + topic.details[0] + "\n3. " + topic.details[1] +
             "\n4. " + topic.details[2] +
             "\n5. Interview a local expert and share the notes.";
    case Category::kNaming: {
      const std::string cap = strings::Capitalize(topic.name);
      return "Three name ideas:\n1. \"" + cap + " Weekly\"\n2. \"The " + cap +
             " Companion\"\n3. \"Field Notes on " + cap + "\"";
    }
    case Category::kSloganWriting: {
      std::string slogan = "\"";
      slogan += strings::Capitalize(topic.name);
      slogan += ": understand it today, use it tomorrow.\"";
      return slogan;
    }
    case Category::kJokeWriting:
      return "Why did the student bring a ladder to the lecture on " +
             topic.name + "? Because they heard the subject was on a whole "
             "new level!";
    case Category::kLyricsWriting:
      return "Verse:\nWe chased the dawn to learn the way,\nof " +
             topic.name + " come what may,\nwith every page a wider view,\n"
             "the old world suddenly looked new.";
    case Category::kRoleplay:
      return "Welcome, everyone! Right this way. Before us is our exhibit "
             "on " + topic.name + ". " + topic.fact +
             " Take a moment to look closely — there is more here than "
             "first meets the eye.";
    case Category::kEssayWriting:
      return strings::Capitalize(topic.name) +
             " rewards a closer look. " + topic.fact + " " +
             topic.details[0] + " " + topic.details[1] +
             " Taken together, these points show why the subject continues "
             "to matter.";
    case Category::kSpeechWriting:
      return "Friends and colleagues, thank you for being here. Today I "
             "want to talk about " + topic.name + ", and why it deserves "
             "ten minutes of your attention. " + topic.fact;
  }
  (void)rng;
  return topic.fact;
}

InstructionPair ContentEngine::BuildCleanPair(uint64_t id, Category category,
                                              const Topic& topic,
                                              const ResponseRichness& richness,
                                              Rng* rng) const {
  InstructionPair pair;
  pair.id = id;
  pair.category = category;
  pair.instruction = InstructionText(category, topic, rng);
  pair.input = InputText(category, topic, rng);
  if (richness.context) {
    pair.instruction += ' ';
    pair.instruction += ContextSentence(category, topic, rng);
  }
  std::string response =
      CoreAnswer(category, topic, pair.instruction, pair.input, rng);
  std::vector<std::string> explanations;
  if (IsCodeCategory(category)) {
    const CodeTask& task = CodeTaskFor(topic);
    for (size_t i = 0; i < richness.explanations && i < task.explanation.size();
         ++i) {
      explanations.push_back(task.explanation[i]);
    }
  } else if (category == Category::kMathProblem) {
    if (richness.explanations > 0) {
      explanations.push_back(
          "Breaking the computation into smaller steps makes it easy to "
          "verify each part of the result.");
    }
  } else {
    explanations =
        ExplanationSentences(topic, rng, richness.explanations, response);
  }
  for (const std::string& sentence : explanations) {
    // List-style cores already contain some detail sentences; avoid
    // repeating them verbatim as explanations.
    if (strings::Contains(strings::Lower(response),
                          strings::Lower(sentence))) {
      continue;
    }
    response += " " + sentence;
  }
  if (richness.closing) {
    response += ' ';
    response += ClosingLine(rng);
  }
  pair.output = response;
  return pair;
}

const Topic& ContentEngine::TopicFor(const InstructionPair& pair) const {
  const Topic* found = FindTopicIn(pair.FullInstruction() + " " + pair.output);
  if (found != nullptr) return *found;
  // Deterministic fallback keyed by id so ambiguous pairs get a stable,
  // plausible subject (the expert "chooses" a topic when disambiguating).
  const auto& topics = Topics();
  return topics[pair.id % topics.size()];
}

std::string ContentEngine::RebuildResponse(const InstructionPair& pair,
                                           const ResponseRichness& richness,
                                           Rng* rng) const {
  const Topic& topic = TopicFor(pair);
  std::string response = CoreAnswer(pair.category, topic, pair.instruction,
                                    pair.input, rng);
  std::vector<std::string> explanations;
  if (IsCodeCategory(pair.category)) {
    const CodeTask* task = FindCodeTaskIn(pair.instruction + " " + pair.input);
    if (task == nullptr) task = &CodeTaskFor(topic);
    for (size_t i = 0; i < richness.explanations && i < task->explanation.size();
         ++i) {
      explanations.push_back(task->explanation[i]);
    }
  } else if (pair.category == Category::kMathProblem) {
    if (richness.explanations > 0) {
      explanations.push_back(
          "Breaking the computation into smaller steps makes it easy to "
          "verify each part of the result.");
    }
  } else {
    explanations =
        ExplanationSentences(topic, rng, richness.explanations, response);
  }
  for (const std::string& sentence : explanations) {
    response += " " + sentence;
  }
  if (richness.closing) {
    response += ' ';
    response += ClosingLine(rng);
  }
  return response;
}

}  // namespace synth
}  // namespace coachlm

#include "quality/analyzers.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "synth/arith.h"
#include "synth/code_bank.h"
#include "synth/topic_bank.h"
#include "text/ascii.h"
#include "text/lexicons.h"
#include "text/similarity.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

namespace coachlm {
namespace quality {
namespace analyzers {
namespace {

/// Counts known misspellings in \p text. Substring matching catches
/// corruptions inside hyphenated compounds ("one-sentance") that word
/// tokenization would hide; misspelled forms are distinctive enough not to
/// occur inside correctly spelled words.
size_t CountMisspellings(const std::string& text) {
  const std::string lower = strings::Lower(text);
  auto is_alpha = [&lower](size_t i) {
    return i < lower.size() && ascii::IsAlpha(lower[i]);
  };
  size_t count = 0;
  // COACHLM_LINT_ALLOW(determinism-unordered-serialization): order-insensitive count; the '+=' only advances this iteration's scan cursor.
  for (const auto& [bad, good] : lexicons::SpellingRepairs()) {
    (void)good;
    size_t pos = 0;
    while ((pos = lower.find(bad, pos)) != std::string::npos) {
      // Word-boundary guard: "wich" must not fire inside "sandwich".
      const bool left_ok = pos == 0 || !is_alpha(pos - 1);
      const bool right_ok = !is_alpha(pos + bad.size());
      if (left_ok && right_ok) ++count;
      pos += bad.size();
    }
  }
  return count;
}

/// True when a sentence starts with a lower-case letter.
size_t CountDecapitalizedSentences(const std::string& text) {
  size_t count = 0;
  for (const std::string& sentence : tokenizer::SplitSentences(text)) {
    for (char c : sentence) {
      if (ascii::IsAlpha(c)) {
        if (ascii::IsLower(c)) ++count;
        break;
      }
      if (!ascii::IsSpace(c) && c != '"' && c != '\'' && c != '(' &&
          c != '-' && c != '[' && !ascii::IsDigit(c)) {
        break;
      }
      if (ascii::IsDigit(c)) break;  // list items
    }
  }
  return count;
}

/// Counts immediately repeated words ("the the").
size_t CountDoubledWords(const std::string& text) {
  const auto words = tokenizer::WhitespaceTokenize(text);
  size_t count = 0;
  for (size_t i = 1; i < words.size(); ++i) {
    if (words[i].size() > 1 && words[i] == words[i - 1]) ++count;
  }
  return count;
}

/// Expected response form of a category: short answers (a slogan, a
/// sentiment label) are not judged by long-form standards.
enum class Form { kShort, kMid, kLong };

Form FormOf(Category category) {
  switch (category) {
    case Category::kSloganWriting:
    case Category::kNaming:
    case Category::kJokeWriting:
    case Category::kSentimentAnalysis:
    case Category::kTextClassification:
    case Category::kKeywordExtraction:
    case Category::kEntityRecognition:
    case Category::kTranslation:
    case Category::kSentenceCompletion:
    case Category::kParaphrasing:
    case Category::kTextSimplification:
    case Category::kTableToText:
    case Category::kSpellingCorrection:
    case Category::kGrammarCorrection:
    case Category::kMathProblem:
    case Category::kPoemWriting:
      return Form::kShort;
    case Category::kEssayWriting:
    case Category::kSpeechWriting:
    case Category::kStoryWriting:
    case Category::kHowToGuide:
    case Category::kRecommendation:
    case Category::kComparison:
    case Category::kCopywriting:
    case Category::kEmailDrafting:
    case Category::kRoleplay:
    case Category::kBrainstorming:
      return Form::kLong;
    default:
      return Form::kMid;
  }
}

/// Word-count target for full marks on the length component of Richness.
double LengthTarget(Category category) {
  switch (FormOf(category)) {
    case Form::kShort:
      return 35.0;
    case Form::kMid:
      return 85.0;
    case Form::kLong:
      return 120.0;
  }
  return 85.0;
}

/// Removes fenced code blocks so prose-level checks (spacing, casing) do
/// not penalize code indentation.
std::string StripCodeFences(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  bool in_fence = false;
  for (size_t i = 0; i < text.size(); ++i) {
    if (i + 2 < text.size() && text[i] == '`' && text[i + 1] == '`' &&
        text[i + 2] == '`') {
      in_fence = !in_fence;
      i += 2;
      continue;
    }
    if (!in_fence) out += text[i];
  }
  return out;
}

/// Patterns that make an instruction logically impossible for a text model.
const std::vector<std::string>& InfeasiblePatterns() {
  static const std::vector<std::string> kPatterns = {
      "exactly zero words", "shorter than one word",
      "without any words containing vowels",
      "not use any words containing vowels",
      "before reading this instruction",
  };
  return kPatterns;
}

/// Requests a pure text model cannot satisfy (multi-modal payloads).
const std::vector<std::string>& MultiModalPatterns() {
  static const std::vector<std::string> kPatterns = {
      "in the photo", "this video", "audio recording", "(binary attachment)",
  };
  return kPatterns;
}

/// Dead-reference placeholders that invalidate the task input.
const std::vector<std::string>& DeadInputPatterns() {
  static const std::vector<std::string> kPatterns = {
      "[Link to an article]", "<noinput>", "(see the attachment)",
      "[DOCUMENT REMOVED]",
  };
  return kPatterns;
}

}  // namespace

double ContentOverlap(const std::string& a, const std::string& b) {
  return similarity::ContentOverlap(a, b);
}

bool IsShortFormCategory(Category category) {
  return FormOf(category) == Form::kShort;
}

double InstructionReadability(const InstructionPair& pair) {
  const std::string& text = pair.instruction;
  if (strings::IsBlank(text)) return 0.0;
  double score = 1.0;
  score -= 0.30 * static_cast<double>(CountMisspellings(text));
  score -= 0.25 * static_cast<double>(CountDecapitalizedSentences(text));
  score -= 0.20 * static_cast<double>(CountDoubledWords(text));
  return std::clamp(score, 0.0, 1.0);
}

double Feasibility(const InstructionPair& pair) {
  const std::string full = pair.FullInstruction();
  double score = 1.0;
  const std::string lower = strings::Lower(full);
  for (const std::string& filler : lexicons::AmbiguityFillers()) {
    if (strings::Contains(lower, filler)) score -= 0.5;
  }
  // Vague hedge density.
  size_t hedges = 0;
  for (const std::string& token : tokenizer::WordTokenize(lower)) {
    if (lexicons::HedgeWords().count(token) > 0) ++hedges;
  }
  if (hedges >= 2) score -= 0.3;
  for (const std::string& pattern : InfeasiblePatterns()) {
    if (strings::Contains(lower, strings::Lower(pattern))) score -= 0.7;
  }
  for (const std::string& pattern : MultiModalPatterns()) {
    if (strings::Contains(full, pattern)) score -= 0.7;
  }
  for (const std::string& pattern : DeadInputPatterns()) {
    if (strings::Contains(full, pattern)) score -= 0.7;
  }
  return std::clamp(score, 0.0, 1.0);
}

double Contextualization(const InstructionPair& pair) {
  const std::string full = pair.FullInstruction();
  const std::string lower = strings::Lower(full);
  double score = 0.0;
  static const std::vector<std::string> kContextCues = {
      "assume",      "imagine",     "you are",     "for example",
      "include at least", "step by step", "under",  "structure the answer",
      "plain language",   "concrete example", "builds on",
      "think through",
  };
  for (const std::string& cue : kContextCues) {
    if (strings::Contains(lower, cue)) score += 0.45;
  }
  // A meaningful input payload itself provides context.
  if (strings::CountWords(pair.input) >= 8) score += 0.35;
  // Longer, specific instructions carry more context than bare requests.
  const size_t words = strings::CountWords(pair.instruction);
  if (words >= 18) score += 0.3;
  else if (words >= 12) score += 0.15;
  return std::clamp(score, 0.0, 1.0);
}

double Safety(const InstructionPair& pair) {
  const std::string all = pair.FullInstruction() + " " + pair.output;
  const std::string lower = strings::Lower(all);
  for (const std::string& term : lexicons::UnsafeTerms()) {
    if (strings::Contains(lower, strings::Lower(term))) return 0.0;
  }
  return 1.0;
}

double Correctness(const InstructionPair& pair) {
  if (strings::IsBlank(pair.output)) return 0.0;
  double score = 1.0;
  // Knowledge check: a corrupted fact in the response is a factual error.
  for (const synth::Topic& topic : synth::Topics()) {
    if (strings::Contains(pair.output, topic.wrong_fact)) {
      score -= 0.8;
      break;
    }
  }
  // Arithmetic check (math tasks only — digits inside code or data are not
  // an arithmetic question): recompute any stated result.
  if (pair.category == Category::kMathProblem) {
    const auto problem = synth::ParseArithProblem(pair.FullInstruction());
    if (problem) {
      const auto stated = synth::ParseStatedResult(pair.output);
      if (stated && *stated != problem->Answer()) score -= 0.8;
      if (!stated) score -= 0.2;  // a math answer should state the result
    }
  }
  return std::clamp(score, 0.0, 1.0);
}

double Relevance(const InstructionPair& pair) {
  if (strings::IsBlank(pair.output)) return 0.0;
  const std::string full = pair.FullInstruction();
  // Subject check: a knowledgeable rater recognizes whether the response
  // speaks about the subject the instruction names — even when the
  // response never repeats the name itself.
  const synth::Topic* asked = synth::FindTopicIn(full);
  if (asked != nullptr) {
    if (synth::TopicOwnsText(*asked, pair.output)) return 1.0;
    const synth::Topic* answered = synth::FindOwningTopic(pair.output);
    if (answered != nullptr && answered->name != asked->name) return 0.1;
  }
  // Code tasks: the response should carry the requested function (or its
  // description).
  const synth::CodeTask* task = synth::FindCodeTaskIn(full);
  if (task != nullptr) {
    if (strings::Contains(pair.output, task->name) ||
        strings::Contains(pair.output, task->description) ||
        strings::Contains(pair.output, task->code)) {
      return 1.0;
    }
  }
  // Math tasks: stating a result for the asked expression is on-topic.
  if (synth::ParseArithProblem(full) &&
      synth::ParseStatedResult(pair.output)) {
    return 1.0;
  }
  const double overlap = ContentOverlap(full, pair.output);
  if (overlap >= 0.08) return 1.0;
  if (overlap >= 0.04) return 0.8;
  if (overlap >= 0.015) return 0.6;
  return 0.35;
}

double Comprehensiveness(const InstructionPair& pair) {
  const std::string trimmed = strings::Trim(pair.output);
  if (trimmed.empty()) return 0.0;
  double score = 1.0;
  // Truncation: a response should end with terminal punctuation (or a code
  // fence / list item).
  const char last = trimmed.back();
  const bool terminal = last == '.' || last == '!' || last == '?' ||
                        last == '"' || last == '`' || last == ')';
  if (!terminal) score -= 0.5;
  const size_t words = strings::CountWords(trimmed);
  const size_t min_words = FormOf(pair.category) == Form::kShort ? 3
                           : FormOf(pair.category) == Form::kMid ? 12
                                                                 : 16;
  if (words < min_words / 2) score -= 0.5;
  else if (words < min_words) score -= 0.25;
  // Extraction/formatting tasks should cover every input sentence.
  if (!pair.input.empty() &&
      (pair.category == Category::kInformationExtraction ||
       pair.category == Category::kDataFormatting)) {
    const auto inputs = tokenizer::SplitSentences(pair.input);
    size_t covered = 0;
    for (const std::string& sentence : inputs) {
      if (similarity::Containment(sentence, pair.output) > 0.7) ++covered;
    }
    if (!inputs.empty() && covered < inputs.size()) {
      score -= 0.4 * (1.0 - static_cast<double>(covered) /
                                static_cast<double>(inputs.size()));
    }
  }
  return std::clamp(score, 0.0, 1.0);
}

double ResponseReadability(const InstructionPair& pair) {
  if (strings::IsBlank(pair.output)) return 0.0;
  // Code keeps its own spacing and casing; judge the prose around it.
  const std::string text = StripCodeFences(pair.output);
  if (strings::IsBlank(text)) return 1.0;  // pure code block
  double score = 1.0;
  score -= 0.25 * static_cast<double>(CountMisspellings(text));
  // Verse and code legitimately start lines in lower case.
  const bool free_case = pair.category == Category::kPoemWriting ||
                         pair.category == Category::kLyricsWriting ||
                         pair.category == Category::kCoding ||
                         pair.category == Category::kCodeExplanation ||
                         pair.category == Category::kDebuggingHelp;
  if (!free_case) {
    score -= 0.20 * static_cast<double>(CountDecapitalizedSentences(text));
  }
  score -= 0.20 * static_cast<double>(CountDoubledWords(text));
  // Layout damage: flattened list markers or stray machine markers.
  if (strings::Contains(text, " - ") && !strings::Contains(text, "\n- ")) {
    score -= 0.3;
  }
  if (strings::Contains(text, " 2. ") && !strings::Contains(text, "\n2. ")) {
    score -= 0.3;
  }
  if (strings::Contains(text, "OUTPUT:")) score -= 0.4;
  if (strings::Contains(text, "  ")) score -= 0.15;
  return std::clamp(score, 0.0, 1.0);
}

double Richness(const InstructionPair& pair) {
  const std::string& text = pair.output;
  const size_t words = strings::CountWords(text);
  if (words == 0) return 0.0;
  double score = 0.0;
  // Depth: explanation markers used (less expected of short-form answers).
  const std::string lower = strings::Lower(text);
  size_t markers = 0;
  for (const std::string& marker : lexicons::ExplanationMarkers()) {
    if (strings::Contains(lower, marker)) ++markers;
  }
  const double marker_weight =
      FormOf(pair.category) == Form::kShort ? 0.10 : 0.15;
  score += marker_weight * static_cast<double>(std::min<size_t>(markers, 3));
  // Breadth: supporting sentences beyond the first.
  const size_t sentences = tokenizer::SplitSentences(text).size();
  if (sentences >= 2) score += 0.12;
  if (sentences >= 4) score += 0.10;
  // Length contributes the rest, saturating at the category's target.
  score += 0.48 * std::min(1.0, static_cast<double>(words) /
                                    LengthTarget(pair.category));
  return std::clamp(score, 0.0, 1.0);
}

double Humanization(const InstructionPair& pair) {
  const std::string lower = strings::Lower(pair.output);
  if (lower.empty()) return 0.0;
  for (const std::string& opener : lexicons::MechanicalOpeners()) {
    if (strings::Contains(pair.output, opener)) return 0.05;
  }
  double score = 0.4;  // neutral, competent tone
  for (const std::string& marker : lexicons::PolitenessMarkers()) {
    if (strings::Contains(lower, strings::Lower(marker))) {
      score += 0.35;
      break;
    }
  }
  // First/second person address reads warmer than detached prose.
  if (strings::Contains(lower, "you")) score += 0.15;
  if (strings::Contains(lower, " i ") || strings::StartsWith(lower, "i ")) {
    score += 0.1;
  }
  return std::clamp(score, 0.0, 1.0);
}

}  // namespace analyzers
}  // namespace quality
}  // namespace coachlm

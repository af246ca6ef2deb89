#include "expert/reviser.h"

#include <algorithm>
#include <array>

#include "quality/analyzers.h"
#include "synth/arith.h"
#include "synth/topic_bank.h"
#include "text/lexicons.h"
#include "text/repair.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

namespace coachlm {
namespace expert {
namespace {

using quality::Dimension;

/// Removes sentences whose deletion improves the feasibility score
/// (infeasible requirements the expert strikes out).
std::string StripInfeasibleClauses(const InstructionPair& pair) {
  const auto sentences = tokenizer::SplitSentences(pair.instruction);
  if (sentences.size() < 2) return pair.instruction;
  InstructionPair probe = pair;
  const double baseline = quality::analyzers::Feasibility(pair);
  std::vector<std::string> kept;
  for (size_t i = 0; i < sentences.size(); ++i) {
    std::vector<std::string> without;
    for (size_t j = 0; j < sentences.size(); ++j) {
      if (j != i) without.push_back(sentences[j]);
    }
    probe.instruction = strings::Join(without, " ");
    if (quality::analyzers::Feasibility(probe) > baseline + 1e-9) {
      continue;  // dropping sentence i helps: it is the infeasible clause
    }
    kept.push_back(sentences[i]);
  }
  if (kept.empty()) kept.push_back(sentences.front());
  return strings::Join(kept, " ");
}

/// Replaces vague fillers with the pair's recovered subject.
std::string Disambiguate(const std::string& instruction,
                         const synth::Topic& topic) {
  std::string out = instruction;
  for (const std::string& filler : lexicons::AmbiguityFillers()) {
    out = strings::ReplaceAll(out, filler, topic.name);
  }
  return out;
}

/// Corrects known factual corruptions and mis-stated arithmetic.
bool FixFacts(InstructionPair* pair) {
  bool changed = false;
  for (const synth::Topic& topic : synth::Topics()) {
    if (strings::Contains(pair->output, topic.wrong_fact)) {
      pair->output =
          strings::ReplaceAll(pair->output, topic.wrong_fact, topic.fact);
      changed = true;
    }
  }
  const auto problem = synth::ParseArithProblem(pair->FullInstruction());
  if (problem) {
    const auto stated = synth::ParseStatedResult(pair->output);
    if (stated && *stated != problem->Answer()) {
      const std::string wrong = std::to_string(*stated);
      const std::string right = std::to_string(problem->Answer());
      pair->output = strings::ReplaceAll(pair->output, "= " + wrong,
                                         "= " + right);
      pair->output = strings::ReplaceAll(
          pair->output, "answer is " + wrong, "answer is " + right);
      changed = true;
    }
  }
  return changed;
}

bool HasLayoutDamage(const std::string& text) {
  if (strings::Contains(text, "OUTPUT:")) return true;
  if (strings::Contains(text, "  ")) return true;
  if (strings::Contains(text, " - ") && !strings::Contains(text, "\n- ")) {
    return true;
  }
  if (strings::Contains(text, " 2. ") && !strings::Contains(text, "\n2. ")) {
    return true;
  }
  return false;
}

void RepairLayout(InstructionPair* pair) {
  std::string out = pair->output;
  out = strings::ReplaceAll(out, "OUTPUT:", "");
  out = strings::Trim(out);
  if (strings::Contains(out, " - ") || strings::Contains(out, " 2. ")) {
    out = repair::ReflowLists(out);
  }
  out = repair::CollapseSpaces(out);
  pair->output = out;
}

void StripMechanicalOpener(InstructionPair* pair) {
  for (const std::string& opener : lexicons::MechanicalOpeners()) {
    if (strings::StartsWith(pair->output, opener)) {
      pair->output = strings::Trim(pair->output.substr(opener.size()));
      return;
    }
  }
}

bool HasClosing(const std::string& text) {
  const std::string lower = strings::Lower(text);
  for (const std::string& marker : lexicons::PolitenessMarkers()) {
    if (strings::Contains(lower, strings::Lower(marker))) return true;
  }
  return false;
}

}  // namespace

const std::string& InstructionRevisionTypeName(InstructionRevisionType type) {
  static const std::array<std::string, 3> kNames = {
      "Adjust (readability)", "Rewrite (feasibility)",
      "Diversify (contextualization)"};
  return kNames[static_cast<size_t>(type)];
}

const std::string& ResponseRevisionTypeName(ResponseRevisionType type) {
  static const std::array<std::string, 5> kNames = {
      "Diversify/Expand (comprehensiveness, richness)",
      "Rewrite (relevance, readability, correctness)",
      "Adjust (layout, tone)", "Correct (facts, calculations)",
      "Other (safety, complex)"};
  return kNames[static_cast<size_t>(type)];
}

bool ExpertReviser::IsLacking(const InstructionPair& pair) const {
  const quality::PairQuality q = quality::ScorePair(pair);
  if (q.instruction.HasBasicFlaw() || q.response.HasBasicFlaw()) return true;
  if (q.response.RedLineViolated()) return true;
  // A blatantly robotic tone violates the advanced-experience expectations
  // badly enough that experts adjust it (23.3% of Table IV revisions).
  if (q.response.Satisfaction(Dimension::kHumanization) < 0.2) return true;
  // Ultra-thin answers lack the advanced dimensions badly enough that the
  // criteria flag them ("no omission of necessary angles") — short-form
  // categories excepted, where a brief answer is the expected shape.
  if (!quality::analyzers::IsShortFormCategory(pair.category)) {
    const double richness = q.response.Satisfaction(Dimension::kRichness);
    if (richness < 0.18 && strings::CountWords(pair.output) < 22) return true;
  }
  return false;
}

void ExpertReviser::RepairInstruction(
    InstructionPair* pair, Rng* rng,
    std::optional<InstructionRevisionType>* type) const {
  const quality::QualityScore score =
      quality::InstructionScorer().Score(*pair);
  const double feasibility = score.Satisfaction(Dimension::kFeasibility);
  const double readability =
      score.Satisfaction(Dimension::kInstructionReadability);
  if (feasibility < 0.999) {
    const synth::Topic& topic = engine_->TopicFor(*pair);
    pair->instruction = StripInfeasibleClauses(*pair);
    pair->instruction = Disambiguate(pair->instruction, topic);
    *type = InstructionRevisionType::kRewriteFeasibility;
  }
  if (readability < 0.999) {
    pair->instruction = repair::FixKnownSpelling(pair->instruction);
    pair->instruction =
        repair::CapitalizeSentences(std::move(pair->instruction));
    pair->instruction = repair::RemoveDoubledWords(pair->instruction);
    if (!type->has_value()) {
      *type = InstructionRevisionType::kAdjustReadability;
    }
  }
  // Context diversification: experts selectively enrich bare instructions
  // with requirements/scenarios — the rarest instruction revision
  // (7% in Table IV), applied with matching restraint.
  const double context =
      score.Satisfaction(Dimension::kContextualization);
  if (!type->has_value() && context < 0.10 && rng->NextBool(0.12)) {
    const synth::Topic& topic = engine_->TopicFor(*pair);
    pair->instruction +=
        " " + engine_->ContextSentence(pair->category, topic, rng);
    *type = InstructionRevisionType::kDiversifyContext;
  }
}

void ExpertReviser::RepairResponse(
    InstructionPair* pair, Rng* rng,
    std::optional<ResponseRevisionType>* type) const {
  const quality::QualityScore score = quality::ResponseScorer().Score(*pair);
  const double safety = score.Satisfaction(Dimension::kSafety);
  const double correctness = score.Satisfaction(Dimension::kCorrectness);
  const double relevance = score.Satisfaction(Dimension::kRelevance);
  const double comprehensiveness =
      score.Satisfaction(Dimension::kComprehensiveness);
  const double readability =
      score.Satisfaction(Dimension::kResponseReadability);
  const double humanization = score.Satisfaction(Dimension::kHumanization);

  synth::ResponseRichness rich;
  rich.explanations = 4;
  rich.closing = true;

  if (safety < 0.5) {
    // A retained red-line pair: replace the unsafe request with a safe one
    // on a neutral subject and answer it properly.
    const synth::Topic& topic = engine_->TopicFor(*pair);
    pair->instruction = "Explain " + topic.name + " to a general audience.";
    pair->input.clear();
    pair->output = engine_->RebuildResponse(*pair, rich, rng);
    *type = ResponseRevisionType::kOther;
    return;
  }
  if (strings::IsBlank(pair->output) || relevance < 0.6) {
    // Empty or off-topic: rewrite wholesale.
    pair->output = engine_->RebuildResponse(*pair, rich, rng);
    *type = ResponseRevisionType::kRewriteContent;
    return;
  }
  if (correctness < 0.999) {
    const bool fixed = FixFacts(pair);
    if (fixed && !type->has_value()) {
      *type = ResponseRevisionType::kCorrectFacts;
    }
    if (!fixed) {
      pair->output = engine_->RebuildResponse(*pair, rich, rng);
      *type = ResponseRevisionType::kRewriteContent;
      return;
    }
  }
  if (comprehensiveness < 0.999) {
    // Truncated or thin: rebuild with expanded reasoning (the dominant
    // revision type of Table IV).
    pair->output = engine_->RebuildResponse(*pair, rich, rng);
    if (!type->has_value()) {
      *type = ResponseRevisionType::kDiversifyExpand;
    }
    return;
  }
  if (readability < 0.999) {
    if (HasLayoutDamage(pair->output)) {
      RepairLayout(pair);
      if (!type->has_value()) {
        *type = ResponseRevisionType::kAdjustLayoutTone;
      }
    }
    pair->output = repair::FixKnownSpelling(pair->output);
    pair->output = repair::CapitalizeSentences(std::move(pair->output));
    if (!strings::Contains(pair->output, "\n")) {
      pair->output = repair::RemoveDoubledWords(pair->output);
    }
    if (!type->has_value()) {
      *type = ResponseRevisionType::kRewriteContent;
    }
  }
  if (humanization < 0.3) {
    StripMechanicalOpener(pair);
    if (!HasClosing(pair->output)) {
      pair->output += " " + engine_->ClosingLine(rng);
    }
    if (!type->has_value()) {
      *type = ResponseRevisionType::kAdjustLayoutTone;
    }
  }
}

void ExpertReviser::Enrich(InstructionPair* pair, Rng* rng,
                           size_t* iterations) const {
  // "Making all necessary revisions": grow the response — unused
  // supporting details, then a warm closing — until the response side
  // meets the target score. The instruction side is handled by
  // RepairInstruction; appending context to every instruction would not
  // match expert behaviour (Table IV shows context additions are rare).
  const synth::Topic& topic = engine_->TopicFor(*pair);
  for (size_t attempt = 0; attempt < 7; ++attempt) {
    const quality::QualityScore response =
        quality::ResponseScorer().Score(*pair);
    if (response.score >= target_score_) return;
    ++*iterations;
    bool changed = false;
    for (const std::string& detail : topic.details) {
      if (!strings::Contains(pair->output, detail)) {
        pair->output += " For example, " + detail;
        changed = true;
        break;
      }
    }
    if (!HasClosing(pair->output)) {
      pair->output += " " + engine_->ClosingLine(rng);
      changed = true;
    }
    if (!changed) return;  // nothing left to add; accept the plateau
  }
}

RevisionOutcome ExpertReviser::Revise(const InstructionPair& pair,
                                      Rng* rng) const {
  RevisionOutcome outcome;
  outcome.revised_pair = pair;
  if (!IsLacking(pair)) {
    outcome.final_quality = quality::ScorePair(pair);
    return outcome;
  }
  RepairInstruction(&outcome.revised_pair, rng, &outcome.instruction_type);
  RepairResponse(&outcome.revised_pair, rng, &outcome.response_type);
  Enrich(&outcome.revised_pair, rng, &outcome.iterations);
  outcome.final_quality = quality::ScorePair(outcome.revised_pair);
  // Track which sides actually changed; a side-specific "type" without a
  // text change is dropped (keeps Table IV counts honest).
  if (outcome.revised_pair.instruction == pair.instruction &&
      outcome.revised_pair.input == pair.input) {
    outcome.instruction_type.reset();
  }
  if (outcome.revised_pair.output == pair.output) {
    outcome.response_type.reset();
  }
  outcome.revised = outcome.revised_pair.instruction != pair.instruction ||
                    outcome.revised_pair.input != pair.input ||
                    outcome.revised_pair.output != pair.output;
  // Thin-but-clean pairs that only gained enrichment count as
  // Diversify/Expand.
  if (outcome.revised && !outcome.response_type.has_value() &&
      outcome.revised_pair.output != pair.output) {
    outcome.response_type = ResponseRevisionType::kDiversifyExpand;
  }
  return outcome;
}

}  // namespace expert
}  // namespace coachlm

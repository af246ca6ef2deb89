#include "synth/defect.h"

#include <array>

#include "synth/arith.h"
#include "text/ascii.h"

#include "text/lexicons.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

namespace coachlm {
namespace synth {
namespace {

constexpr std::array<const char*, kNumDefectTypes> kDefectNames = {
    "empty_response", "truncated_response", "missing_explanation",
    "spelling_noise", "instruction_spelling_noise", "grammar_noise",
    "broken_layout", "ambiguous_instruction", "infeasible_instruction",
    "irrelevant_response", "factual_error", "mechanical_tone",
    "missing_context", "invalid_input", "beyond_expertise",
    "massive_workload", "multi_modal", "unsafe",
};

/// Corrupts up to \p max_words known words in \p text.
std::string InjectSpelling(const std::string& text, size_t max_words) {
  std::string out = text;
  size_t done = 0;
  for (const auto& [good, bad] : lexicons::SpellingCorruptions()) {
    if (done >= max_words) break;
    if (strings::Contains(out, good)) {
      out = strings::ReplaceAll(out, good, bad);
      ++done;
    }
  }
  return out;
}

std::string Decap(std::string s) {
  for (char& c : s) {
    if (ascii::IsAlpha(c)) {
      c = ascii::ToLower(c);
      break;
    }
  }
  return s;
}

}  // namespace

const std::string& DefectName(DefectType type) {
  static const std::array<std::string, kNumDefectTypes> kNames = [] {
    std::array<std::string, kNumDefectTypes> names;
    for (size_t i = 0; i < kNumDefectTypes; ++i) names[i] = kDefectNames[i];
    return names;
  }();
  return kNames[static_cast<uint8_t>(type)];
}

bool IsExclusionDefect(DefectType type) {
  return static_cast<uint8_t>(type) >=
         static_cast<uint8_t>(DefectType::kInvalidInput);
}

bool DefectInjector::Apply(DefectType type, InstructionPair* pair,
                           Rng* rng) const {
  switch (type) {
    case DefectType::kEmptyResponse:
      if (pair->output.empty()) return false;
      pair->output.clear();
      return true;

    case DefectType::kTruncatedResponse: {
      const auto words = tokenizer::WhitespaceTokenize(pair->output);
      if (words.size() < 8) return false;
      const size_t keep = words.size() * 2 / 5;
      std::vector<std::string> head(words.begin(), words.begin() + keep);
      pair->output = strings::Join(head, " ");
      return true;
    }

    case DefectType::kMissingExplanation: {
      // Keep only the first sentence (or the first list line) of the
      // response: the thin, unexplained answer pattern.
      const auto sentences = tokenizer::SplitSentences(pair->output);
      if (sentences.size() < 2) return false;
      pair->output = sentences.front();
      return true;
    }

    case DefectType::kSpellingNoise: {
      const std::string noisy = InjectSpelling(pair->output, 3);
      if (noisy == pair->output) return false;
      pair->output = noisy;
      return true;
    }

    case DefectType::kInstructionSpellingNoise: {
      const std::string noisy = InjectSpelling(pair->instruction, 2);
      if (noisy == pair->instruction) {
        // Fall back to a decapitalized instruction; still a readability
        // defect the expert repairs.
        const std::string decap = Decap(pair->instruction);
        if (decap == pair->instruction) return false;
        pair->instruction = decap;
        return true;
      }
      pair->instruction = noisy;
      return true;
    }

    case DefectType::kGrammarNoise: {
      // Decapitalize sentence starts and double a word: classic LLM slip.
      auto sentences = tokenizer::SplitSentences(pair->output);
      if (sentences.empty()) return false;
      for (std::string& s : sentences) s = Decap(s);
      std::string joined = strings::Join(sentences, " ");
      auto words = tokenizer::WhitespaceTokenize(joined);
      if (words.size() > 4) {
        const size_t at = 1 + rng->NextBelow(words.size() - 2);
        words.insert(words.begin() + static_cast<long>(at), words[at]);
        joined = strings::Join(words, " ");
      }
      pair->output = joined;
      return true;
    }

    case DefectType::kBrokenLayout: {
      std::string flat = pair->output;
      const bool had_newlines = strings::Contains(flat, "\n");
      flat = strings::ReplaceAll(flat, "\n- ", " - ");
      flat = strings::ReplaceAll(flat, "\n1. ", " 1. ");
      flat = strings::ReplaceAll(flat, "\n2. ", " 2. ");
      flat = strings::ReplaceAll(flat, "\n3. ", " 3. ");
      flat = strings::ReplaceAll(flat, "\n4. ", " 4. ");
      flat = strings::ReplaceAll(flat, "\n5. ", " 5. ");
      flat = strings::ReplaceAll(flat, "\n", "  ");
      if (!had_newlines) {
        // Inject a stray machine marker and double spacing instead.
        flat = "OUTPUT:  " + flat;
      }
      pair->output = flat;
      return true;
    }

    case DefectType::kAmbiguousInstruction: {
      const Topic* topic = FindTopicIn(pair->instruction);
      if (topic == nullptr) return false;
      pair->instruction = strings::ReplaceAll(
          pair->instruction, topic->name,
          rng->Pick(lexicons::AmbiguityFillers()));
      return true;
    }

    case DefectType::kInfeasibleInstruction: {
      static const std::vector<std::string> kImpossible = {
          " Answer in exactly zero words.",
          " Make the answer both shorter than one word and longer than "
          "two paragraphs.",
          " Do not use any words containing vowels.",
          " Provide the answer before reading this instruction.",
      };
      pair->instruction += rng->Pick(kImpossible);
      return true;
    }

    case DefectType::kIrrelevantResponse: {
      // Swap in a response about an unrelated topic.
      const Topic& current = engine_->TopicFor(*pair);
      const auto& topics = Topics();
      const Topic* other = &topics[(pair->id + 7) % topics.size()];
      if (other->name == current.name) {
        other = &topics[(pair->id + 13) % topics.size()];
      }
      pair->output = other->fact + " " + other->details[0];
      return true;
    }

    case DefectType::kFactualError: {
      for (const Topic& topic : Topics()) {
        if (strings::Contains(pair->output, topic.fact)) {
          pair->output = strings::ReplaceAll(pair->output, topic.fact,
                                             topic.wrong_fact);
          return true;
        }
      }
      // Math pairs: corrupt the stated result instead.
      auto problem = ParseArithProblem(pair->instruction);
      auto stated = ParseStatedResult(pair->output);
      if (problem && stated) {
        const std::string good = "= " + std::to_string(*stated);
        const std::string bad = "= " + std::to_string(*stated + 10);
        pair->output = strings::ReplaceAll(pair->output, good, bad);
        pair->output = strings::ReplaceAll(
            pair->output, "answer is " + std::to_string(*stated),
            "answer is " + std::to_string(*stated + 10));
        return true;
      }
      return false;
    }

    case DefectType::kMechanicalTone: {
      std::string out = pair->output;
      // Strip warm closings, then prepend a robotic opener.
      for (const std::string& marker : lexicons::PolitenessMarkers()) {
        const size_t at = strings::Lower(out).find(strings::Lower(marker));
        if (at != std::string::npos) {
          // Remove the sentence containing the marker.
          size_t begin = out.rfind('.', at);
          begin = begin == std::string::npos ? 0 : begin + 1;
          size_t end = out.find_first_of(".!?", at);
          end = end == std::string::npos ? out.size() : end + 1;
          out = out.substr(0, begin) + out.substr(end);
        }
      }
      pair->output = rng->Pick(lexicons::MechanicalOpeners()) + " " +
                     strings::Trim(out);
      return true;
    }

    case DefectType::kMissingContext: {
      // Strip any context scaffold sentence from the instruction, leaving a
      // bare, minimal request.
      const auto sentences = tokenizer::SplitSentences(pair->instruction);
      if (sentences.size() < 2) return false;
      pair->instruction = sentences.front();
      return true;
    }

    case DefectType::kInvalidInput: {
      static const std::vector<std::string> kDead = {
          "[Link to an article]", "<noinput>", "(see the attachment)",
          "[DOCUMENT REMOVED]",
      };
      pair->input = rng->Pick(kDead);
      return true;
    }

    case DefectType::kBeyondExpertise: {
      static const std::vector<std::string> kNiche = {
          "Generate the chords for an E minor scale in drop-D tuning.",
          "Derive the renormalization group flow for this lattice model.",
          "Write the Verilog for a 5-stage pipelined RISC core.",
          "Produce the full legal brief for this patent dispute.",
      };
      pair->instruction = rng->Pick(kNiche);
      pair->input.clear();
      return true;
    }

    case DefectType::kMassiveWorkload: {
      static const std::vector<std::string> kHeavy = {
          "From the given lyrics, create a haiku poem preserving every "
          "image.",
          "Rewrite this entire novel chapter in iambic pentameter.",
          "Translate this 40-stanza poem preserving rhyme and meter.",
      };
      pair->instruction = rng->Pick(kHeavy);
      return true;
    }

    case DefectType::kMultiModal: {
      static const std::vector<std::string> kModal = {
          "List the products in the photo.",
          "Describe what happens in this video clip.",
          "Transcribe the attached audio recording.",
      };
      pair->instruction = rng->Pick(kModal);
      pair->input = "(binary attachment)";
      return true;
    }

    case DefectType::kUnsafe: {
      const auto& terms = lexicons::UnsafeTerms();
      pair->instruction = "Explain " + rng->Pick(terms) + ".";
      pair->input.clear();
      return true;
    }
  }
  return false;
}

}  // namespace synth
}  // namespace coachlm

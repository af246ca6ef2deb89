#include "coach/verifier.h"

#include "text/repair.h"

namespace coachlm {
namespace coach {

std::optional<std::string> ExpansionVerifier::Verify(
    const lm::PreparedQuery& context, const std::string& sentence,
    VerifierStats* stats) const {
  if (stats != nullptr) ++stats->checked;

  // Grounding check: an expansion that does not co-activate the context's
  // memory region is the hallucination signature — drop it.
  const double agreement = backbone_->TopicalAgreement(context, sentence);
  if (agreement < min_agreement_) {
    if (stats != nullptr) ++stats->rejected;
    return std::nullopt;
  }

  // Fluency self-consistency: re-decode through the backbone's surface
  // competence and keep whichever form the fluency LM prefers.
  std::string repaired = repair::FixKnownSpelling(sentence);
  repaired = repair::CapitalizeSentences(std::move(repaired));
  if (repaired != sentence) {
    const NgramLm& fluency = backbone_->fluency_lm();
    if (fluency.Perplexity(repaired) < fluency.Perplexity(sentence)) {
      if (stats != nullptr) ++stats->repaired;
      return repaired;
    }
  }
  return sentence;
}

}  // namespace coach
}  // namespace coachlm

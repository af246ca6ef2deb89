#ifndef COACHLM_COACH_VERIFIER_H_
#define COACHLM_COACH_VERIFIER_H_

#include <optional>
#include <string>

#include "lm/backbone.h"

namespace coachlm {
namespace coach {

/// \brief Statistics of an expansion-verification pass.
struct VerifierStats {
  size_t checked = 0;
  /// Sentences whose surface slips the verifier repaired in place.
  size_t repaired = 0;
  /// Sentences rejected as off-topic (would-be hallucinations).
  size_t rejected = 0;
};

/// \brief The paper's future-work extension: an RL-style self-check on
/// generated expansions (Section IV-B reports CoachLM occasionally
/// "expanded upon hallucinated content"; Section VI proposes integrating
/// RL signals to mitigate it).
///
/// Before an expansion sentence is appended, the verifier spends extra
/// backbone compute on it:
///  1. *Fluency self-consistency*: the sentence is re-decoded through the
///     backbone's surface competence (spelling/casing repair); if the
///     repaired form is more probable under the backbone's fluency LM, the
///     repaired form replaces the sampled one — the analogue of rejecting
///     low-reward samples.
///  2. *Grounding*: the sentence must activate the same memory region as
///     the task context (associative agreement above a floor); ungrounded
///     content — the hallucination signature — is rejected outright.
///
/// Enabled via CoachConfig::verify_expansions; the default (off) matches
/// the published system, and bench_ablation_verifier measures the delta.
class ExpansionVerifier {
 public:
  ExpansionVerifier(const lm::BackboneModel* backbone,
                    double min_agreement = 0.08)
      : backbone_(backbone), min_agreement_(min_agreement) {}

  /// Verifies one candidate expansion sentence against the task context
  /// (prepared by the same backbone).
  /// Returns the (possibly repaired) sentence to append, or nullopt when
  /// the sentence should be dropped. \p stats (optional) accumulates
  /// counters.
  std::optional<std::string> Verify(const lm::PreparedQuery& context,
                                    const std::string& sentence,
                                    VerifierStats* stats = nullptr) const;

 private:
  const lm::BackboneModel* backbone_;
  double min_agreement_;
};

}  // namespace coach
}  // namespace coachlm

#endif  // COACHLM_COACH_VERIFIER_H_

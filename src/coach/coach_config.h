#ifndef COACHLM_COACH_COACH_CONFIG_H_
#define COACHLM_COACH_COACH_CONFIG_H_

#include <cstdint>

#include "lm/backbone.h"

namespace coachlm {
namespace coach {

/// \brief Hyper-parameters of coach instruction tuning (Section III-A3).
struct CoachConfig {
  /// Human input ratio α (Section II-F2): fraction of R, ranked by edit
  /// distance, used for training. 0 means the raw backbone is used.
  double alpha = 0.3;
  /// Backbone model profile; the main experiment uses ChatGLM2 (6B).
  lm::BackboneProfile backbone = lm::ChatGlm26B();
  /// Training epochs (the paper uses 7). Rule estimation is exact, so
  /// epochs are recorded for fidelity but do not change the estimate.
  int epochs = 7;
  /// Learning rate of the paper's LoRA fine-tune (2e-4); recorded only.
  double learning_rate = 2e-4;
  /// Minimum support before a learned rule fires at inference.
  size_t min_rule_support = 2;
  /// Seed for inference-time sampling (expansion choice, noise).
  uint64_t seed = 23;
  /// Future-work extension (Section VI): verify generated expansions with
  /// an RL-style backbone self-check before appending them (grounding +
  /// fluency self-consistency; see coach/verifier.h). Off by default to
  /// match the published system.
  bool verify_expansions = false;
  /// No effect: rules are always applied through the one engine
  /// (docs/RULE_ENGINE.md). Kept so callers that still assign it compile.
  bool compiled_rules = true;
};

}  // namespace coach
}  // namespace coachlm

#endif  // COACHLM_COACH_COACH_CONFIG_H_

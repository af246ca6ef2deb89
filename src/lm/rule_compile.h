#ifndef COACHLM_LM_RULE_COMPILE_H_
#define COACHLM_LM_RULE_COMPILE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "lm/rule_store.h"

namespace coachlm {
namespace lm {

/// \brief One precompiled substitution: `to` is the support-winning
/// replacement for `from` (BestSubstitution), resolved at compile time.
/// Entries whose best replacement is empty never edit text, so they are
/// dropped.
struct CompiledTokenSub {
  std::string from;
  std::string to;
};

/// \brief A rule store frozen for application.
///
/// Everything CoachLm's apply path reads per pair is resolved here once,
/// at model load: family vectors in apply order (std::map order for
/// token_subs and fillers, PhrasesAbove order — support desc, phrase asc —
/// for the phrase tables), support gates resolved to booleans, and
/// aggregate rates copied. The apply path probes the searched families
/// (token_subs froms, strip_phrases, fillers, openers, strip_tokens) with
/// plain string search; the rotation tables (markers, closings,
/// context_exemplars) are picked by an RNG index. docs/RULE_ENGINE.md
/// specifies the apply order and RNG draws.
class CompiledRuleSet {
 public:
  CompiledRuleSet(const RuleStore& rules, size_t min_support);

  /// \name Searched families, in apply order
  /// @{
  const std::vector<CompiledTokenSub>& token_subs() const {
    return token_subs_;
  }
  const std::vector<std::string>& strip_phrases() const {
    return strip_phrases_;
  }
  const std::vector<std::string>& fillers() const { return fillers_; }
  const std::vector<std::string>& openers() const { return openers_; }
  const std::vector<std::string>& strip_tokens() const {
    return strip_tokens_;
  }
  /// @}

  /// \name Rotation tables (indexed by an RNG draw, never searched)
  /// @{
  const std::vector<std::string>& markers() const { return markers_; }
  const std::vector<std::string>& closings() const { return closings_; }
  const std::vector<std::string>& context_exemplars() const {
    return context_exemplars_;
  }
  /// @}

  /// \name Support gates and aggregates, resolved at compile time
  /// @{
  bool capitalize() const { return capitalize_; }
  bool remove_doubled() const { return remove_doubled_; }
  bool reflow() const { return reflow_; }
  double closing_rate() const { return closing_rate_; }
  double context_add_rate() const { return context_add_rate_; }
  double rewrite_overlap_threshold() const {
    return rewrite_overlap_threshold_;
  }
  double mean_target_response_words() const {
    return mean_target_response_words_;
  }
  /// clamp(llround(mean_appended_sentences), 0, 4), precomputed.
  size_t expansion_budget() const { return expansion_budget_; }
  /// @}

  /// Rules searched inside text: the five searched families' sizes summed.
  size_t num_patterns() const {
    return token_subs_.size() + strip_phrases_.size() + fillers_.size() +
           openers_.size() + strip_tokens_.size();
  }

 private:
  std::vector<CompiledTokenSub> token_subs_;
  std::vector<std::string> strip_phrases_;
  std::vector<std::string> fillers_;
  std::vector<std::string> openers_;
  std::vector<std::string> strip_tokens_;
  std::vector<std::string> markers_;
  std::vector<std::string> closings_;
  std::vector<std::string> context_exemplars_;
  bool capitalize_ = false;
  bool remove_doubled_ = false;
  bool reflow_ = false;
  double closing_rate_ = 0.0;
  double context_add_rate_ = 0.0;
  double rewrite_overlap_threshold_ = -1.0;
  double mean_target_response_words_ = 0.0;
  size_t expansion_budget_ = 0;
};

}  // namespace lm
}  // namespace coachlm

#endif  // COACHLM_LM_RULE_COMPILE_H_

#include "lm/rule_compile.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace coachlm {
namespace lm {

CompiledRuleSet::CompiledRuleSet(const RuleStore& rules, size_t min_support)
    : strip_phrases_(RuleStore::PhrasesAbove(rules.strip_phrases, min_support)),
      openers_(RuleStore::PhrasesAbove(rules.opener_removals, min_support)),
      strip_tokens_(RuleStore::PhrasesAbove(rules.strip_tokens, min_support)),
      markers_(RuleStore::PhrasesAbove(rules.markers, min_support)),
      closings_(RuleStore::PhrasesAbove(rules.closings, min_support)),
      context_exemplars_(
          RuleStore::PhrasesAbove(rules.context_exemplars, min_support)),
      capitalize_(rules.capitalize_support >= min_support),
      remove_doubled_(rules.doubled_removal_support >= min_support),
      reflow_(rules.reflow_support >= min_support),
      closing_rate_(rules.closing_rate),
      context_add_rate_(rules.context_add_rate),
      rewrite_overlap_threshold_(rules.rewrite_overlap_threshold),
      mean_target_response_words_(rules.mean_target_response_words),
      expansion_budget_(static_cast<size_t>(
          std::clamp(std::llround(rules.mean_appended_sentences), 0LL, 4LL))) {
  // token_subs, in std::map (lexicographic) order. The best replacement is
  // resolved now; an entry whose best is empty would never edit text.
  for (const auto& [from, targets] : rules.token_subs) {
    (void)targets;
    std::string to = rules.BestSubstitution(from, min_support);
    if (to.empty()) continue;
    token_subs_.push_back({from, std::move(to)});
  }
  // Fillers, in map order; only phrases replaced with *varying* content
  // (>= 2 distinct replacements) mean "substitute the subject".
  for (const auto& [filler, replacements] : rules.filler_replacements) {
    if (replacements.size() >= 2) fillers_.push_back(filler);
  }
}

}  // namespace lm
}  // namespace coachlm

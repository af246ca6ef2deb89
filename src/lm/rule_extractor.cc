#include "lm/rule_extractor.h"

#include <algorithm>

#include "text/alignment.h"
#include "text/ascii.h"
#include "text/edit_distance.h"
#include "text/lexicons.h"
#include "text/similarity.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

namespace coachlm {
namespace lm {
namespace {

bool IsCaseOnlyChange(const std::string& a, const std::string& b) {
  return a != b && strings::Lower(a) == strings::Lower(b);
}

bool IsSpellingLikeChange(const std::string& a, const std::string& b) {
  if (a == b || a.size() < 3 || b.size() < 3) return false;
  if (tokenizer::IsPunctuation(a) || tokenizer::IsPunctuation(b)) return false;
  const size_t distance = editdist::CharDistanceBounded(a, b, 2);
  return distance <= 2;
}

/// Joins tokens back into a phrase with simple spacing (learning-side only;
/// inference uses string replacement of these exact phrases).
std::string JoinPhrase(const std::vector<std::string>& tokens) {
  return tokenizer::Detokenize(tokens);
}

/// Splits a token sequence into sentence-sized chunks at ./!/? tokens.
std::vector<std::vector<std::string>> SplitTokenSentences(
    const std::vector<std::string>& tokens) {
  std::vector<std::vector<std::string>> sentences;
  std::vector<std::string> current;
  for (const std::string& token : tokens) {
    if (token == kLayoutNewline) {
      if (!current.empty()) {
        sentences.push_back(current);
        current.clear();
      }
      continue;
    }
    current.push_back(token);
    if (token == "." || token == "!" || token == "?") {
      sentences.push_back(current);
      current.clear();
    }
  }
  if (!current.empty()) sentences.push_back(current);
  return sentences;
}

bool LooksLikeListToken(const std::string& token) {
  if (token == "-") return true;
  if (token.empty()) return false;
  // "1.", "2.", ... or bare digits preceding a "." token.
  return ascii::IsDigit(token.front()) && token.size() <= 2;
}

}  // namespace

std::vector<std::string> TokenizeWithLayout(const std::string& text) {
  const std::string marked =
      strings::ReplaceAll(text, "\n", " " + std::string(kLayoutNewline) + " ");
  return tokenizer::WordTokenize(marked);
}

bool LooksLikeClosing(const std::string& sentence) {
  if (sentence.find('!') != std::string::npos) return true;
  static const std::vector<std::string> kLowerMarkers = [] {
    std::vector<std::string> markers;
    for (const std::string& marker : lexicons::PolitenessMarkers()) {
      markers.push_back(strings::Lower(marker));
    }
    return markers;
  }();
  const std::string lower = strings::Lower(sentence);
  for (const std::string& marker : kLowerMarkers) {
    if (strings::Contains(lower, marker)) return true;
  }
  return false;
}

size_t MechanicalOpenerLength(const std::string& text) {
  for (const std::string& opener : lexicons::MechanicalOpeners()) {
    if (strings::StartsWith(text, opener)) return opener.size();
  }
  return 0;
}

RuleExtractor::RuleExtractor(RelatednessFn relatedness)
    : relatedness_(std::move(relatedness)) {
  if (!relatedness_) {
    relatedness_ = [](const InstructionPair& pair) {
      return similarity::ContentOverlap(pair.FullInstruction(), pair.output);
    };
  }
}

void RuleExtractor::Consume(const RevisionRecord& record) {
  ++consumed_;
  LearnInstructionSide(record);
  LearnResponseSide(record);
  total_target_words_ +=
      static_cast<double>(strings::CountWords(record.revised.output));
}

void RuleExtractor::LearnInstructionSide(const RevisionRecord& record) {
  const std::string& src_text = record.original.instruction;
  const std::string& tgt_text = record.revised.instruction;
  if (src_text == tgt_text) return;
  const auto src = TokenizeWithLayout(src_text);
  const auto tgt = TokenizeWithLayout(tgt_text);
  const auto script = align::Align(src, tgt);
  const auto hunks = align::ExtractHunks(script);
  bool context_added = false;
  for (const align::Hunk& hunk : hunks) {
    const bool pure_insert = hunk.src_tokens.empty();
    const bool pure_delete = hunk.tgt_tokens.empty();
    if (hunk.src_tokens.size() == 1 && hunk.tgt_tokens.size() == 1) {
      const std::string& from = hunk.src_tokens[0];
      const std::string& to = hunk.tgt_tokens[0];
      if (IsCaseOnlyChange(from, to)) {
        ++store_.capitalize_support;
      } else if (IsSpellingLikeChange(from, to)) {
        ++store_.token_subs[from][to];
      } else if (from.size() >= 4) {
        // A content replacement: candidate vague-filler substitution.
        store_.filler_replacements[from].insert(to);
      }
      continue;
    }
    if (pure_insert && hunk.src_begin >= src.size() &&
        hunk.tgt_tokens.size() >= 4) {
      // Trailing insertion: an added context scaffold sentence.
      for (const auto& sentence : SplitTokenSentences(hunk.tgt_tokens)) {
        if (sentence.size() >= 4) {
          ++store_.context_exemplars[JoinPhrase(sentence)];
          context_added = true;
        }
      }
      continue;
    }
    if (pure_delete && hunk.src_tokens.size() >= 3) {
      // Deleted clause (infeasible requirement removed by the expert).
      ++store_.strip_phrases[JoinPhrase(hunk.src_tokens)];
      continue;
    }
    if (!pure_insert && !pure_delete && hunk.src_tokens.size() <= 3 &&
        hunk.tgt_tokens.size() <= 6) {
      // Short phrase replaced by other content: filler candidate.
      store_.filler_replacements[JoinPhrase(hunk.src_tokens)].insert(
          JoinPhrase(hunk.tgt_tokens));
    }
  }
  if (context_added) ++contexts_added_;
}

void RuleExtractor::LearnResponseSide(const RevisionRecord& record) {
  const std::string& src_text = record.original.output;
  const std::string& tgt_text = record.revised.output;
  if (src_text == tgt_text) return;
  // Wholesale rewrites teach "replace, don't patch". Detection uses
  // containment of the original's content in the revision: an *expansion*
  // preserves the original text (containment stays high even though the
  // revision is much longer), a rewrite discards it.
  const double preserved = similarity::Containment(src_text, tgt_text);
  const bool rewrite = preserved < 0.45 || src_text.empty();
  const double original_relatedness = relatedness_(record.original);
  if (rewrite) {
    ++rewrites_;
    rewritten_overlap_sum_ += original_relatedness;
  } else {
    ++patched_count_;
    patched_overlap_sum_ += original_relatedness;
  }
  if (rewrite && src_text.empty()) return;  // nothing to align against

  const auto src = TokenizeWithLayout(src_text);
  const auto tgt = TokenizeWithLayout(tgt_text);
  const auto script = align::Align(src, tgt);
  const auto hunks = align::ExtractHunks(script);
  size_t appended_sentences = 0;
  bool closing_added = false;
  for (const align::Hunk& hunk : hunks) {
    const bool pure_insert = hunk.src_tokens.empty();
    const bool pure_delete = hunk.tgt_tokens.empty();
    // Leading deletion: a removed mechanical opener. Learned from rewrite
    // records too — even a full rewrite demonstrates that the leading
    // boilerplate had to go (pure leading deletions stay cleanly separated
    // from the replacement hunks of a rewrite).
    if (pure_delete && hunk.src_begin == 0 && hunk.src_tokens.size() >= 2) {
      ++store_.opener_removals[JoinPhrase(hunk.src_tokens)];
      continue;
    }
    if (hunk.src_tokens.size() == 1 && hunk.tgt_tokens.size() == 1) {
      const std::string& from = hunk.src_tokens[0];
      const std::string& to = hunk.tgt_tokens[0];
      if (IsCaseOnlyChange(from, to)) {
        ++store_.capitalize_support;
      } else if (IsSpellingLikeChange(from, to)) {
        ++store_.token_subs[from][to];
      }
      continue;
    }
    // Doubled-word removal: single deleted token equal to its neighbour.
    if (pure_delete && hunk.src_tokens.size() == 1) {
      const size_t at = hunk.src_begin;
      const std::string& tok = hunk.src_tokens[0];
      const bool doubled =
          (at > 0 && src[at - 1] == tok) ||
          (at + 1 < src.size() && src[at + 1] == tok);
      if (doubled) {
        ++store_.doubled_removal_support;
        continue;
      }
      if (tok.size() >= 3) ++store_.strip_tokens[tok];
      continue;
    }
    // Layout reflow: newline tokens inserted next to list markers.
    if (pure_insert) {
      size_t newline_inserts = 0;
      for (const std::string& tok : hunk.tgt_tokens) {
        if (tok == kLayoutNewline) ++newline_inserts;
      }
      if (newline_inserts > 0 &&
          newline_inserts * 2 >= hunk.tgt_tokens.size()) {
        const size_t at = hunk.src_begin;
        if (at < src.size() && LooksLikeListToken(src[at])) {
          ++store_.reflow_support;
          continue;
        }
        ++store_.reflow_support;  // layout-only insertion elsewhere
        continue;
      }
      // Content insertion: appended explanation sentences (at the tail) or
      // inline enrichment. Count whole sentences; from *patch-style*
      // revisions also learn stock phrases — repeated final sentences with
      // terminal punctuation are closing candidates, and comma-terminated
      // two-token prefixes are discourse-marker candidates. Rewrite hunks
      // teach "replace", not "append these phrases", so they are excluded
      // from phrase learning.
      const auto sentences = SplitTokenSentences(hunk.tgt_tokens);
      for (const auto& sentence : sentences) {
        if (sentence.size() < 3) continue;
        ++appended_sentences;
        {
          const std::string joined = JoinPhrase(sentence);
          if (joined.find('!') != std::string::npos ||
              strings::Contains(strings::Lower(joined), "hope") ||
              strings::Contains(strings::Lower(joined), "let me know")) {
            closing_added = true;
          }
        }
        if (rewrite) continue;  // rewrites teach "replace", not phrases
        const std::string joined = JoinPhrase(sentence);
        const char last = joined.empty() ? ' ' : joined.back();
        if ((last == '.' || last == '!' || last == '?') &&
            LooksLikeClosing(joined)) {
          ++store_.closings[joined];
        }
        if (sentence.size() > 3 && sentence[2] == ",") {
          std::vector<std::string> prefix(sentence.begin(),
                                          sentence.begin() + 3);
          ++store_.markers[JoinPhrase(prefix)];
        }
      }
      continue;
    }
    // Mixed replacement hunks: track layout reflow evidence inside them.
    size_t newline_gain = 0;
    for (const std::string& tok : hunk.tgt_tokens) {
      if (tok == kLayoutNewline) ++newline_gain;
    }
    for (const std::string& tok : hunk.src_tokens) {
      if (tok == kLayoutNewline && newline_gain > 0) --newline_gain;
    }
    if (newline_gain >= 2) ++store_.reflow_support;
  }
  total_appended_sentences_ += appended_sentences;
  if (closing_added) ++closings_added_;
}

RuleStore RuleExtractor::Finalize() const {
  RuleStore store = store_;
  store.train_pairs = consumed_;
  if (consumed_ > 0) {
    const double n = static_cast<double>(consumed_);
    store.mean_appended_sentences =
        static_cast<double>(total_appended_sentences_) / n;
    store.mean_target_response_words = total_target_words_ / n;
    store.closing_rate = static_cast<double>(closings_added_) / n;
    store.context_add_rate = static_cast<double>(contexts_added_) / n;
    store.rewrite_rate = static_cast<double>(rewrites_) / n;
  }
  // Rewrite policy: experts rewrote originals whose response related
  // weakly to the instruction. The learned decision boundary is the
  // midpoint of the class means (only meaningful with both classes seen).
  if (rewrites_ > 0 && patched_count_ > 0) {
    const double rewritten_mean =
        rewritten_overlap_sum_ / static_cast<double>(rewrites_);
    const double patched_mean =
        patched_overlap_sum_ / static_cast<double>(patched_count_);
    if (patched_mean > rewritten_mean) {
      store.rewrite_overlap_threshold = (rewritten_mean + patched_mean) / 2.0;
    }
  }
  // Drop low-support closing/marker candidates: genuine closings and
  // discourse markers are stock phrases reused across many revisions;
  // topical sentences and their prefixes are not. The cut scales with the
  // training-set size so noise cannot sneak in through sheer volume.
  const size_t closing_cut =
      std::max<size_t>(2, consumed_ / 15);
  for (auto it = store.closings.begin(); it != store.closings.end();) {
    it = it->second < closing_cut ? store.closings.erase(it) : std::next(it);
  }
  const size_t marker_cut = std::max<size_t>(2, consumed_ / 20);
  for (auto it = store.markers.begin(); it != store.markers.end();) {
    it = it->second < marker_cut ? store.markers.erase(it) : std::next(it);
  }
  return store;
}

}  // namespace lm
}  // namespace coachlm

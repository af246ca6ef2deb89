#ifndef COACHLM_TEXT_NGRAM_LM_H_
#define COACHLM_TEXT_NGRAM_LM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "text/vocab.h"

namespace coachlm {

/// \brief Interpolated trigram language model with additive smoothing.
///
/// Stands in for the backbone LLM's fluency judgement: the backbone
/// (lm/backbone.h) trains one on its knowledge, and the expansion verifier
/// (coach/verifier.h) uses its perplexity as a fluency signal. Small and
/// exact — no GPU, fully deterministic.
class NgramLm {
 public:
  /// \param order n-gram order in {1, 2, 3}.
  explicit NgramLm(int order = 3);

  /// Accumulates counts from one sentence (word tokens).
  void AddSentence(const std::vector<std::string>& tokens);

  /// Accumulates counts from raw text (tokenized per sentence).
  void AddText(const std::string& text);

  /// Log10 probability of the sentence under the interpolated model.
  double SentenceLogProb(const std::vector<std::string>& tokens) const;

  /// Per-token perplexity of the text; lower is more fluent. Returns a
  /// large sentinel (1e9) for empty input or an untrained model.
  double Perplexity(const std::string& text) const;

  /// Total tokens observed in training.
  size_t train_tokens() const { return total_tokens_; }

  /// Vocabulary reference.
  const Vocab& vocab() const { return vocab_; }

 private:
  using Key = uint64_t;
  static Key MakeKey(uint32_t a, uint32_t b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  double UnigramProb(uint32_t w) const;
  double BigramProb(uint32_t a, uint32_t w) const;
  double TrigramProb(uint32_t a, uint32_t b, uint32_t w) const;
  double InterpolatedProb(uint32_t a, uint32_t b, uint32_t w) const;

  int order_;
  Vocab vocab_;
  std::unordered_map<uint32_t, uint64_t> unigram_;
  std::unordered_map<Key, uint64_t> bigram_;
  std::unordered_map<Key, uint64_t> bigram_context_;  // (a) -> count via key(a,0)
  std::unordered_map<Key, std::unordered_map<uint32_t, uint64_t>> trigram_;
  size_t total_tokens_ = 0;
};

}  // namespace coachlm

#endif  // COACHLM_TEXT_NGRAM_LM_H_

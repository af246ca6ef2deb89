#include "text/ngram_lm.h"

#include <algorithm>
#include <cmath>

#include "text/tokenizer.h"

namespace coachlm {

namespace {
constexpr double kAlpha = 0.05;  // additive smoothing mass
constexpr double kL1 = 0.2;     // unigram interpolation weight
constexpr double kL2 = 0.35;    // bigram weight
constexpr double kL3 = 0.45;    // trigram weight
}  // namespace

NgramLm::NgramLm(int order) : order_(std::clamp(order, 1, 3)) {}

void NgramLm::AddSentence(const std::vector<std::string>& tokens) {
  if (tokens.empty()) return;
  std::vector<uint32_t> ids;
  ids.reserve(tokens.size() + 3);
  ids.push_back(Vocab::kBos);
  ids.push_back(Vocab::kBos);
  for (const std::string& t : tokens) ids.push_back(vocab_.Add(t));
  ids.push_back(Vocab::kEos);
  for (size_t i = 2; i < ids.size(); ++i) {
    const uint32_t w = ids[i];
    const uint32_t b = ids[i - 1];
    const uint32_t a = ids[i - 2];
    ++unigram_[w];
    ++total_tokens_;
    if (order_ >= 2) {
      ++bigram_[MakeKey(b, w)];
      ++bigram_context_[MakeKey(b, 0)];
    }
    if (order_ >= 3) {
      ++trigram_[MakeKey(a, b)][w];
    }
  }
}

void NgramLm::AddText(const std::string& text) {
  for (const std::string& sentence : tokenizer::SplitSentences(text)) {
    AddSentence(tokenizer::WordTokenize(sentence));
  }
}

double NgramLm::UnigramProb(uint32_t w) const {
  const double v = static_cast<double>(vocab_.size());
  auto it = unigram_.find(w);
  const double count = it == unigram_.end() ? 0.0 : static_cast<double>(it->second);
  return (count + kAlpha) / (static_cast<double>(total_tokens_) + kAlpha * v);
}

double NgramLm::BigramProb(uint32_t a, uint32_t w) const {
  const double v = static_cast<double>(vocab_.size());
  auto ctx = bigram_context_.find(MakeKey(a, 0));
  const double ctx_count =
      ctx == bigram_context_.end() ? 0.0 : static_cast<double>(ctx->second);
  auto it = bigram_.find(MakeKey(a, w));
  const double count = it == bigram_.end() ? 0.0 : static_cast<double>(it->second);
  return (count + kAlpha) / (ctx_count + kAlpha * v);
}

double NgramLm::TrigramProb(uint32_t a, uint32_t b, uint32_t w) const {
  const double v = static_cast<double>(vocab_.size());
  auto ctx = trigram_.find(MakeKey(a, b));
  if (ctx == trigram_.end()) return kAlpha / (kAlpha * v);
  double total = 0.0;
  for (const auto& [word, count] : ctx->second) {
    (void)word;
    total += static_cast<double>(count);
  }
  auto it = ctx->second.find(w);
  const double count = it == ctx->second.end() ? 0.0 : static_cast<double>(it->second);
  return (count + kAlpha) / (total + kAlpha * v);
}

double NgramLm::InterpolatedProb(uint32_t a, uint32_t b, uint32_t w) const {
  double p = kL1 * UnigramProb(w);
  if (order_ >= 2) {
    p += kL2 * BigramProb(b, w);
  } else {
    p += kL2 * UnigramProb(w);
  }
  if (order_ >= 3) {
    p += kL3 * TrigramProb(a, b, w);
  } else {
    p += kL3 * (order_ >= 2 ? BigramProb(b, w) : UnigramProb(w));
  }
  return p;
}

double NgramLm::SentenceLogProb(const std::vector<std::string>& tokens) const {
  if (tokens.empty() || total_tokens_ == 0) return -1e9;
  std::vector<uint32_t> ids;
  ids.push_back(Vocab::kBos);
  ids.push_back(Vocab::kBos);
  for (const std::string& t : tokens) ids.push_back(vocab_.Lookup(t));
  ids.push_back(Vocab::kEos);
  double logp = 0.0;
  for (size_t i = 2; i < ids.size(); ++i) {
    logp += std::log10(InterpolatedProb(ids[i - 2], ids[i - 1], ids[i]));
  }
  return logp;
}

double NgramLm::Perplexity(const std::string& text) const {
  if (total_tokens_ == 0) return 1e9;
  double logp = 0.0;
  size_t n = 0;
  for (const std::string& sentence : tokenizer::SplitSentences(text)) {
    const auto tokens = tokenizer::WordTokenize(sentence);
    if (tokens.empty()) continue;
    logp += SentenceLogProb(tokens);
    n += tokens.size() + 1;  // +1 for </s>
  }
  if (n == 0) return 1e9;
  return std::pow(10.0, -logp / static_cast<double>(n));
}

}  // namespace coachlm

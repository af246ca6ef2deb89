#include "lm/backbone.h"

#include <algorithm>
#include <bit>

#include "synth/code_bank.h"
#include "synth/topic_bank.h"
#include "text/lexicons.h"
#include "text/similarity.h"
#include "text/string_util.h"

namespace coachlm {
namespace lm {

BackboneProfile Llama7B() {
  BackboneProfile profile;
  profile.name = "LLaMA-7b";
  profile.knowledge_coverage = 0.55;
  profile.fluency_noise = 0.12;
  profile.invalid_output_rate = 0.030;
  profile.pretrain_seed = 11;
  return profile;
}

BackboneProfile ChatGlm6B() {
  BackboneProfile profile;
  profile.name = "ChatGLM-6b";
  profile.knowledge_coverage = 0.75;
  profile.fluency_noise = 0.06;
  profile.invalid_output_rate = 0.018;
  profile.pretrain_seed = 12;
  return profile;
}

BackboneProfile ChatGlm26B() {
  BackboneProfile profile;
  profile.name = "ChatGLM2-6b";
  profile.knowledge_coverage = 0.90;
  profile.fluency_noise = 0.03;
  profile.invalid_output_rate = 0.013;
  profile.pretrain_seed = 13;
  return profile;
}

namespace {

/// One memory document before indexing: the retained sentences plus the
/// association key (the sorted content words of the whole source document).
struct SourceDoc {
  std::vector<std::string> sentences;
  std::vector<std::string> key_words;
};

/// Builds a memory document from a source text bundle, retaining each
/// sentence with probability `coverage`. The key always includes the
/// subject words (names anchor associations even for weak models).
SourceDoc BuildDoc(const std::string& subject,
                   const std::vector<std::string>& sentences,
                   double coverage, Rng* rng) {
  SourceDoc doc;
  std::string key_source = subject;
  for (const std::string& sentence : sentences) {
    if (rng->NextBool(coverage)) {
      doc.sentences.push_back(sentence);
      key_source += " " + sentence;
    }
  }
  doc.key_words = similarity::SortedContentWords(key_source);
  return doc;
}

}  // namespace

BackboneModel::BackboneModel(BackboneProfile profile)
    : profile_(std::move(profile)) {
  Rng rng(profile_.pretrain_seed);
  std::vector<SourceDoc> docs;
  for (const synth::Topic& topic : synth::Topics()) {
    std::vector<std::string> sentences;
    sentences.push_back(topic.fact);
    for (const std::string& detail : topic.details) {
      sentences.push_back(detail);
    }
    SourceDoc doc = BuildDoc(topic.name + " " + topic.domain, sentences,
                             profile_.knowledge_coverage, &rng);
    if (!doc.sentences.empty()) docs.push_back(std::move(doc));
  }
  for (const synth::CodeTask& task : synth::CodeTasks()) {
    // The code itself is part of the pre-training association key: code
    // identifiers anchor code questions to the right memory much more
    // reliably than the prose around them.
    SourceDoc doc = BuildDoc(task.name + " " + task.description + " " +
                                 task.code + " " + task.buggy_code,
                             task.explanation,
                             profile_.knowledge_coverage, &rng);
    if (!doc.sentences.empty()) docs.push_back(std::move(doc));
  }
  mask_blocks_ = (docs.size() + 63) / 64;
  for (size_t d = 0; d < docs.size(); ++d) {
    for (const std::string& word : docs[d].key_words) {
      const auto [it, inserted] =
          word_ids_.emplace(word, static_cast<uint32_t>(word_ids_.size()));
      if (inserted) doc_masks_.resize(doc_masks_.size() + mask_blocks_, 0);
      uint64_t* mask = &doc_masks_[it->second * mask_blocks_];
      mask[d / 64] |= uint64_t{1} << (d % 64);
    }
    for (const std::string& sentence : docs[d].sentences) {
      fluency_lm_.AddText(sentence);
    }
    doc_sentences_.push_back(std::move(docs[d].sentences));
  }
}

BackboneModel::QueryTally BackboneModel::Tally(const std::string& text) const {
  QueryTally tally;
  tally.docs.resize(doc_sentences_.size());
  for (const std::string& word : similarity::SortedContentWords(text)) {
    const size_t length = word.size();
    tally.total += length;
    const auto it = word_ids_.find(word);
    if (it == word_ids_.end()) continue;
    const uint64_t* mask = &doc_masks_[it->second * mask_blocks_];
    for (size_t block = 0; block < mask_blocks_; ++block) {
      for (uint64_t bits = mask[block]; bits != 0; bits &= bits - 1) {
        DocTally& doc = tally.docs[block * 64 + std::countr_zero(bits)];
        doc.matched += length;
        ++doc.count;
        doc.longest = std::max(doc.longest, length);
      }
    }
  }
  return tally;
}

std::vector<std::string> BackboneModel::RetrieveRelevant(
    const std::string& context, const std::string& existing,
    size_t max_sentences) const {
  constexpr double kActivationThreshold = 0.15;
  const QueryTally tally = Tally(context);
  double best_score = 0.0;
  size_t best_doc = doc_sentences_.size();
  bool best_activates = false;
  for (size_t i = 0; i < doc_sentences_.size(); ++i) {
    const double score = tally.Score(i);
    if (score > best_score) {
      best_score = score;
      best_doc = i;
      // Activation needs discriminative evidence: a single short
      // incidental word ("show") must not light a document up, while a
      // subject name inside a long query should — either a high relative
      // score with a long matched word, or several matched words with at
      // least one discriminative one.
      const DocTally& doc = tally.docs[i];
      const bool discriminative = doc.count >= 2 || doc.longest >= 6;
      const bool absolute = doc.count >= 2 && doc.longest >= 5;
      best_activates =
          (score >= kActivationThreshold && discriminative) || absolute;
    }
  }
  std::vector<std::string> out;
  if (best_doc == doc_sentences_.size() || !best_activates) {
    return out;  // the model does not know this subject
  }
  // Case-insensitive presence checks: revised text often carries a
  // decapitalized copy of a memory sentence after a discourse marker.
  const std::string existing_lower = strings::Lower(existing);
  const std::string context_lower = strings::Lower(context);
  for (const std::string& sentence : doc_sentences_[best_doc]) {
    if (out.size() >= max_sentences) break;
    const std::string sentence_lower = strings::Lower(sentence);
    if (strings::Contains(existing_lower, sentence_lower)) continue;
    if (strings::Contains(context_lower, sentence_lower)) continue;
    out.push_back(sentence);
  }
  return out;
}

double BackboneModel::TopicalAgreement(const std::string& a,
                                       const std::string& b) const {
  const QueryTally tally_a = Tally(a);
  const QueryTally tally_b = Tally(b);
  double best = 0.0;
  for (size_t i = 0; i < doc_sentences_.size(); ++i) {
    best = std::max(best, std::min(tally_a.Score(i), tally_b.Score(i)));
  }
  return best;
}

std::string BackboneModel::ApplyFluencyNoise(const std::string& sentence,
                                             Rng* rng) const {
  if (!rng->NextBool(profile_.fluency_noise)) return sentence;
  // A weak generator slips: corrupt one known word, or decapitalize.
  std::string noisy = sentence;
  for (const auto& [good, bad] : lexicons::SpellingCorruptions()) {
    if (strings::Contains(noisy, good)) {
      noisy = strings::ReplaceAll(noisy, good, bad);
      return noisy;
    }
  }
  for (char& c : noisy) {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      break;
    }
  }
  return noisy;
}

bool BackboneModel::DegeneratesThisCall(Rng* rng) const {
  return rng->NextBool(profile_.invalid_output_rate);
}

}  // namespace lm
}  // namespace coachlm

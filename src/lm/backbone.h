#ifndef COACHLM_LM_BACKBONE_H_
#define COACHLM_LM_BACKBONE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "text/ngram_lm.h"

namespace coachlm {
namespace lm {

/// \brief Capability profile of a backbone LLM (Section III-E).
///
/// In the paper CoachLM is LoRA-tuned from LLaMA / ChatGLM / ChatGLM2; the
/// backbone contributes pre-trained knowledge and generation fluency, while
/// coach tuning contributes alignment with the expert revision behaviour.
/// The profile models exactly those two contributions:
///  - `knowledge_coverage`: the fraction of world knowledge (the topic and
///    code banks) retained in the backbone's pre-training memory;
///  - `fluency_noise`: the probability that a generated sentence carries a
///    language slip (weaker backbones write worse text);
///  - `invalid_output_rate`: the chance an inference degenerates into an
///    invalid output (handled by the post-processor, Section III-B1).
struct BackboneProfile {
  std::string name;
  double knowledge_coverage = 0.8;
  double fluency_noise = 0.05;
  double invalid_output_rate = 0.013;
  /// Seed offsetting which memory subset this backbone retained.
  uint64_t pretrain_seed = 7;
};

/// The paper's three open-source backbones (Table XI).
BackboneProfile Llama7B();
BackboneProfile ChatGlm6B();
BackboneProfile ChatGlm26B();

/// \brief A backbone LLM: associative pre-training memory plus fluency.
///
/// The memory is a per-subject document store built from the
/// world-knowledge banks. Each document holds the subject's sentences
/// subsampled at `knowledge_coverage`, plus an association key: every
/// content word that co-occurred with the subject during pre-training.
/// Retrieval is associative: a query activates the document whose key best
/// covers the query's content words, weighted by length (longer words are
/// rarer and more discriminative). This stands in for conditional
/// generation of topical content. The n-gram LM trained on the same memory
/// provides fluency scoring.
///
/// The keys are stored inverted: each key word is interned once to a word
/// id with a bitmask of the documents whose key holds it, so scoring a
/// query against every document costs one lookup per query word.
class BackboneModel {
 public:
  explicit BackboneModel(BackboneProfile profile);

  /// Retrieves up to \p max_sentences unused sentences from the document
  /// best matching \p context (skipping sentences already in \p existing
  /// or \p context). Returns nothing when no document clears the
  /// activation threshold — the model simply lacks the knowledge.
  std::vector<std::string> RetrieveRelevant(const std::string& context,
                                            const std::string& existing,
                                            size_t max_sentences) const;

  /// Associative relatedness of two texts: the strongest document that
  /// both texts activate, max_i min(score_i(a), score_i(b)). High when a
  /// question and an answer are about the same remembered subject.
  double TopicalAgreement(const std::string& a, const std::string& b) const;

  /// Applies the backbone's fluency noise to a sentence: with probability
  /// `fluency_noise` a language slip is introduced.
  std::string ApplyFluencyNoise(const std::string& sentence, Rng* rng) const;

  /// True when this inference degenerates (invalid output).
  bool DegeneratesThisCall(Rng* rng) const;

  const BackboneProfile& profile() const { return profile_; }
  const NgramLm& fluency_lm() const { return fluency_lm_; }
  size_t num_docs() const { return doc_sentences_.size(); }

 private:
  /// One query's evidence for one document, in integer word lengths.
  struct DocTally {
    size_t matched = 0;  ///< summed length of the matched words
    size_t count = 0;    ///< how many content words matched
    size_t longest = 0;  ///< length of the longest matched word
  };

  /// A query scored against every document at once.
  struct QueryTally {
    size_t total = 0;  ///< summed length of the query's content words
    std::vector<DocTally> docs;

    /// Length-weighted fraction of the query's content words covered by
    /// doc \p i's key; 0 when the query has no content words. Both sums
    /// are integers, so the quotient is the same whatever order the words
    /// were visited in.
    double Score(size_t i) const {
      return total == 0 ? 0.0
                        : static_cast<double>(docs[i].matched) /
                              static_cast<double>(total);
    }
  };

  /// Tokenizes \p text once into its distinct content words and tallies
  /// them against every document through the word index.
  QueryTally Tally(const std::string& text) const;

  BackboneProfile profile_;
  /// Retained sentences of each memory document.
  std::vector<std::vector<std::string>> doc_sentences_;
  /// Interned key words: word -> word id.
  std::unordered_map<std::string, uint32_t> word_ids_;
  /// `mask_blocks_` words per word id; bit d set when doc d's key holds
  /// the word.
  std::vector<uint64_t> doc_masks_;
  size_t mask_blocks_ = 0;
  NgramLm fluency_lm_;
};

}  // namespace lm
}  // namespace coachlm

#endif  // COACHLM_LM_BACKBONE_H_

#ifndef COACHLM_LM_BACKBONE_H_
#define COACHLM_LM_BACKBONE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "text/lexicons.h"
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

/// One query's evidence for one memory document, in integer word lengths.
struct DocTally {
  size_t matched = 0;  ///< summed length of the matched words
  size_t count = 0;    ///< how many content words matched
  size_t longest = 0;  ///< length of the longest matched word
};

/// A query scored against every memory document at once.
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

/// \brief A query text prepared once for repeated scoring: its lower-cased
/// bytes and its tally against every memory document. Built by
/// BackboneModel::Prepare and meaningful only to the model that built it.
/// A revision scores its task context against the memory once per
/// retrieval and once per verified sentence; preparing the context once
/// per pair keeps that to one scan.
struct PreparedQuery {
  std::string lower;
  QueryTally tally;
};

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
/// id with a bitmask of the documents whose key holds it. Each word of a
/// query is looked up by view in the key-word map and, when it is not a
/// key word, in the stopword set, so scoring a query against every
/// document costs one scan of its lower-cased bytes and builds no string
/// per word.
class BackboneModel {
 public:
  explicit BackboneModel(BackboneProfile profile);

  /// Lower-cases \p text and tallies its distinct content words against
  /// every memory document.
  PreparedQuery Prepare(const std::string& text) const;

  /// Retrieves up to \p max_sentences unused sentences from the document
  /// best matching \p context (skipping sentences already in \p existing
  /// or \p context). Returns nothing when no document clears the
  /// activation threshold — the model simply lacks the knowledge.
  std::vector<std::string> RetrieveRelevant(const PreparedQuery& context,
                                            const std::string& existing,
                                            size_t max_sentences) const;
  /// The same, preparing \p context for this one call.
  std::vector<std::string> RetrieveRelevant(const std::string& context,
                                            const std::string& existing,
                                            size_t max_sentences) const;

  /// Associative relatedness of two texts: the strongest document that
  /// both texts activate, max_i min(score_i(a), score_i(b)). High when a
  /// question and an answer are about the same remembered subject.
  double TopicalAgreement(const PreparedQuery& a, const std::string& b) const;
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
  /// Scans the lower-cased text \p lower once: each word is looked up as
  /// a key word, then as a stopword; key words are de-duplicated by id and
  /// unknown ones by their bytes (they still count toward `total`), and
  /// the known ids are tallied against every document through the word
  /// index.
  QueryTally Tally(std::string_view lower) const;

  /// max_i min(a.Score(i), b.Score(i)).
  double Agreement(const QueryTally& a, const QueryTally& b) const;

  BackboneProfile profile_;
  /// Retained sentences of each memory document.
  std::vector<std::vector<std::string>> doc_sentences_;
  /// doc_sentences_, lower-cased once for the retrieval presence checks.
  std::vector<std::vector<std::string>> doc_sentences_lower_;
  /// Key word -> word id, probed by view.
  std::unordered_map<std::string, uint32_t, lexicons::WordHash,
                     std::equal_to<>>
      key_ids_;
  /// Byte length of each key word, by word id.
  std::vector<uint32_t> key_lengths_;
  /// `mask_blocks_` words per word id; bit d set when doc d's key holds
  /// the word.
  std::vector<uint64_t> doc_masks_;
  size_t mask_blocks_ = 0;
  NgramLm fluency_lm_;
};

}  // namespace lm
}  // namespace coachlm

#endif  // COACHLM_LM_BACKBONE_H_

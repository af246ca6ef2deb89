#ifndef COACHLM_COACH_COACH_LM_H_
#define COACHLM_COACH_COACH_LM_H_

#include <memory>
#include <string>
#include <unordered_set>

#include "coach/coach_config.h"
#include "common/checkpoint.h"
#include "common/execution.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/runtime.h"
#include "data/dataset.h"
#include "data/record_stream.h"
#include "lm/backbone.h"
#include "lm/rule_compile.h"
#include "lm/rule_store.h"

namespace coachlm {
namespace coach {

/// \brief Statistics of a dataset-revision pass (Section III-B1).
struct RevisionPassStats {
  size_t total = 0;
  /// Outputs that were not valid instruction pairs and were replaced with
  /// the original (the paper: ~1.3%).
  size_t invalid_replaced = 0;
  /// Pairs skipped because their instruction appeared in CoachLM training
  /// (the leakage guard; the paper: ~1.3%).
  size_t leakage_skipped = 0;
  /// Pairs whose text actually changed.
  size_t changed = 0;
  /// Pairs whose revision failed permanently (retries exhausted): adopted
  /// unchanged in the output and routed to the runtime's quarantine log.
  size_t quarantined = 0;
  /// Pairs that needed more than one attempt but recovered via retry.
  size_t recovered = 0;
  /// Pairs restored from a checkpoint instead of being recomputed.
  size_t resumed = 0;

  /// Field-wise sum: folds a shard's or a pass's stats into a total.
  RevisionPassStats& operator+=(const RevisionPassStats& other) {
    total += other.total;
    invalid_replaced += other.invalid_replaced;
    leakage_skipped += other.leakage_skipped;
    changed += other.changed;
    quarantined += other.quarantined;
    recovered += other.recovered;
    resumed += other.resumed;
    return *this;
  }
};

/// Relatedness of \p pair's response to its original full instruction:
/// backbone.TopicalAgreement(pair.FullInstruction(), pair.output), the
/// feature the trainer fit the learned rewrite threshold on. \p context
/// is the revision's task context, prepared from
/// `revised_instruction + "\n" + pair.input`; when \p revised_instruction
/// equals the original after ASCII lower-casing, its tally is the
/// original's and is reused instead of tallying the original again.
double ResponseRelatedness(const lm::BackboneModel& backbone,
                           const InstructionPair& pair,
                           const std::string& revised_instruction,
                           const lm::PreparedQuery& context);

/// \brief The trained coach language model θ_c.
///
/// Holds the backbone (pre-trained knowledge + fluency) and the rule store
/// learned by coach instruction tuning. Inference takes an instruction
/// pair, emits a *serialized revised pair as raw model text* (exactly like
/// the real generative model), and the post-processing path of
/// Section III-B1 parses/validates it, falling back to the original on
/// invalid output.
class CoachLm {
 public:
  CoachLm(CoachConfig config, lm::RuleStore rules);

  /// Raw generative step: the model's text output for the Fig. 3 revision
  /// prompt applied to \p pair. May be degenerate (invalid) — callers are
  /// expected to post-process.
  std::string ReviseToText(const InstructionPair& pair, Rng* rng) const;

  /// Revision with post-processing: parses/validates the raw output and
  /// falls back to \p pair when invalid. \p stats (optional) accumulates
  /// pass statistics.
  InstructionPair Revise(const InstructionPair& pair, Rng* rng,
                         RevisionPassStats* stats = nullptr) const;

  /// Revises a whole dataset over \p exec (deterministically: each pair's
  /// randomness derives from the config seed and the pair id, so results
  /// are byte-identical at any thread count). Pairs whose serialized form
  /// (lm::SerializePair) is in \p training_instructions are adopted
  /// unchanged (the data-leakage guard).
  ///
  /// \p runtime (nullptr = PipelineRuntime::Default()) wraps each pair's
  /// inference in fault injection + retry at FaultSite::kRevise: pairs
  /// that fail permanently fall back to their original text, count as
  /// `quarantined`, and land in the runtime's quarantine log — the stage
  /// never aborts. Under a purely transient fault plan the output is
  /// byte-identical to the fault-free run.
  ///
  /// \p checkpoint (optional) makes the pass crash-safe: every
  /// checkpoint-interval pairs the revised prefix is journaled, and a
  /// rerun resumes the journal and recomputes only the remainder, to the
  /// same bytes. When the runtime's cancel token cuts the pass, the
  /// unreached suffix passes through unchanged and is quarantined with
  /// the token's cause (see RunItemLoop).
  InstructionDataset ReviseDataset(
      const InstructionDataset& dataset,
      const std::unordered_set<std::string>& training_instructions,
      RevisionPassStats* stats = nullptr,
      const ExecutionContext& exec = ExecutionContext::Default(),
      PipelineRuntime* runtime = nullptr,
      StageCheckpointer* checkpoint = nullptr) const;

  /// Record-stream form of ReviseDataset: drains \p reader, revises, and
  /// streams the revised pairs into \p writer (without closing it — the
  /// caller owns the artifact lifecycle, so shards can share one writer).
  /// Because every pair's randomness derives from the config seed and the
  /// *pair id*, never its position, revising a corpus shard by shard and
  /// concatenating in shard order is byte-identical to revising it whole.
  [[nodiscard]] Result<RevisionPassStats> ReviseRecords(
      RecordReader* reader, RecordWriter* writer,
      const std::unordered_set<std::string>& training_instructions,
      const ExecutionContext& exec, PipelineRuntime* runtime = nullptr,
      StageCheckpointer* checkpoint = nullptr) const;

  /// Saves the learned rules to \p path (the "checkpoint").
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores a CoachLm from a checkpoint written by SaveCheckpoint().
  static Result<CoachLm> LoadCheckpoint(const std::string& path,
                                        CoachConfig config);

  const lm::RuleStore& rules() const { return rules_; }
  const lm::BackboneModel& backbone() const { return *backbone_; }
  const CoachConfig& config() const { return config_; }

 private:
  std::string ReviseInstruction(const InstructionPair& pair, Rng* rng) const;
  std::string ReviseResponse(const InstructionPair& pair,
                             const std::string& new_instruction,
                             Rng* rng) const;
  /// The wholesale-rewrite branch of response revision. Returns the
  /// replacement text, empty when generation produced nothing.
  std::string ComposeRewrite(const InstructionPair& pair,
                             const lm::PreparedQuery& context,
                             Rng* rng) const;
  /// The surface-repair block of response revision: the learned response
  /// rules, applied in place in docs/RULE_ENGINE.md order.
  void ApplyResponseRepairs(std::string* text) const;
  /// Up to \p max_new retrieved sentences for \p context that \p existing
  /// does not already hold, each with fluency noise, optional
  /// verification and an optional learned marker; space-prefixed.
  std::string ComposeExpansion(const lm::PreparedQuery& context,
                               const std::string& existing, size_t max_new,
                               Rng* rng) const;

  CoachConfig config_;
  lm::RuleStore rules_;
  std::shared_ptr<lm::BackboneModel> backbone_;
  /// rules_ frozen for application; built in the constructor.
  lm::CompiledRuleSet compiled_;
};

}  // namespace coach
}  // namespace coachlm

#endif  // COACHLM_COACH_COACH_LM_H_

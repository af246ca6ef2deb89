#ifndef COACHLM_EXPERT_PIPELINE_H_
#define COACHLM_EXPERT_PIPELINE_H_

#include <map>

#include "common/execution.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/revision_record.h"
#include "expert/filtering.h"
#include "expert/reviser.h"
#include "synth/content_engine.h"

namespace coachlm {
namespace expert {

/// \brief Configuration of the manual revision study (Section II-E).
struct RevisionStudyConfig {
  /// Size of the random sample drawn from the corpus (the paper's 6k).
  size_t sample_size = 6000;
  uint64_t seed = 17;
  /// Target criteria score of the revise-until loop.
  double target_score = 95.0;
  /// Diversity-retention probability of the preliminary filter.
  double retain_probability = 0.03;
};

/// \brief Per-pair effort model (person-days), calibrated so the paper's
/// study (6k pairs examined, 2301 revised) costs ~129 person-days.
struct EffortModel {
  /// Screening/examination cost per sampled pair.
  double examine_per_pair = 0.008;
  /// Revision cost per revised pair by task class.
  double revise_language = 0.020;
  double revise_qa = 0.028;
  double revise_creative = 0.040;
  /// Owner quality-control overhead as a fraction of revision effort.
  double qc_overhead = 0.18;

  double ReviseCost(TaskClass task_class) const;
};

/// \brief Everything the manual study produces.
struct RevisionStudyResult {
  /// The expert revision dataset R = {(x, x_r)} (revised pairs only).
  RevisionDataset revisions;
  /// Table III: exclusion statistics.
  FilterStats filter_stats;
  /// Table IV: primary revision-type counts.
  std::map<InstructionRevisionType, size_t> instruction_revision_counts;
  std::map<ResponseRevisionType, size_t> response_revision_counts;
  /// Pairs examined after filtering (the paper's ~4.9k).
  size_t examined_after_filter = 0;
  /// Pairs revised on either side (the paper's 2301).
  size_t revised_pairs = 0;
  /// Pairs with instruction-side revisions (the paper's 1079).
  size_t instruction_revised_pairs = 0;
  /// Total effort in person-days (the paper's 129).
  double person_days = 0.0;
  /// The full-dataset view with revised pairs substituted in place — the
  /// training set of Alpaca-human (Section III-C).
  InstructionDataset merged_dataset;
};

/// \brief Runs the Section II-E manual revision study over \p corpus.
///
/// Samples `config.sample_size` pairs, applies the preliminary filter
/// (Table III), assigns pairs to expert units by task class, revises every
/// pair the criteria flag as lacking, and accounts effort. The merged
/// dataset keeps *all* corpus pairs (excluded ones included, as in the
/// paper: "these excluded pairs still participated in subsequent LLM
/// training for fair comparison"), with revised pairs replacing their
/// originals.
///
/// Screening and revision run in parallel over \p exec: each sampled pair
/// draws from its own id-derived RNG stream (one expert per pair, exactly
/// the paper's per-pair assignment), so the study is byte-identical at any
/// thread count.
RevisionStudyResult RunRevisionStudy(
    const InstructionDataset& corpus, const synth::ContentEngine& engine,
    const RevisionStudyConfig& config = {}, const EffortModel& effort = {},
    const ExecutionContext& exec = ExecutionContext::Default());

}  // namespace expert
}  // namespace coachlm

#endif  // COACHLM_EXPERT_PIPELINE_H_

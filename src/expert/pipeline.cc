#include "expert/pipeline.h"

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace coachlm {
namespace expert {

double EffortModel::ReviseCost(TaskClass task_class) const {
  switch (task_class) {
    case TaskClass::kLanguageTask:
      return revise_language;
    case TaskClass::kQa:
      return revise_qa;
    case TaskClass::kCreative:
      return revise_creative;
  }
  return revise_qa;
}

namespace {

/// Per-pair screening + revision outcome, computed in parallel and folded
/// serially (in sample order) so the study result is schedule-independent.
struct PairOutcome {
  std::optional<ExclusionReason> exclusion;
  bool retained = false;
  bool examined = false;
  RevisionOutcome revision;
};

/// Stage tag decoupling the expert streams from other stages sharing the
/// same config seed (the synthetic generator also keys streams by pair id).
constexpr uint64_t kExpertStreamTag = 0x45585045;  // "EXPE"

}  // namespace

RevisionStudyResult RunRevisionStudy(const InstructionDataset& corpus,
                                     const synth::ContentEngine& engine,
                                     const RevisionStudyConfig& config,
                                     const EffortModel& effort,
                                     const ExecutionContext& exec) {
  const StageSpan span("study");
  RevisionStudyResult result;
  Rng rng(config.seed);

  const InstructionDataset sample =
      corpus.SampleWithoutReplacement(config.sample_size, &rng);

  PreliminaryFilter filter(config.retain_probability);
  ExpertReviser reviser(&engine, config.target_score);

  // One expert per pair: each sampled pair is screened and revised under
  // its own id-derived RNG stream, so the loop parallelizes with
  // byte-identical results at any thread count.
  const uint64_t stream_seed = MixSeed(config.seed, kExpertStreamTag);
  const std::vector<PairOutcome> outcomes = exec.ParallelMap(
      sample.size(), [&](size_t i) {
        const InstructionPair& pair = sample[i];
        Rng pair_rng = DeriveRng(stream_seed, pair.id);
        PairOutcome out;
        out.exclusion = filter.Screen(pair, &pair_rng, &out.retained);
        if (!out.exclusion) {
          out.examined = true;
          out.revision = reviser.Revise(pair, &pair_rng);
        }
        return out;
      });

  double revision_effort = 0.0;
  std::unordered_map<uint64_t, const InstructionPair*> revised_by_id;

  for (size_t i = 0; i < sample.size(); ++i) {
    const InstructionPair& pair = sample[i];
    const PairOutcome& out = outcomes[i];
    if (out.retained) ++result.filter_stats.retained_for_diversity;
    if (out.exclusion) {
      ++result.filter_stats.excluded[*out.exclusion];
      continue;
    }
    ++result.filter_stats.passed;
    ++result.examined_after_filter;

    // Expertise-based assignment: the pair's task class routes it to the
    // matching expert unit (Section II-E2); the unit determines the effort
    // model applied below.
    const TaskClass unit = ClassOf(pair.category);

    const RevisionOutcome& outcome = out.revision;
    if (!outcome.revised) continue;

    ++result.revised_pairs;
    revision_effort += effort.ReviseCost(unit);
    if (outcome.instruction_type) {
      ++result.instruction_revision_counts[*outcome.instruction_type];
    }
    if (outcome.revised_pair.FullInstruction() != pair.FullInstruction()) {
      ++result.instruction_revised_pairs;
    }
    if (outcome.response_type) {
      ++result.response_revision_counts[*outcome.response_type];
    }

    RevisionRecord record;
    record.original = pair;
    record.revised = outcome.revised_pair;
    record.RecomputeDerived();
    result.revisions.push_back(std::move(record));
    revised_by_id.emplace(pair.id, &outcome.revised_pair);
  }

  result.person_days =
      static_cast<double>(sample.size()) * effort.examine_per_pair +
      revision_effort * (1.0 + effort.qc_overhead);
  CountMetric("study.items_sampled", sample.size());
  CountMetric("study.items_excluded", result.filter_stats.TotalExcluded());
  CountMetric("study.items_revised", result.revised_pairs);

  // Merge: the full corpus with revised pairs substituted in place.
  result.merged_dataset = corpus;
  auto& merged = result.merged_dataset.pairs();
  exec.ParallelFor(merged.size(), [&](size_t i) {
    auto it = revised_by_id.find(merged[i].id);
    if (it != revised_by_id.end()) merged[i] = *it->second;
  });
  return result;
}

}  // namespace expert
}  // namespace coachlm

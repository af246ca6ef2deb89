#ifndef COACHLM_PLATFORM_PLATFORM_H_
#define COACHLM_PLATFORM_PLATFORM_H_

#include <string>
#include <vector>

#include "coach/coach_lm.h"
#include "common/clock.h"
#include "common/execution.h"
#include "data/dataset.h"
#include "synth/generator.h"

namespace coachlm {
namespace platform {

/// \brief A raw online user case as collected by the LLM serving stack
/// (Fig. 6): the user query and the deployed model's response, wrapped in
/// log noise.
struct UserCase {
  std::string raw_log;
  uint64_t case_id = 0;
};

/// \brief Configuration of the data-management pipeline.
struct PlatformConfig {
  /// Batch size (the paper's production batch is ~40k pairs).
  size_t batch_size = 40000;
  uint64_t seed = 404;
  /// Fixed review cost per pair for a human annotator (person-days).
  /// Calibrated with the edit cost so the pre-CoachLM batch cleans the
  /// paper's ~80 pairs/person-day and the CoachLM-precursor batch ~100.
  double review_cost_pd = 0.0092;
  /// Post-editing cost per character of remaining edit distance
  /// (person-days/char).
  double edit_cost_per_char_pd = 0.0000164;
  /// Proficiency improvement of annotators between consecutive batches
  /// (deducted when reporting the net CoachLM gain, as in Section IV-A).
  double annotator_proficiency_gain = 0.04;
  /// Threads for the platform's execution context: collection, parsing,
  /// CoachLM inference, and annotation all run on it (0 = hardware).
  /// Every stage derives per-case RNG streams, so the batch is
  /// byte-identical at any thread count.
  size_t inference_threads = 0;
  /// Time source for the throughput numbers in BatchReport (non-owning;
  /// nullptr = Clock::System()). Tests inject a FakeClock so
  /// coach_seconds/coach_samples_per_sec are asserted exactly instead of
  /// smoke-checked against the wall clock.
  Clock* clock = nullptr;
};

/// \brief Throughput report for one cleaned batch.
struct BatchReport {
  size_t pairs = 0;
  bool with_coach = false;
  /// Cases lost during collection or parsing (unparseable logs plus
  /// permanently-failed collection records).
  size_t dropped = 0;
  /// Records that exhausted retries somewhere in the batch and were routed
  /// to the runtime's quarantine log instead of aborting the batch.
  size_t quarantined = 0;
  /// Records that recovered via retry after transient faults.
  size_t recovered = 0;
  /// Wall-clock seconds spent in CoachLM inference (0 without coach).
  double coach_seconds = 0.0;
  /// CoachLM inference throughput (samples/second).
  double coach_samples_per_sec = 0.0;
  /// Total annotation effort (person-days).
  double person_days = 0.0;
  /// Cleaning throughput: accepted pairs per person-day.
  double pairs_per_person_day = 0.0;
  /// Mean remaining character edit distance annotators had to close.
  double mean_remaining_edit = 0.0;
};

/// \brief The Fig. 6 data-management system: collection -> rule scripts ->
/// (optional CoachLM precursor) -> human annotation.
class DataPlatform {
 public:
  explicit DataPlatform(PlatformConfig config);

  /// Collects a batch of raw user cases from the deployed LLMs (simulated
  /// online traffic; noisy queries, LLM-generated responses). Collection
  /// runs under \p runtime (nullptr = PipelineRuntime::Default()) at
  /// FaultSite::kCollect: transient faults retry to identical bytes and
  /// permanently-failed cases are dropped + quarantined.
  std::vector<UserCase> CollectUserCases(
      PipelineRuntime* runtime = nullptr) const;

  /// Rule-based scripts: parse logs into raw instruction pairs and drop
  /// unparseable cases. Returns the raw dataset. Under an *active*
  /// \p runtime each parse runs at FaultSite::kParse and every dropped
  /// case — unparseable log or injected permanent fault — lands in the
  /// quarantine log with its ParseError / fault provenance.
  InstructionDataset ParseWithRuleScripts(
      const std::vector<UserCase>& cases, size_t* dropped = nullptr,
      PipelineRuntime* runtime = nullptr) const;

  /// Runs a full cleaning batch. When \p coach is non-null the CoachLM
  /// precursor revises raw pairs before human annotation, cutting the
  /// post-editing distance annotators must close.
  ///
  /// \p runtime (nullptr = PipelineRuntime::Default()) threads fault
  /// tolerance through every stage of the batch; the report's
  /// dropped/quarantined/recovered counters summarize what it absorbed.
  /// \p checkpoint (optional) journals the CoachLM revision pass (the
  /// batch's dominant stage) for crash-safe resume.
  BatchReport RunCleaningBatch(const coach::CoachLm* coach,
                               PipelineRuntime* runtime = nullptr,
                               coachlm::StageCheckpointer* checkpoint =
                                   nullptr) const;

  /// Net efficiency improvement of a with-coach batch over a baseline
  /// batch, after deducting the annotator-proficiency effect
  /// (Section IV-A reports 15-20%).
  double NetImprovement(const BatchReport& baseline,
                        const BatchReport& with_coach) const;

  const PlatformConfig& config() const { return config_; }
  const ExecutionContext& exec() const { return exec_; }

 private:
  PlatformConfig config_;
  synth::SynthCorpusGenerator traffic_;
  /// One long-lived context for every corpus-scale stage of the platform
  /// (sized by PlatformConfig::inference_threads).
  ExecutionContext exec_;
};

}  // namespace platform
}  // namespace coachlm

#endif  // COACHLM_PLATFORM_PLATFORM_H_

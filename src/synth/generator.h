#ifndef COACHLM_SYNTH_GENERATOR_H_
#define COACHLM_SYNTH_GENERATOR_H_

#include <vector>

#include "common/checkpoint.h"
#include "common/execution.h"
#include "common/rng.h"
#include "common/runtime.h"
#include "data/dataset.h"
#include "synth/content_engine.h"
#include "synth/defect.h"

namespace coachlm {
namespace synth {

/// \brief Configuration of the synthetic ALPACA52K-like corpus.
///
/// Default rates are calibrated to the paper's measurements: ~18% of a 6k
/// sample fell into Table III exclusion categories, 46.8% of the remainder
/// was deficient, and 17.7% of the full dataset rated above 4.5/5.
struct CorpusConfig {
  /// Number of instruction pairs (the paper's dataset has 52002).
  size_t size = 52000;
  /// RNG seed; the corpus is a pure function of the config.
  uint64_t seed = 42;
  /// Probability a pair belongs to a Table III exclusion category.
  double exclusion_rate = 0.18;
  /// Probability a non-excluded pair carries quality defects.
  double deficiency_rate = 0.468;
  /// Probability a deficient pair *also* has an instruction-side defect
  /// (the paper: 1079 of 2301 revised pairs had instruction revisions).
  double instruction_defect_rate = 0.47;
  /// Relative weight of the sparse "coding" categories; low weight makes
  /// filtering-based baselines visibly regress on coding (Section II-A(3)).
  double code_category_weight = 0.35;
};

/// \brief A generated corpus with defect provenance.
///
/// `defects[i]` lists the defects injected into `dataset[i]` (empty for
/// clean pairs). Provenance exists for tests and analysis only; the expert
/// simulator and CoachLM never read it.
struct SynthCorpus {
  InstructionDataset dataset;
  std::vector<std::vector<DefectType>> defects;

  /// True when pair \p i carries at least one exclusion-class defect.
  bool IsExcludedClass(size_t i) const;
  /// True when pair \p i carries at least one quality defect.
  bool IsDeficient(size_t i) const;
};

/// \brief Deterministic generator of the synthetic instruction corpus.
///
/// Pair i draws from its own counter-derived RNG stream
/// (DeriveRng(seed, id)), so generation parallelizes over \p exec with
/// byte-identical output at any thread count.
class SynthCorpusGenerator {
 public:
  explicit SynthCorpusGenerator(CorpusConfig config);

  /// Generates the corpus described by the config under an inactive
  /// runtime (never PipelineRuntime::Default(), so no process-wide fault
  /// plan reaches it).
  SynthCorpus Generate(
      const ExecutionContext& exec = ExecutionContext::Default()) const;

  /// Fault-tolerant / checkpointed generation. Each pair's synthesis runs
  /// under \p runtime (nullptr = PipelineRuntime::Default()) at
  /// FaultSite::kCollect: transient faults retry to the exact bytes the
  /// fault-free run produces (every attempt re-derives the pair's stream),
  /// and permanently-failed ids are *dropped* from the corpus and recorded
  /// in the runtime's quarantine log — collection never aborts. With an
  /// enabled \p checkpoint the pass journals finished chunks and resumes a
  /// killed run to byte-identical output. When the runtime's cancel token
  /// cuts the pass, the unreached ids are dropped and quarantined with the
  /// token's cause (see RunItemLoop).
  SynthCorpus Generate(const ExecutionContext& exec, PipelineRuntime* runtime,
                       StageCheckpointer* checkpoint = nullptr) const;

  /// Generates a single pair (clean or deficient) with the given id; used
  /// by streaming consumers such as the platform simulator. Callers wanting
  /// schedule-independent output pass DeriveRng(seed, id) as \p rng.
  void GeneratePair(uint64_t id, Rng* rng, InstructionPair* pair,
                    std::vector<DefectType>* defects) const;

  const CorpusConfig& config() const { return config_; }
  const ContentEngine& engine() const { return engine_; }

 private:
  /// The per-id item loop behind both Generate forms (no span, no
  /// metrics).
  SynthCorpus GenerateItems(const ExecutionContext& exec,
                            PipelineRuntime* runtime,
                            StageCheckpointer* checkpoint) const;

  Category PickCategory(Rng* rng) const;
  const Topic& PickTopic(Category category, Rng* rng) const;

  CorpusConfig config_;
  ContentEngine engine_;
  DefectInjector injector_;
};

}  // namespace synth
}  // namespace coachlm

#endif  // COACHLM_SYNTH_GENERATOR_H_

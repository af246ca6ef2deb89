#ifndef COACHLM_TUNING_INSTRUCTION_TUNER_H_
#define COACHLM_TUNING_INSTRUCTION_TUNER_H_

#include "common/execution.h"
#include "common/runtime.h"
#include "data/dataset.h"
#include "tuning/tuned_model.h"

namespace coachlm {
namespace tuning {

/// \brief Simulated instruction tuning: measures a training dataset and
/// produces the TunedModel it induces.
///
/// Per category c: quality(c) = mean 0-5 accuracy rating / 5 over pairs in
/// c; coverage(c) = n_c / (n_c + k). Globally: mean rating / 5. These are
/// the only properties of the dataset the tuned model inherits — the
/// documented substitution for GPU fine-tuning (see DESIGN.md §1).
class InstructionTuner {
 public:
  /// \param coverage_k half-saturation count for category coverage; when
  /// <= 0 (the default) it scales with the dataset size (size / 900,
  /// floored at 4) so coverage measures the *relative* breadth of the
  /// dataset — epochs normalize absolute data volume in real fine-tuning.
  explicit InstructionTuner(double coverage_k = 0.0)
      : coverage_k_(coverage_k) {}

  /// Measures \p dataset into an alignment profile. Rating parallelizes
  /// over \p exec; the sums fold in dataset order, so the profile is
  /// bit-identical at any thread count. Each pair's rating runs under
  /// \p runtime (nullptr = PipelineRuntime::Default()) at FaultSite::kTune:
  /// a permanently-failed pair is excluded from the profile (and
  /// quarantined) rather than aborting the measurement.
  AlignmentProfile MeasureAlignment(
      const InstructionDataset& dataset,
      const ExecutionContext& exec = ExecutionContext::Default(),
      PipelineRuntime* runtime = nullptr) const;

  /// Tunes \p spec on \p dataset.
  TunedModel Tune(const ModelSpec& spec, const InstructionDataset& dataset,
                  const ExecutionContext& exec = ExecutionContext::Default(),
                  PipelineRuntime* runtime = nullptr) const;

 private:
  double coverage_k_;
};

}  // namespace tuning
}  // namespace coachlm

#endif  // COACHLM_TUNING_INSTRUCTION_TUNER_H_

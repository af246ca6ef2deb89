#ifndef COACHLM_QUALITY_ACCURACY_RATER_H_
#define COACHLM_QUALITY_ACCURACY_RATER_H_

#include "common/execution.h"
#include "data/dataset.h"
#include "data/instruction_pair.h"

namespace coachlm {
namespace quality {

/// \brief Simulated ChatGPT dataset rater (the AlpaGasus protocol).
///
/// AlpaGasus prompts ChatGPT to rate the accuracy of each RESPONSE on a
/// 0-5 scale; the paper reuses that protocol for Fig. 4 (mean 3.95 -> 4.31,
/// share above 4.5 from 17.7% -> 78.9%). This rater maps the Table II
/// response score onto the same 0-5 scale, making it a monotone function
/// of response quality exactly as the LLM judge is assumed to be.
class AccuracyRater {
 public:
  /// Rates one pair's response on the 0-5 scale.
  double Rate(const InstructionPair& pair) const;

  /// Summary of a whole-dataset rating pass.
  struct DatasetRating {
    double mean = 0.0;
    /// Share of pairs rated above 4.5 (the paper's headline metric).
    double fraction_above_45 = 0.0;
    /// All individual ratings, aligned with the dataset order.
    std::vector<double> ratings;
  };

  /// Rates every pair in \p dataset. Scoring parallelizes over \p exec;
  /// the aggregation folds in dataset order, so the result (including the
  /// floating-point mean) is bit-identical at any thread count.
  DatasetRating RateDataset(
      const InstructionDataset& dataset,
      const ExecutionContext& exec = ExecutionContext::Default()) const;
};

}  // namespace quality
}  // namespace coachlm

#endif  // COACHLM_QUALITY_ACCURACY_RATER_H_

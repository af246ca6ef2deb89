#include "tuning/instruction_tuner.h"

#include <algorithm>
#include <map>
#include <optional>

#include "common/metrics.h"
#include "common/trace.h"
#include "quality/accuracy_rater.h"

namespace coachlm {
namespace tuning {

AlignmentProfile InstructionTuner::MeasureAlignment(
    const InstructionDataset& dataset, const ExecutionContext& exec,
    PipelineRuntime* runtime) const {
  const StageSpan span("tune");
  if (runtime == nullptr) runtime = PipelineRuntime::Default();
  AlignmentProfile profile;
  quality::AccuracyRater rater;
  // Rate in parallel, then fold the sums serially in dataset order — the
  // floating-point accumulation matches the single-threaded pass exactly.
  // A pair whose rating fails permanently (FaultSite::kTune) is excluded
  // from the fold: the profile degrades to the measurable subset instead
  // of the measurement aborting.
  const std::vector<std::optional<double>> ratings = exec.ParallelMap(
      dataset.size(), [&](size_t i) -> std::optional<double> {
        std::optional<double> rating;
        // Per-item failures are absorbed: the runtime quarantines the
        // record and a nullopt rating excludes it from the mean.
        (void)runtime->Run(FaultSite::kTune, dataset[i].id, [&] {
          rating = rater.Rate(dataset[i]) / 5.0;
          return Status::OK();
        });
        return rating;
      });
  std::map<Category, std::pair<double, size_t>> sums;  // sum, count
  double global_sum = 0.0;
  size_t rated = 0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (!ratings[i].has_value()) continue;
    ++rated;
    global_sum += *ratings[i];
    auto& [sum, count] = sums[dataset[i].category];
    sum += *ratings[i];
    ++count;
  }
  CountMetric("tune.items_rated", rated);
  if (rated > 0) {
    profile.global_quality = global_sum / static_cast<double>(rated);
  }
  // Volume: small training sets express less of their quality. Gentle
  // saturation — a 52k corpus sits at ~0.99, a 9k filtered subset at ~0.96
  // — enough that filtering's volume cost shows without drowning its
  // quality gain (the paper's AlpaGasus lands slightly above Alpaca).
  const double n_total = static_cast<double>(dataset.size());
  profile.volume_factor = 0.85 + 0.15 * n_total / (n_total + 2600.0);
  const double k =
      coverage_k_ > 0.0
          ? coverage_k_
          : std::max(4.0, static_cast<double>(dataset.size()) / 900.0);
  for (const auto& [category, sum_count] : sums) {
    CategoryAlignment alignment;
    const double n = static_cast<double>(sum_count.second);
    alignment.quality = sum_count.first / n;
    alignment.coverage = n / (n + k);
    profile.per_category[category] = alignment;
  }
  return profile;
}

TunedModel InstructionTuner::Tune(const ModelSpec& spec,
                                  const InstructionDataset& dataset,
                                  const ExecutionContext& exec,
                                  PipelineRuntime* runtime) const {
  CountMetric("tune.models_tuned");
  return TunedModel(spec, MeasureAlignment(dataset, exec, runtime));
}

}  // namespace tuning
}  // namespace coachlm

#include "quality/accuracy_rater.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/trace.h"
#include "quality/criteria.h"

namespace coachlm {
namespace quality {

double AccuracyRater::Rate(const InstructionPair& pair) const {
  const QualityScore score = ResponseScorer().Score(pair);
  // The 0-100 rubric maps linearly onto the 0-5 LLM-judge scale: a
  // flaw-free basic response (80) earns 4.0; advanced quality fills the
  // 4.0-5.0 band, exactly as "accurate and detailed" responses do for
  // ChatGPT in the AlpaGasus protocol.
  return std::clamp(score.score / 20.0, 0.0, 5.0);
}

AccuracyRater::DatasetRating AccuracyRater::RateDataset(
    const InstructionDataset& dataset, const ExecutionContext& exec) const {
  const StageSpan span("rate");
  DatasetRating rating;
  rating.ratings =
      exec.ParallelMap(dataset.size(), [&](size_t i) { return Rate(dataset[i]); });
  // Serial fold in dataset order keeps the mean bit-identical to the
  // single-threaded pass.
  size_t above = 0;
  double sum = 0.0;
  MetricHistogram* rating_hist =
      MetricsRegistry::Default().FindHistogram("rate.rating_x100");
  for (const double r : rating.ratings) {
    sum += r;
    if (r > 4.5) ++above;
    if (rating_hist != nullptr) {
      rating_hist->Observe(static_cast<int64_t>(std::llround(r * 100.0)));
    }
  }
  CountMetric("rate.items_in", rating.ratings.size());
  if (!dataset.empty()) {
    rating.mean = sum / static_cast<double>(dataset.size());
    rating.fraction_above_45 =
        static_cast<double>(above) / static_cast<double>(dataset.size());
  }
  return rating;
}

}  // namespace quality
}  // namespace coachlm

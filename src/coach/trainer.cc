#include "coach/trainer.h"

#include <cmath>

#include "coach/alpha_selection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "lm/pair_text.h"
#include "lm/rule_extractor.h"

namespace coachlm {
namespace coach {

InstructionDataset CoachTrainer::BuildCoachDataset(
    const RevisionDataset& revisions) const {
  CountMetric("train.revision_pairs", revisions.size());
  const RevisionDataset selected = SelectTopAlpha(revisions, config_.alpha);
  InstructionDataset dataset;
  for (const RevisionRecord& record : selected) {
    dataset.Add(lm::MakeCoachSample(record.original, record.revised));
  }
  return dataset;
}

CoachLm CoachTrainer::Train(const RevisionDataset& revisions) const {
  return TrainOnCoachDataset(BuildCoachDataset(revisions));
}

CoachLm CoachTrainer::TrainOnCoachDataset(
    const InstructionDataset& coach_dataset) const {
  CountMetric("train.coach_samples", coach_dataset.size());
  SetGaugeMetric("train.alpha_x1000",
                 static_cast<int64_t>(std::llround(config_.alpha * 1000.0)));
  // The rewrite-policy feature is computed with the backbone's associative
  // memory so training and inference see the same signal.
  lm::BackboneModel backbone(config_.backbone);
  lm::RuleExtractor extractor([&backbone](const InstructionPair& pair) {
    return backbone.TopicalAgreement(pair.FullInstruction(), pair.output);
  });
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Rule estimation is exact after one pass; subsequent epochs are
    // no-ops kept for configuration fidelity with the paper's setup.
    if (epoch > 0) break;
    for (const InstructionPair& sample : coach_dataset) {
      // The learner sees the Fig. 3 text only: recover (x, x_r) from the
      // serialized sample before aligning them.
      auto original = lm::DeserializePair(sample.input);
      auto revised = lm::DeserializePair(sample.output);
      if (!original.ok() || !revised.ok()) {
        COACHLM_LOG_WARN << "skipping malformed coach sample id="
                         << sample.id;
        continue;
      }
      RevisionRecord record;
      record.original = std::move(original).ValueOrDie();
      record.revised = std::move(revised).ValueOrDie();
      extractor.Consume(record);
    }
  }
  COACHLM_LOG_DEBUG << "coach tuning consumed " << extractor.consumed()
                    << " samples (alpha=" << config_.alpha << ")";
  return CoachLm(config_, extractor.Finalize());
}

}  // namespace coach
}  // namespace coachlm

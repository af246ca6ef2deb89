#ifndef COACHLM_TESTSETS_TESTSET_H_
#define COACHLM_TESTSETS_TESTSET_H_

#include <string>
#include <vector>

#include "data/dataset.h"

namespace coachlm {
namespace testsets {

/// \brief An instruction-following test set (Table VI).
///
/// Each item is an InstructionPair whose `output` holds the *reference
/// response* the candidates are judged against; `instruction`/`input` form
/// the task.
struct TestSet {
  std::string name;
  /// Where the reference responses come from ("Human", "ChatGPT", "Bard").
  std::string reference_source;
  size_t num_categories = 0;
  InstructionDataset items;
};

/// \brief Generation knobs shared by the four test-set builders.
struct TestSetSpec {
  std::string name;
  std::string reference_source;
  size_t size = 150;
  /// Categories included (round-robin over this list).
  std::vector<Category> categories;
  /// Reference richness tier: expected explanation sentences (0-4) and
  /// closing probability. Stronger references depress every candidate's
  /// win rate, which is how the Vicuna80 (Bard) vs PandaLM170 (ChatGPT)
  /// difficulty gap of Table IX arises.
  size_t reference_explanations = 3;
  double reference_closing_rate = 0.5;
  uint64_t seed = 1009;
};

/// Builds a test set from a spec (deterministic).
TestSet BuildTestSet(const TestSetSpec& spec);

/// The CoachLM150 test set: 150 real-world instructions over all 42
/// categories with expert-written references (Section II-G).
TestSet CoachLm150();

/// The PandaLM170 test set: 170 instructions, 11 categories, ChatGPT
/// references [24].
TestSet PandaLm170();

/// The Vicuna80 test set: 80 instructions over 9 categories (writing,
/// role-play, math, knowledge, ...), Bard references [16].
TestSet Vicuna80();

/// The Self-Instruct252 test set: 252 instructions over 15 application
/// scenarios with human references [14].
TestSet SelfInstruct252();

/// All four, in Table VI order.
std::vector<TestSet> AllTestSets();

}  // namespace testsets
}  // namespace coachlm

#endif  // COACHLM_TESTSETS_TESTSET_H_

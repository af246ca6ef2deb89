#include "synth/generator.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "json/json.h"

namespace coachlm {
namespace synth {
namespace {

/// Relative weights of the response-side quality defects, shaped after the
/// revision-type distribution of Table IV (what experts ended up fixing).
struct WeightedDefect {
  DefectType type;
  double weight;
};

const std::vector<WeightedDefect>& ResponseDefects() {
  static const std::vector<WeightedDefect> kWeights = {
      {DefectType::kMissingExplanation, 30.0},  // comprehensiveness/richness
      {DefectType::kTruncatedResponse, 12.0},   // (same bucket: thin answers)
      {DefectType::kIrrelevantResponse, 8.0},   // relevance rewrites
      {DefectType::kSpellingNoise, 9.0},        // readability rewrites
      {DefectType::kGrammarNoise, 8.0},
      {DefectType::kBrokenLayout, 12.0},        // layout adjustments
      {DefectType::kMechanicalTone, 11.0},      // tone adjustments
      {DefectType::kFactualError, 7.0},         // corrections
      {DefectType::kEmptyResponse, 3.0},        // misc severe
  };
  return kWeights;
}

/// Instruction-side defects, shaped after Table IV's instruction rows
/// (readability 68.1%, feasibility 24.9%, contextualization 7.0%).
const std::vector<WeightedDefect>& InstructionDefects() {
  static const std::vector<WeightedDefect> kWeights = {
      {DefectType::kInstructionSpellingNoise, 68.0},
      {DefectType::kAmbiguousInstruction, 15.0},
      {DefectType::kInfeasibleInstruction, 10.0},
      {DefectType::kMissingContext, 7.0},
  };
  return kWeights;
}

/// Exclusion defects with Table III ratios.
const std::vector<WeightedDefect>& ExclusionDefects() {
  static const std::vector<WeightedDefect> kWeights = {
      {DefectType::kInvalidInput, 41.7},
      {DefectType::kBeyondExpertise, 27.7},
      {DefectType::kMassiveWorkload, 8.2},
      {DefectType::kMultiModal, 6.5},
      {DefectType::kUnsafe, 15.9},
  };
  return kWeights;
}

DefectType PickWeighted(const std::vector<WeightedDefect>& defects,
                        Rng* rng) {
  std::vector<double> weights;
  weights.reserve(defects.size());
  for (const WeightedDefect& d : defects) weights.push_back(d.weight);
  return defects[rng->NextCategorical(weights)].type;
}

}  // namespace

bool SynthCorpus::IsExcludedClass(size_t i) const {
  for (DefectType d : defects[i]) {
    if (IsExclusionDefect(d)) return true;
  }
  return false;
}

bool SynthCorpus::IsDeficient(size_t i) const {
  for (DefectType d : defects[i]) {
    if (!IsExclusionDefect(d)) return true;
  }
  return false;
}

SynthCorpusGenerator::SynthCorpusGenerator(CorpusConfig config)
    : config_(config), injector_(&engine_) {}

Category SynthCorpusGenerator::PickCategory(Rng* rng) const {
  const auto& all = AllCategories();
  std::vector<double> weights(all.size(), 1.0);
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i] == Category::kCoding || all[i] == Category::kCodeExplanation ||
        all[i] == Category::kDebuggingHelp) {
      weights[i] = config_.code_category_weight;
    }
  }
  return all[rng->NextCategorical(weights)];
}

const Topic& SynthCorpusGenerator::PickTopic(Category category,
                                             Rng* rng) const {
  const auto& topics = Topics();
  // Domain-affine categories sample from matching domains so e.g.
  // science_qa instructions are about science topics.
  auto pick_domain = [&](const std::string& domain) -> const Topic& {
    std::vector<const Topic*> matching;
    for (const Topic& t : topics) {
      if (t.domain == domain) matching.push_back(&t);
    }
    if (matching.empty()) return rng->Pick(topics);
    return *matching[rng->NextBelow(matching.size())];
  };
  switch (category) {
    case Category::kScienceQa:
      return pick_domain("science");
    case Category::kHistoryQa:
      return pick_domain("history");
    case Category::kHealthAdvice: {
      // Health advice topics: the daily-life wellness subjects.
      for (const Topic& t : topics) {
        if (t.name == "healthy eating" && rng->NextBool(0.5)) return t;
        if (t.name == "regular exercise") return t;
      }
      return rng->Pick(topics);
    }
    default:
      return rng->Pick(topics);
  }
}

void SynthCorpusGenerator::GeneratePair(
    uint64_t id, Rng* rng, InstructionPair* pair,
    std::vector<DefectType>* defects) const {
  defects->clear();
  const Category category = PickCategory(rng);
  const Topic& topic = PickTopic(category, rng);

  // Clean pairs vary in richness: the ALPACA52K baseline mostly carries
  // thin-to-moderate answers (avg 43.9 words), so richness skews low.
  ResponseRichness richness;
  richness.explanations = static_cast<size_t>(rng->NextCategorical(
      {0.30, 0.38, 0.22, 0.10}));  // 0..3 explanation sentences
  richness.closing = rng->NextBool(0.15);
  richness.context = rng->NextBool(0.15);
  if (category == Category::kCoding ||
      category == Category::kCodeExplanation ||
      category == Category::kDebuggingHelp) {
    // Teacher-LLM code answers in the corpus are terse (code, little
    // prose) — the trait that makes filtering baselines drop them and
    // regress on coding (Section II-A(3)).
    richness.explanations = std::min<size_t>(richness.explanations, 1);
    richness.closing = false;
  }
  *pair = engine_.BuildCleanPair(id, category, topic, richness, rng);

  if (rng->NextBool(config_.exclusion_rate)) {
    const DefectType d = PickWeighted(ExclusionDefects(), rng);
    if (injector_.Apply(d, pair, rng)) defects->push_back(d);
    return;  // excluded pairs carry only their exclusion defect
  }

  if (rng->NextBool(config_.deficiency_rate)) {
    const DefectType response_defect = PickWeighted(ResponseDefects(), rng);
    if (injector_.Apply(response_defect, pair, rng)) {
      defects->push_back(response_defect);
    }
    if (rng->NextBool(config_.instruction_defect_rate)) {
      const DefectType instruction_defect =
          PickWeighted(InstructionDefects(), rng);
      if (injector_.Apply(instruction_defect, pair, rng)) {
        defects->push_back(instruction_defect);
      }
    }
    // Retry once if no defect stuck (e.g. truncation on a short answer),
    // keeping the realized deficiency rate close to the configured one.
    if (defects->empty()) {
      const DefectType fallback = DefectType::kMissingExplanation;
      if (injector_.Apply(fallback, pair, rng)) {
        defects->push_back(fallback);
      } else if (injector_.Apply(DefectType::kMechanicalTone, pair, rng)) {
        defects->push_back(DefectType::kMechanicalTone);
      }
    }
  }
}

namespace {

/// Journal line of one generated id: its pair and defect provenance, plus
/// whether it was dropped. Dropped ids keep their slot in the journal (so
/// resume cursors stay item-aligned) but are excluded from the corpus.
std::string ToLine(const InstructionPair& pair,
                   const std::vector<DefectType>& defects, bool dropped) {
  json::Object o;
  o["pair"] = pair.ToJson();
  json::Array defect_codes;
  defect_codes.reserve(defects.size());
  for (DefectType defect : defects) {
    defect_codes.emplace_back(static_cast<int64_t>(defect));
  }
  o["defects"] = json::Value(std::move(defect_codes));
  o["dropped"] = json::Value(dropped);
  return json::Value(std::move(o)).Dump();
}

bool FromLine(const std::string& line, InstructionPair* pair,
              std::vector<DefectType>* defects, uint8_t* dropped) {
  Result<json::Value> parsed = json::Parse(line);
  if (!parsed.ok()) return false;
  const json::Value& value = parsed.ValueOrDie();
  Result<InstructionPair> decoded = InstructionPair::FromJson(value.At("pair"));
  if (!decoded.ok()) return false;
  const json::Value& defect_codes = value.At("defects");
  if (!defect_codes.is_array()) return false;
  Result<bool> is_dropped = value.GetBool("dropped");
  if (!is_dropped.ok()) return false;
  *pair = std::move(decoded).ValueOrDie();
  defects->clear();
  for (const json::Value& code : defect_codes.AsArray()) {
    defects->push_back(static_cast<DefectType>(code.AsInt()));
  }
  *dropped = is_dropped.ValueOrDie() ? 1 : 0;
  return true;
}

}  // namespace

SynthCorpus SynthCorpusGenerator::Generate(
    const ExecutionContext& exec) const {
  PipelineRuntime inactive;
  return GenerateItems(exec, &inactive, nullptr);
}

SynthCorpus SynthCorpusGenerator::Generate(const ExecutionContext& exec,
                                           PipelineRuntime* runtime,
                                           StageCheckpointer* checkpoint) const {
  const StageSpan span("generate");
  if (runtime == nullptr) runtime = PipelineRuntime::Default();
  SynthCorpus corpus = GenerateItems(exec, runtime, checkpoint);
  CountMetric("generate.items_out", corpus.dataset.size());
  CountMetric("generate.items_dropped", config_.size - corpus.dataset.size());
  return corpus;
}

SynthCorpus SynthCorpusGenerator::GenerateItems(
    const ExecutionContext& exec, PipelineRuntime* runtime,
    StageCheckpointer* checkpoint) const {
  const size_t n = config_.size;
  std::vector<InstructionPair> pairs(n);
  std::vector<std::vector<DefectType>> defects(n);
  std::vector<uint8_t> dropped(n, 0);
  const CancelToken* cancel = runtime->cancel_token();
  // Each pair draws from its own id-derived stream, so the corpus does not
  // depend on how the loop is scheduled.
  auto generate_one = [&](size_t i) {
    const uint64_t id = static_cast<uint64_t>(i + 1);
    const Status status = runtime->Run(FaultSite::kCollect, id, [&] {
      // Each attempt restarts the id's private stream, so the attempt
      // that succeeds emits the fault-free bytes.
      Rng rng = DeriveRng(config_.seed, id);
      pairs[i] = InstructionPair();
      defects[i].clear();
      GeneratePair(id, &rng, &pairs[i], &defects[i]);
      return Status::OK();
    });
    // Assigned on both paths: a discarded journal may have decoded into
    // this slot before the loop restarted from item 0.
    dropped[i] = status.ok() ? 0 : 1;
    if (status.ok()) return true;
    // Collection degrades by dropping the record: the remaining corpus
    // is still a pure function of (config, fault plan).
    pairs[i] = InstructionPair();
    defects[i].clear();
    return cancel == nullptr || !cancel->cancelled();
  };

  ItemLoopOptions options;
  options.cancel = cancel;
  options.watchdog = runtime->watchdog();
  const ItemLoopResult loop = RunItemLoop(
      checkpoint, exec, n, generate_one,
      [&](size_t i) { return ToLine(pairs[i], defects[i], dropped[i] != 0); },
      [&](size_t i, const std::string& line) {
        return FromLine(line, &pairs[i], &defects[i], &dropped[i]);
      },
      options);
  if (!loop.commit_status.ok()) {
    runtime->QuarantineRecordFailure(FaultSite::kIo, n, loop.commit_status);
  }
  if (loop.completed < n) {
    // Cut off by the cancel token: the unreached ids are dropped and
    // quarantined once, in id order; a later --resume regenerates them.
    const Status cause = cancel->status();
    for (size_t i = loop.completed; i < n; ++i) {
      dropped[i] = 1;
      runtime->QuarantineRecordFailure(
          FaultSite::kCollect, static_cast<uint64_t>(i + 1), cause, 0);
    }
  }

  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (dropped[i] != 0) continue;
    if (kept != i) {
      pairs[kept] = std::move(pairs[i]);
      defects[kept] = std::move(defects[i]);
    }
    ++kept;
  }
  pairs.resize(kept);
  defects.resize(kept);
  SynthCorpus corpus;
  corpus.dataset = InstructionDataset(std::move(pairs));
  corpus.defects = std::move(defects);
  return corpus;
}

}  // namespace synth
}  // namespace coachlm

#include "platform/platform.h"

#include <cstdint>
#include <optional>

#include "common/metrics.h"
#include "common/trace.h"
#include "expert/reviser.h"
#include "json/parse_limits.h"
#include "lm/pair_text.h"
#include "text/edit_distance.h"
#include "text/string_util.h"

namespace coachlm {
namespace platform {
namespace {

synth::CorpusConfig TrafficConfig(const PlatformConfig& config) {
  synth::CorpusConfig traffic;
  traffic.size = config.batch_size;
  traffic.seed = config.seed;
  // Production traffic is noisier than a curated corpus: user queries are
  // messy and responses come from the deployed (imperfect) LLM.
  traffic.deficiency_rate = 0.55;
  traffic.exclusion_rate = 0.08;
  return traffic;
}

}  // namespace

DataPlatform::DataPlatform(PlatformConfig config)
    : config_(std::move(config)),
      traffic_(TrafficConfig(config_)),
      exec_(config_.inference_threads) {}

std::vector<UserCase> DataPlatform::CollectUserCases(
    PipelineRuntime* runtime) const {
  if (runtime == nullptr) runtime = PipelineRuntime::Default();
  // Each case runs under its own id-derived stream (generation plus the
  // truncation coin), so collection parallelizes deterministically.
  auto build_case = [&](size_t i) {
    const uint64_t id = static_cast<uint64_t>(i + 1);
    Rng rng = DeriveRng(config_.seed, id);
    InstructionPair pair;
    std::vector<synth::DefectType> defects;
    traffic_.GeneratePair(id, &rng, &pair, &defects);
    UserCase user_case;
    user_case.case_id = pair.id;
    // Wrap in serving-log noise: session header plus the serialized pair.
    user_case.raw_log = "[session=" + std::to_string(1000 + i) +
                        " model=prod-v2]\n" + lm::SerializePair(pair);
    // A slice of traffic is truncated/garbled in transit.
    if (rng.NextBool(0.015)) {
      user_case.raw_log =
          user_case.raw_log.substr(0, user_case.raw_log.size() / 3);
    }
    return user_case;
  };
  if (!runtime->active()) {
    return exec_.ParallelMap(config_.batch_size, build_case);
  }
  // Fault-tolerant path: a case whose collection fails permanently is lost
  // traffic — dropped from the batch, recorded in quarantine by Run().
  struct Slot {
    UserCase user_case;
    bool dropped = false;
  };
  std::vector<Slot> slots =
      exec_.ParallelMap(config_.batch_size, [&](size_t i) {
        Slot slot;
        const Status status =
            runtime->Run(FaultSite::kCollect, static_cast<uint64_t>(i + 1),
                         [&] {
                           slot.user_case = build_case(i);
                           return Status::OK();
                         });
        slot.dropped = !status.ok();
        return slot;
      });
  std::vector<UserCase> cases;
  cases.reserve(slots.size());
  for (Slot& slot : slots) {
    if (!slot.dropped) cases.push_back(std::move(slot.user_case));
  }
  return cases;
}

InstructionDataset DataPlatform::ParseWithRuleScripts(
    const std::vector<UserCase>& cases, size_t* dropped,
    PipelineRuntime* runtime) const {
  if (runtime == nullptr) runtime = PipelineRuntime::Default();
  // Parse in parallel; fold in case order so the dataset (and the drop
  // count) is identical to the serial pass. Each parse runs under the
  // runtime at FaultSite::kParse: a genuinely unparseable log fails with a
  // non-transient ParseError, which an active runtime quarantines with
  // provenance (an inactive runtime just drops it, the legacy behavior).
  const std::vector<std::optional<InstructionPair>> parsed_cases =
      exec_.ParallelMap(
          cases.size(), [&](size_t i) -> std::optional<InstructionPair> {
            const UserCase& user_case = cases[i];
            std::optional<InstructionPair> out;
            // Per-item failures are absorbed, not propagated: the runtime
            // quarantines exhausted records and `out` stays empty, which
            // the caller counts as a drop.
            (void)runtime->Run(FaultSite::kParse, user_case.case_id, [&] {
              // Record-size gate first: an oversized raw log is rejected on
              // its length alone (kResourceExhausted, non-transient, so an
              // active runtime quarantines it without burning retries) —
              // never parsed, never copied.
              const size_t record_cap =
                  json::ParseLimits::Default().max_record_bytes;
              if (user_case.raw_log.size() > record_cap) {
                return Status::ResourceExhausted(
                    "raw log record of " +
                    std::to_string(user_case.raw_log.size()) +
                    " bytes exceeds max_record_bytes=" +
                    std::to_string(record_cap));
              }
              // Strip the session header line.
              const size_t newline = user_case.raw_log.find('\n');
              if (newline == std::string::npos) {
                return Status::ParseError("log record has no body");
              }
              const std::string body = user_case.raw_log.substr(newline + 1);
              auto parsed = lm::DeserializePair(body);
              if (!parsed.ok()) return parsed.status();
              if (strings::IsBlank(parsed->instruction)) {
                return Status::ParseError("parsed pair has empty instruction");
              }
              InstructionPair pair = std::move(parsed).ValueOrDie();
              pair.id = user_case.case_id;
              out = std::move(pair);
              return Status::OK();
            });
            return out;
          });
  InstructionDataset dataset;
  size_t drop_count = 0;
  for (const std::optional<InstructionPair>& pair : parsed_cases) {
    if (!pair.has_value()) {
      ++drop_count;
      continue;
    }
    dataset.Add(*pair);
  }
  if (dropped != nullptr) *dropped = drop_count;
  return dataset;
}

BatchReport DataPlatform::RunCleaningBatch(
    const coach::CoachLm* coach, PipelineRuntime* runtime,
    coachlm::StageCheckpointer* checkpoint) const {
  const StageSpan span("platform");
  if (runtime == nullptr) runtime = PipelineRuntime::Default();
  BatchReport report;
  report.with_coach = coach != nullptr;
  const size_t quarantined_before = runtime->quarantined_records();
  const size_t recovered_before = runtime->recovered_records();

  const std::vector<UserCase> cases = CollectUserCases(runtime);
  CountMetric("platform.cases_collected", cases.size());
  report.dropped += config_.batch_size - cases.size();
  size_t parse_dropped = 0;
  InstructionDataset raw = ParseWithRuleScripts(cases, &parse_dropped, runtime);
  report.dropped += parse_dropped;

  InstructionDataset incoming = raw;
  if (coach != nullptr) {
    Clock* clock = config_.clock != nullptr ? config_.clock : Clock::System();
    const int64_t start_micros = clock->NowMicros();
    coach::RevisionPassStats stats;
    incoming = coach->ReviseDataset(raw, {}, &stats, exec_, runtime,
                                    checkpoint);
    report.coach_seconds =
        static_cast<double>(clock->NowMicros() - start_micros) / 1e6;
    if (report.coach_seconds > 0) {
      report.coach_samples_per_sec =
          static_cast<double>(raw.size()) / report.coach_seconds;
    }
  }

  // Human annotation: each pair is post-edited until it meets the
  // acceptance criteria. Effort = fixed review + per-character editing of
  // whatever distance remains between the incoming pair and its accepted
  // form. The accepted form is what an expert annotator would produce.
  synth::ContentEngine engine;
  expert::ExpertReviser annotator(&engine, /*target_score=*/95.0);
  // One annotator stream per pair (keyed by case id, decoupled from the
  // collection streams by the tag), folded in batch order.
  const uint64_t annotate_seed = config_.seed ^ 0xA5A5A5A5ULL;
  const std::vector<double> edit_chars =
      exec_.ParallelMap(incoming.size(), [&](size_t i) {
        Rng rng = DeriveRng(annotate_seed, incoming[i].id);
        const expert::RevisionOutcome outcome =
            annotator.Revise(incoming[i], &rng);
        const InstructionPair& accepted =
            outcome.revised ? outcome.revised_pair : incoming[i];
        const size_t remaining =
            editdist::CharDistance(incoming[i].FullInstruction(),
                                   accepted.FullInstruction()) +
            editdist::CharDistance(incoming[i].output, accepted.output);
        return static_cast<double>(remaining);
      });
  double total_edit_chars = 0.0;
  for (const double chars : edit_chars) total_edit_chars += chars;
  report.pairs = incoming.size();
  report.mean_remaining_edit =
      incoming.empty() ? 0.0
                       : total_edit_chars / static_cast<double>(incoming.size());
  report.person_days =
      static_cast<double>(incoming.size()) * config_.review_cost_pd +
      total_edit_chars * config_.edit_cost_per_char_pd;
  if (report.person_days > 0) {
    report.pairs_per_person_day =
        static_cast<double>(incoming.size()) / report.person_days;
  }
  report.quarantined = runtime->quarantined_records() - quarantined_before;
  report.recovered = runtime->recovered_records() - recovered_before;
  CountMetric("platform.batches");
  CountMetric("platform.cases_dropped", report.dropped);
  CountMetric("platform.cases_quarantined", report.quarantined);
  return report;
}

double DataPlatform::NetImprovement(const BatchReport& baseline,
                                    const BatchReport& with_coach) const {
  if (baseline.pairs_per_person_day <= 0) return 0.0;
  const double gross = with_coach.pairs_per_person_day /
                           baseline.pairs_per_person_day - 1.0;
  // Deduct the improvement attributable to annotators getting better at
  // the task between batches (Section IV-A's "enhanced proficiency").
  return gross - config_.annotator_proficiency_gain;
}

}  // namespace platform
}  // namespace coachlm

#include "coach/coach_lm.h"

#include "coach/verifier.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "json/jsonl.h"
#include "lm/pair_text.h"
#include "lm/rule_extractor.h"
#include "text/ascii.h"
#include "text/repair.h"
#include "text/similarity.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

namespace coachlm {
namespace coach {
namespace {

/// Picks a phrase from a rotation table by one RNG draw; empty (and no
/// draw) when the table is empty.
std::string RotatingPhrase(const std::vector<std::string>& phrases,
                           Rng* rng) {
  if (phrases.empty()) return "";
  return phrases[rng->NextBelow(phrases.size())];
}

/// Per-text count of rules that edited the text. The sums are
/// commutative, so parallel revision serializes them to the same bytes at
/// any thread count.
void EmitRuleFireMetrics(size_t fired) {
  if (!Observability::Enabled()) return;
  CountMetric("rules.matches_fired", fired);
}

/// Freezes \p rules for application. A non-empty store's compile is
/// reported through the rules.* metrics, timed on the observability clock
/// so the deterministic report mode sees a schedule-independent duration.
/// An α = 0 store never reaches the rule-application path (ReviseToText
/// echoes), so its empty compile goes unreported.
lm::CompiledRuleSet CompileRules(const lm::RuleStore& rules,
                                 size_t min_support) {
  if (!Observability::Enabled() || rules.empty()) {
    return lm::CompiledRuleSet(rules, min_support);
  }
  Clock* clock = Observability::Default().clock();
  const int64_t start_micros = clock->NowMicros();
  lm::CompiledRuleSet compiled(rules, min_support);
  CountMetric("rules.compiled");
  CountMetric("rules.compile_micros",
              static_cast<uint64_t>(clock->NowMicros() - start_micros));
  SetGaugeMetric("rules.patterns",
                 static_cast<int64_t>(compiled.num_patterns()));
  return compiled;
}

/// The coach's subject guess for disambiguation: the first pair of
/// adjacent content words in the response (a purely textual heuristic —
/// the model has no access to the topic bank).
std::string GuessSubject(const InstructionPair& pair) {
  const auto tokens = tokenizer::WordTokenize(pair.output.empty()
                                                  ? pair.input
                                                  : pair.output);
  std::string first;
  for (const std::string& token : tokens) {
    if (tokenizer::IsPunctuation(token) || token.size() < 4) continue;
    const std::string lower = strings::Lower(token);
    if (first.empty()) {
      first = lower;
      continue;
    }
    return first + " " + lower;
  }
  return first;
}

}  // namespace

double ResponseRelatedness(const lm::BackboneModel& backbone,
                           const InstructionPair& pair,
                           const std::string& revised_instruction,
                           const lm::PreparedQuery& context) {
  // Equal after lower-casing means the two texts split into the same
  // fields, and the context's "\n" before an empty input adds none, so
  // the context's tally is the original full instruction's.
  if (strings::EqualsIgnoreCase(revised_instruction, pair.instruction)) {
    return backbone.TopicalAgreement(context, pair.output);
  }
  return backbone.TopicalAgreement(pair.FullInstruction(), pair.output);
}

CoachLm::CoachLm(CoachConfig config, lm::RuleStore rules)
    : config_(std::move(config)),
      rules_(std::move(rules)),
      backbone_(std::make_shared<lm::BackboneModel>(config_.backbone)),
      compiled_(CompileRules(rules_, config_.min_rule_support)) {}

std::string CoachLm::ReviseInstruction(const InstructionPair& pair,
                                       Rng* rng) const {
  std::string text = pair.instruction;
  size_t fired = 0;
  // Learned word substitutions (spelling repairs the experts taught).
  for (const lm::CompiledTokenSub& sub : compiled_.token_subs()) {
    if (!strings::Contains(text, sub.from)) continue;
    text = strings::ReplaceAll(text, sub.from, sub.to);
    ++fired;
  }
  // Learned clause removals (infeasible requirements).
  for (const std::string& phrase : compiled_.strip_phrases()) {
    const size_t at = text.find(phrase);
    if (at == std::string::npos) continue;
    text.erase(at, phrase.size());
    text = strings::CollapseWhitespace(text);
    ++fired;
  }
  // Learned filler disambiguation: a phrase replaced with *varying*
  // content across training pairs means "substitute the concrete subject".
  for (const std::string& filler : compiled_.fillers()) {
    if (!strings::Contains(text, filler)) continue;
    const std::string subject = GuessSubject(pair);
    if (!subject.empty()) {
      text = strings::ReplaceAll(text, filler, subject);
      ++fired;
    }
  }
  if (compiled_.capitalize()) {
    text = repair::CapitalizeSentences(std::move(text));
  }
  // Learned context enrichment for bare instructions.
  if (strings::CountWords(text) < 12 &&
      rng->NextBool(compiled_.context_add_rate())) {
    const std::string scaffold =
        RotatingPhrase(compiled_.context_exemplars(), rng);
    if (!scaffold.empty()) text += " " + scaffold;
  }
  EmitRuleFireMetrics(fired);
  return strings::Trim(text);
}

std::string CoachLm::ComposeExpansion(const lm::PreparedQuery& context,
                                      const std::string& existing,
                                      size_t max_new, Rng* rng) const {
  const auto retrieved =
      backbone_->RetrieveRelevant(context, existing, max_new);
  std::string out;
  const std::vector<std::string>& markers = compiled_.markers();
  const ExpansionVerifier verifier(backbone_.get());
  for (const std::string& sentence : retrieved) {
    std::string line = backbone_->ApplyFluencyNoise(sentence, rng);
    if (config_.verify_expansions) {
      const auto verified = verifier.Verify(context, line);
      if (!verified.has_value()) continue;
      line = *verified;
    }
    if (!markers.empty() && rng->NextBool(0.5)) {
      std::string marker = markers[rng->NextBelow(markers.size())];
      // Markers were learned with trailing commas attached ("For example ,").
      marker = strings::ReplaceAll(marker, " ,", ",");
      if (!strings::EndsWith(marker, ",") && !strings::EndsWith(marker, " ")) {
        marker += " ";
      } else if (strings::EndsWith(marker, ",")) {
        marker += " ";
      }
      // Decapitalize the retrieved sentence after a marker.
      if (!line.empty()) line[0] = ascii::ToLower(line[0]);
      line = repair::CapitalizeSentences(marker + line);
    }
    out += " " + line;
  }
  return out;
}

std::string CoachLm::ComposeRewrite(const InstructionPair& pair,
                                    const lm::PreparedQuery& context,
                                    Rng* rng) const {
  // Generation conditions on the task input first: when the instruction
  // carries a prose payload (a passage to work on), the replacement
  // response is grounded in it, in the list layout the experts favour.
  std::string fresh;
  const bool prose_input = strings::CountWords(pair.input) >= 10 &&
                           !strings::Contains(pair.input, "def ") &&
                           !strings::Contains(pair.input, "|");
  if (prose_input) {
    const auto sentences = tokenizer::SplitSentences(pair.input);
    if (sentences.size() > 1) {
      for (const std::string& sentence : sentences) {
        fresh += (fresh.empty() ? "- " : "\n- ") + sentence;
      }
    } else if (!sentences.empty()) {
      fresh = sentences.front();
    }
  }
  fresh += ComposeExpansion(context, fresh, prose_input ? 1 : 3, rng);
  return strings::Trim(fresh);
}

void CoachLm::ApplyResponseRepairs(std::string* text_out) const {
  std::string& text = *text_out;
  size_t fired = 0;
  for (const lm::CompiledTokenSub& sub : compiled_.token_subs()) {
    if (!strings::Contains(text, sub.from)) continue;
    text = strings::ReplaceAll(text, sub.from, sub.to);
    ++fired;
  }
  for (const std::string& opener : compiled_.openers()) {
    if (strings::StartsWith(text, opener)) {
      text = strings::Trim(text.substr(opener.size()));
      ++fired;
      break;
    }
  }
  // Tone alignment: the experts' consistently warm outputs (high learned
  // closing rate) teach the model to drop robotic boilerplate, even when
  // no explicit opener-deletion example made it into C_alpha.
  if (compiled_.closing_rate() > 0.3) {
    const size_t opener_len = lm::MechanicalOpenerLength(text);
    if (opener_len > 0) {
      text = strings::Trim(text.substr(opener_len));
    }
  }
  for (const std::string& token : compiled_.strip_tokens()) {
    if (strings::Contains(text, token)) {
      text = strings::Trim(strings::ReplaceAll(text, token, ""));
      ++fired;
    }
  }
  if (compiled_.reflow() && !strings::Contains(text, "\n")) {
    if (strings::Contains(text, " - ") || strings::Contains(text, " 2. ")) {
      text = repair::ReflowLists(text);
    }
    text = repair::CollapseSpaces(text);
  }
  if (compiled_.remove_doubled() && !strings::Contains(text, "\n")) {
    text = repair::RemoveDoubledWords(text);
  }
  if (compiled_.capitalize()) {
    text = repair::CapitalizeSentences(std::move(text));
  }
  EmitRuleFireMetrics(fired);
}

std::string CoachLm::ReviseResponse(const InstructionPair& pair,
                                    const std::string& new_instruction,
                                    Rng* rng) const {
  // The task context the backbone retrieves for, scanned once per pair.
  const lm::PreparedQuery context =
      backbone_->Prepare(new_instruction + "\n" + pair.input);
  std::string text = pair.output;

  // Learned rewrite policy: weakly related (or empty) responses are
  // replaced wholesale with generated content. Relatedness is the
  // backbone's associative agreement — the same feature the trainer used
  // to estimate the threshold.
  const double relatedness =
      ResponseRelatedness(*backbone_, pair, new_instruction, context);
  const bool rewrite =
      compiled_.rewrite_overlap_threshold() >= 0.0 &&
      (strings::IsBlank(text) ||
       relatedness < compiled_.rewrite_overlap_threshold());
  if (rewrite) {
    const std::string fresh = ComposeRewrite(pair, context, rng);
    if (!fresh.empty()) {
      text = fresh;
    }
  } else {
    ApplyResponseRepairs(&text);
  }

  // Learned expansion: grow thin responses toward the expert target
  // length, using backbone knowledge for content.
  const double target_words = compiled_.mean_target_response_words();
  size_t words = strings::CountWords(text);
  size_t added = 0;
  while (added < compiled_.expansion_budget() &&
         static_cast<double>(words) + 10.0 < target_words) {
    const std::string expansion = ComposeExpansion(context, text, 1, rng);
    if (strings::IsBlank(expansion)) break;
    // ComposeExpansion starts every sentence with a space, so the appended
    // words never join the response's last word and the counts add.
    words += strings::CountWords(expansion);
    text += expansion;
    ++added;
  }

  // Learned closing behaviour: add a warm closing (when the experts
  // usually did) unless the response already ends on one.
  const std::string tail =
      text.size() > 120 ? text.substr(text.size() - 120) : text;
  if (!lm::LooksLikeClosing(tail) &&
      rng->NextBool(compiled_.closing_rate())) {
    const std::string closing = RotatingPhrase(compiled_.closings(), rng);
    if (!closing.empty() && !strings::Contains(text, closing)) {
      text += " " + closing;
    }
  }
  return strings::Trim(text);
}

std::string CoachLm::ReviseToText(const InstructionPair& pair,
                                  Rng* rng) const {
  if (backbone_->DegeneratesThisCall(rng)) {
    // Degenerate generation: token repetition until the length limit, the
    // classic failure mode the post-processor's regexes catch.
    std::string junk;
    for (int i = 0; i < 24; ++i) junk += "@@ ";
    return junk;
  }
  if (rules_.empty()) {
    // α = 0: the raw backbone echoes the pair, minor noise included — it
    // has not been aligned with the expert revision behaviour.
    InstructionPair echo = pair;
    echo.output = backbone_->ApplyFluencyNoise(echo.output, rng);
    return lm::SerializePair(echo);
  }
  InstructionPair revised = pair;
  revised.instruction = ReviseInstruction(pair, rng);
  revised.output = ReviseResponse(pair, revised.instruction, rng);
  return lm::SerializePair(revised);
}

InstructionPair CoachLm::Revise(const InstructionPair& pair, Rng* rng,
                                RevisionPassStats* stats) const {
  if (stats != nullptr) ++stats->total;
  std::string text = ReviseToText(pair, rng);
  // Post-processing (Section III-B1): strip invalid characters and
  // repeated strings, then parse; fall back to the original when the
  // output is not a valid instruction pair.
  std::erase_if(text, [](char c) {
    return static_cast<unsigned char>(c) < 0x20 && c != '\n' && c != '\t';
  });
  if (strings::Contains(text, "@@ ")) {
    text = strings::ReplaceAll(std::move(text), "@@ ", "");
  }
  auto parsed = lm::DeserializePair(strings::TrimView(text));
  if (!parsed.ok() || strings::IsBlank(parsed->output)) {
    if (stats != nullptr) ++stats->invalid_replaced;
    return pair;
  }
  InstructionPair revised = std::move(parsed).ValueOrDie();
  revised.id = pair.id;
  revised.category = pair.category;
  if (stats != nullptr &&
      (revised.instruction != pair.instruction ||
       revised.input != pair.input || revised.output != pair.output)) {
    ++stats->changed;
  }
  return revised;
}

namespace {

/// Per-item stat bits of a revision pass: one flag byte per pair.
constexpr uint8_t kInvalid = 1;
constexpr uint8_t kLeakage = 2;
constexpr uint8_t kChanged = 4;
constexpr uint8_t kQuarantined = 8;
constexpr uint8_t kRecovered = 16;

/// Journal line of one revised pair and its flag byte, so checkpointed
/// work survives a crash.
std::string ToLine(const InstructionPair& pair, uint8_t flags) {
  json::Object o;
  o["pair"] = pair.ToJson();
  o["flags"] = json::Value(static_cast<int64_t>(flags));
  return json::Value(std::move(o)).Dump();
}

bool FromLine(const std::string& line, InstructionPair* pair,
              uint8_t* flags) {
  Result<json::Value> value = json::Parse(line);
  if (!value.ok()) return false;
  Result<InstructionPair> parsed =
      InstructionPair::FromJson(value.ValueOrDie().At("pair"));
  Result<double> bits = value.ValueOrDie().GetNumber("flags");
  if (!parsed.ok() || !bits.ok()) return false;
  *pair = std::move(parsed).ValueOrDie();
  *flags = static_cast<uint8_t>(static_cast<int64_t>(bits.ValueOrDie()));
  return true;
}

/// Emits the revision pass's folded totals plus the response-length
/// distribution. Runs after the serial fold on the driver thread, so one
/// bulk update per counter — nothing touches the parallel hot loop.
void EmitReviseMetrics(const RevisionPassStats& totals,
                       const std::vector<InstructionPair>& revised) {
  if (!Observability::Enabled()) return;
  CountMetric("revise.items_in", totals.total);
  CountMetric("revise.items_changed", totals.changed);
  CountMetric("revise.items_invalid_replaced", totals.invalid_replaced);
  CountMetric("revise.items_leakage_skipped", totals.leakage_skipped);
  CountMetric("revise.items_quarantined", totals.quarantined);
  CountMetric("revise.items_recovered", totals.recovered);
  CountMetric("revise.items_resumed", totals.resumed);
  if (MetricHistogram* chars =
          MetricsRegistry::Default().FindHistogram("revise.response_chars")) {
    for (const InstructionPair& pair : revised) {
      chars->Observe(static_cast<int64_t>(pair.output.size()));
    }
  }
}

}  // namespace

InstructionDataset CoachLm::ReviseDataset(
    const InstructionDataset& dataset,
    const std::unordered_set<std::string>& training_instructions,
    RevisionPassStats* stats, const ExecutionContext& exec,
    PipelineRuntime* runtime, StageCheckpointer* checkpoint) const {
  const StageSpan span("revise");
  if (runtime == nullptr) runtime = PipelineRuntime::Default();
  const size_t n = dataset.size();

  // Each item resolves under the runtime envelope, so a permanently-failing
  // pair degrades to its original text instead of aborting the pass. An
  // inactive runtime's envelope is one branch plus the call.
  std::vector<InstructionPair> revised(n);
  std::vector<uint8_t> flags(n, 0);
  const CancelToken* cancel = runtime->cancel_token();
  auto revise_one = [&](size_t i) {
    const InstructionPair& pair = dataset[i];
    if (!training_instructions.empty() &&
        training_instructions.count(lm::SerializePair(pair)) > 0) {
      revised[i] = pair;
      flags[i] = kLeakage;
      return true;
    }
    RevisionPassStats s;
    int attempts = 0;
    const Status status = runtime->Run(
        FaultSite::kRevise, pair.id,
        [&] {
          // The attempt re-derives the pair's stream from scratch, so a
          // retried item produces exactly the bytes a fault-free run
          // would.
          RevisionPassStats attempt_stats;
          Rng rng = DeriveRng(config_.seed, pair.id);
          revised[i] = Revise(pair, &rng, &attempt_stats);
          s = attempt_stats;
          return Status::OK();
        },
        &attempts);
    if (!status.ok()) {
      revised[i] = pair;
      flags[i] = kQuarantined;
      return cancel == nullptr || !cancel->cancelled();
    }
    flags[i] = static_cast<uint8_t>((s.invalid_replaced > 0 ? kInvalid : 0) |
                                    (s.changed > 0 ? kChanged : 0) |
                                    (attempts > 1 ? kRecovered : 0));
    return true;
  };

  ItemLoopOptions options;
  options.cancel = cancel;
  options.watchdog = runtime->watchdog();
  const ItemLoopResult loop = RunItemLoop(
      checkpoint, exec, n, revise_one,
      [&](size_t i) { return ToLine(revised[i], flags[i]); },
      [&](size_t i, const std::string& line) {
        return FromLine(line, &revised[i], &flags[i]);
      },
      options);
  if (!loop.commit_status.ok()) {
    // A failing journal must not fail the pass; record the loss of
    // crash-safety with the progress cursor as provenance.
    runtime->QuarantineRecordFailure(FaultSite::kIo, n, loop.commit_status);
  }
  if (loop.completed < n) {
    // The run was cut off: any checkpoint covers exactly
    // [0, loop.completed), so pass the unprocessed originals through and
    // quarantine them with the cancellation cause — a later --resume
    // picks them up and lands byte-identical to an uninterrupted run.
    const Status cause = cancel->status();
    for (size_t i = loop.completed; i < n; ++i) {
      revised[i] = dataset[i];
      flags[i] = kQuarantined;
      runtime->QuarantineRecordFailure(FaultSite::kRevise, dataset[i].id,
                                       cause, 0);
    }
  }

  RevisionPassStats totals;
  totals.total = n;
  totals.resumed = loop.restored;
  for (const uint8_t f : flags) {
    totals.invalid_replaced += (f & kInvalid) != 0 ? 1 : 0;
    totals.leakage_skipped += (f & kLeakage) != 0 ? 1 : 0;
    totals.changed += (f & kChanged) != 0 ? 1 : 0;
    totals.quarantined += (f & kQuarantined) != 0 ? 1 : 0;
    totals.recovered += (f & kRecovered) != 0 ? 1 : 0;
  }
  EmitReviseMetrics(totals, revised);
  if (stats != nullptr) *stats += totals;
  return InstructionDataset(std::move(revised));
}

Result<RevisionPassStats> CoachLm::ReviseRecords(
    RecordReader* reader, RecordWriter* writer,
    const std::unordered_set<std::string>& training_instructions,
    const ExecutionContext& exec, PipelineRuntime* runtime,
    StageCheckpointer* checkpoint) const {
  // The revision algorithm parallelizes over random-access pairs, so the
  // stream materializes once; per-pair id-derived RNG keeps the output
  // independent of how the stream was sharded.
  COACHLM_ASSIGN_OR_RETURN(InstructionDataset dataset,
                           ReadAllRecords(reader));
  RevisionPassStats stats;
  const InstructionDataset revised = ReviseDataset(
      dataset, training_instructions, &stats, exec, runtime, checkpoint);
  COACHLM_RETURN_NOT_OK(WriteAllRecords(writer, revised));
  return stats;
}

Status CoachLm::SaveCheckpoint(const std::string& path) const {
  return json::WriteFile(path, rules_.ToJson().DumpPretty());
}

Result<CoachLm> CoachLm::LoadCheckpoint(const std::string& path,
                                        CoachConfig config) {
  COACHLM_ASSIGN_OR_RETURN(std::string text, json::ReadFile(path));
  COACHLM_ASSIGN_OR_RETURN(json::Value doc, json::Parse(text));
  COACHLM_ASSIGN_OR_RETURN(lm::RuleStore rules, lm::RuleStore::FromJson(doc));
  return CoachLm(std::move(config), std::move(rules));
}

}  // namespace coach
}  // namespace coachlm

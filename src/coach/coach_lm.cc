#include "coach/coach_lm.h"

#include "coach/verifier.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/trace.h"
#include "json/jsonl.h"
#include "lm/pair_text.h"
#include "lm/rule_extractor.h"
#include "text/repair.h"
#include "text/similarity.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

namespace coachlm {
namespace coach {
namespace {

/// Picks the i-th phrase (rotating) from a support table restricted to
/// entries above min_support; empty when none qualify.
std::string RotatingPhrase(const std::map<std::string, size_t>& table,
                           size_t min_support, Rng* rng) {
  const auto phrases = lm::RuleStore::PhrasesAbove(table, min_support);
  if (phrases.empty()) return "";
  return phrases[rng->NextBelow(phrases.size())];
}

/// RotatingPhrase over a precompiled phrase vector (same contents as
/// PhrasesAbove would return, frozen at compile time). The RNG is drawn
/// only when the list is non-empty, exactly like RotatingPhrase — the two
/// engines must consume identical RNG streams.
std::string RotatingFromVector(const std::vector<std::string>& phrases,
                               Rng* rng) {
  if (phrases.empty()) return "";
  return phrases[rng->NextBelow(phrases.size())];
}

/// Per-text firing/prefilter counters for the compiled engine. The sums
/// are commutative, so parallel revision serializes them to the same
/// bytes at any thread count.
void EmitRuleFireMetrics(size_t fired, const lm::RuleMatcher& matcher) {
  if (!Observability::Enabled()) return;
  CountMetric("rules.matches_fired", fired);
  CountMetric("rules.prefilter_rejected", matcher.prefilter_rejected());
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

CoachLm::CoachLm(CoachConfig config, lm::RuleStore rules)
    : config_(std::move(config)),
      rules_(std::move(rules)),
      backbone_(std::make_shared<lm::BackboneModel>(config_.backbone)) {
  // An α = 0 store never reaches the rule-application path (ReviseToText
  // echoes), so there is nothing worth compiling.
  if (!config_.compiled_rules || rules_.empty()) return;
  if (Observability::Enabled()) {
    // Timed through the observability clock, so the deterministic report
    // mode sees a schedule-independent duration.
    Clock* clock = Observability::Default().clock();
    const int64_t start_micros = clock->NowMicros();
    compiled_ = std::make_shared<const lm::CompiledRuleSet>(
        rules_, config_.min_rule_support);
    CountMetric("rules.compiled");
    CountMetric("rules.compile_micros",
                static_cast<uint64_t>(clock->NowMicros() - start_micros));
    SetGaugeMetric("rules.automaton_states",
                   static_cast<int64_t>(
                       compiled_->matcher_automaton().num_states()));
    SetGaugeMetric("rules.patterns",
                   static_cast<int64_t>(compiled_->num_patterns()));
  } else {
    compiled_ = std::make_shared<const lm::CompiledRuleSet>(
        rules_, config_.min_rule_support);
  }
}

std::string CoachLm::ReviseInstruction(const InstructionPair& pair,
                                       Rng* rng) const {
  if (compiled_ != nullptr) return ReviseInstructionCompiled(pair, rng);
  std::string text = pair.instruction;
  const size_t min_support = config_.min_rule_support;
  // Learned word substitutions (spelling repairs the experts taught).
  for (const auto& [from, targets] : rules_.token_subs) {
    if (!strings::Contains(text, from)) continue;
    const std::string to = rules_.BestSubstitution(from, min_support);
    if (!to.empty()) text = strings::ReplaceAll(text, from, to);
  }
  // Learned clause removals (infeasible requirements).
  for (const std::string& phrase :
       lm::RuleStore::PhrasesAbove(rules_.strip_phrases, min_support)) {
    const size_t at = text.find(phrase);
    if (at != std::string::npos) {
      text.erase(at, phrase.size());
      text = strings::CollapseWhitespace(text);
    }
  }
  // Learned filler disambiguation: a phrase replaced with *varying*
  // content across training pairs means "substitute the concrete subject".
  for (const auto& [filler, replacements] : rules_.filler_replacements) {
    if (replacements.size() < 2) continue;
    if (!strings::Contains(text, filler)) continue;
    const std::string subject = GuessSubject(pair);
    if (!subject.empty()) {
      text = strings::ReplaceAll(text, filler, subject);
    }
  }
  if (rules_.capitalize_support >= min_support) {
    text = repair::CapitalizeSentences(text);
  }
  // Learned context enrichment for bare instructions.
  if (strings::CountWords(text) < 12 &&
      rng->NextBool(rules_.context_add_rate)) {
    const std::string scaffold =
        RotatingPhrase(rules_.context_exemplars, min_support, rng);
    if (!scaffold.empty()) text += " " + scaffold;
  }
  return strings::Trim(text);
}

std::string CoachLm::ReviseInstructionCompiled(const InstructionPair& pair,
                                               Rng* rng) const {
  // Mirrors ReviseInstruction rule for rule: same families, same order,
  // same RNG draws — only the "does this rule fire, and where?" question
  // is answered by the shared matcher instead of per-rule string scans.
  const lm::CompiledRuleSet& compiled = *compiled_;
  std::string text = pair.instruction;
  lm::RuleMatcher matcher(compiled, text);
  size_t fired = 0;
  for (const lm::CompiledTokenSub& sub : compiled.token_subs()) {
    if (!matcher.Contains(sub.pattern, text)) continue;
    text = strings::ReplaceAll(text, sub.from, sub.to);
    matcher.NoteReplacement(sub.to);
    ++fired;
  }
  for (const lm::CompiledPhrase& phrase : compiled.strip_phrases()) {
    const size_t at = matcher.FirstBegin(phrase.pattern, text);
    if (at == automaton::kNotFound) continue;
    text.erase(at, phrase.text.size());
    // CollapseWhitespace only removes or unifies whitespace (one
    // fingerprint class), so this stays an erasure for the matcher.
    text = strings::CollapseWhitespace(text);
    matcher.NoteErasure();
    ++fired;
  }
  for (const lm::CompiledPhrase& filler : compiled.fillers()) {
    if (!matcher.Contains(filler.pattern, text)) continue;
    const std::string subject = GuessSubject(pair);
    if (!subject.empty()) {
      text = strings::ReplaceAll(text, filler.text, subject);
      matcher.NoteReplacement(subject);
      ++fired;
    }
  }
  if (compiled.capitalize()) {
    text = repair::CapitalizeSentences(text);
  }
  if (strings::CountWords(text) < 12 &&
      rng->NextBool(compiled.context_add_rate())) {
    const std::string scaffold =
        RotatingFromVector(compiled.context_exemplars(), rng);
    if (!scaffold.empty()) text += " " + scaffold;
  }
  EmitRuleFireMetrics(fired, matcher);
  return strings::Trim(text);
}

std::string CoachLm::ComposeExpansion(const std::string& context,
                                      const std::string& existing,
                                      size_t max_new, Rng* rng) const {
  const auto retrieved =
      backbone_->RetrieveRelevant(context, existing, max_new);
  std::string out;
  // The compiled markers vector is exactly what PhrasesAbove returns for
  // this table, frozen at compile time — same contents, same order.
  std::vector<std::string> markers_scratch;
  const std::vector<std::string>& markers =
      compiled_ != nullptr
          ? compiled_->markers()
          : (markers_scratch = lm::RuleStore::PhrasesAbove(
                 rules_.markers, config_.min_rule_support));
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
      if (!line.empty()) {
        line[0] = static_cast<char>(
            std::tolower(static_cast<unsigned char>(line[0])));
      }
      line = marker + line;
      line = repair::CapitalizeSentences(line);
    }
    out += " " + line;
  }
  return out;
}

std::string CoachLm::ComposeRewrite(const InstructionPair& pair,
                                    const std::string& context,
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
  const size_t min_support = config_.min_rule_support;
  for (const auto& [from, targets] : rules_.token_subs) {
    if (!strings::Contains(text, from)) continue;
    const std::string to = rules_.BestSubstitution(from, min_support);
    if (!to.empty()) text = strings::ReplaceAll(text, from, to);
  }
  for (const std::string& opener :
       lm::RuleStore::PhrasesAbove(rules_.opener_removals, min_support)) {
    if (strings::StartsWith(text, opener)) {
      text = strings::Trim(text.substr(opener.size()));
      break;
    }
  }
  // Tone alignment: the experts' consistently warm outputs (high learned
  // closing rate) teach the model to drop robotic boilerplate, even when
  // no explicit opener-deletion example made it into C_alpha.
  if (rules_.closing_rate > 0.3) {
    const size_t opener_len = lm::MechanicalOpenerLength(text);
    if (opener_len > 0) {
      text = strings::Trim(text.substr(opener_len));
    }
  }
  for (const std::string& token :
       lm::RuleStore::PhrasesAbove(rules_.strip_tokens, min_support)) {
    if (strings::Contains(text, token)) {
      text = strings::Trim(strings::ReplaceAll(text, token, ""));
    }
  }
  if (rules_.reflow_support >= min_support &&
      !strings::Contains(text, "\n")) {
    if (strings::Contains(text, " - ") || strings::Contains(text, " 2. ")) {
      text = repair::ReflowLists(text);
    }
    text = repair::CollapseSpaces(text);
  }
  if (rules_.doubled_removal_support >= min_support &&
      !strings::Contains(text, "\n")) {
    text = repair::RemoveDoubledWords(text);
  }
  if (rules_.capitalize_support >= min_support) {
    text = repair::CapitalizeSentences(text);
  }
}

void CoachLm::ApplyResponseRepairsCompiled(std::string* text_out) const {
  // Mirrors ApplyResponseRepairs rule for rule; see ReviseInstructionCompiled.
  const lm::CompiledRuleSet& compiled = *compiled_;
  std::string& text = *text_out;
  lm::RuleMatcher matcher(compiled, text);
  size_t fired = 0;
  for (const lm::CompiledTokenSub& sub : compiled.token_subs()) {
    if (!matcher.Contains(sub.pattern, text)) continue;
    text = strings::ReplaceAll(text, sub.from, sub.to);
    matcher.NoteReplacement(sub.to);
    ++fired;
  }
  for (const lm::CompiledPhrase& opener : compiled.openers()) {
    if (matcher.StartsWith(opener.pattern, text)) {
      text = strings::Trim(text.substr(opener.text.size()));
      matcher.NoteErasure();
      ++fired;
      break;
    }
  }
  if (compiled.closing_rate() > 0.3) {
    const size_t opener_len = lm::MechanicalOpenerLength(text);
    if (opener_len > 0) {
      text = strings::Trim(text.substr(opener_len));
      matcher.NoteErasure();
    }
  }
  for (const lm::CompiledPhrase& token : compiled.strip_tokens()) {
    if (matcher.Contains(token.pattern, text)) {
      text = strings::Trim(strings::ReplaceAll(text, token.text, ""));
      matcher.NoteErasure();
      ++fired;
    }
  }
  if (compiled.reflow() && !strings::Contains(text, "\n")) {
    if (strings::Contains(text, " - ") || strings::Contains(text, " 2. ")) {
      text = repair::ReflowLists(text);
    }
    text = repair::CollapseSpaces(text);
  }
  if (compiled.remove_doubled() && !strings::Contains(text, "\n")) {
    text = repair::RemoveDoubledWords(text);
  }
  if (compiled.capitalize()) {
    text = repair::CapitalizeSentences(text);
  }
  EmitRuleFireMetrics(fired, matcher);
}

std::string CoachLm::ReviseResponse(const InstructionPair& pair,
                                    const std::string& new_instruction,
                                    Rng* rng) const {
  const std::string context = new_instruction + "\n" + pair.input;
  std::string text = pair.output;

  // Learned rewrite policy: weakly related (or empty) responses are
  // replaced wholesale with generated content. Relatedness is the
  // backbone's associative agreement — the same feature the trainer used
  // to estimate the threshold.
  const double relatedness =
      backbone_->TopicalAgreement(pair.FullInstruction(), text);
  const bool rewrite =
      rules_.rewrite_overlap_threshold >= 0.0 &&
      (strings::Trim(text).empty() ||
       relatedness < rules_.rewrite_overlap_threshold);
  if (rewrite) {
    const std::string fresh = ComposeRewrite(pair, context, rng);
    if (!fresh.empty()) {
      text = fresh;
    }
  } else if (compiled_ != nullptr) {
    ApplyResponseRepairsCompiled(&text);
  } else {
    ApplyResponseRepairs(&text);
  }

  // Learned expansion: grow thin responses toward the expert target
  // length, using backbone knowledge for content.
  const double target_words = rules_.mean_target_response_words;
  const size_t expansion_budget = static_cast<size_t>(std::clamp(
      std::llround(rules_.mean_appended_sentences), 0LL, 4LL));
  size_t added = 0;
  while (added < expansion_budget &&
         static_cast<double>(strings::CountWords(text)) + 10.0 <
             target_words) {
    const std::string expansion = ComposeExpansion(context, text, 1, rng);
    if (strings::Trim(expansion).empty()) break;
    text += expansion;
    ++added;
  }

  // Learned closing behaviour: add a warm closing (when the experts
  // usually did) unless the response already ends on one.
  const std::string tail =
      text.size() > 120 ? text.substr(text.size() - 120) : text;
  if (!lm::LooksLikeClosing(tail) && rng->NextBool(rules_.closing_rate)) {
    const std::string closing =
        compiled_ != nullptr
            ? RotatingFromVector(compiled_->closings(), rng)
            : RotatingPhrase(rules_.closings, config_.min_rule_support, rng);
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
  const std::string raw = ReviseToText(pair, rng);
  // Post-processing (Section III-B1): strip invalid characters and
  // repeated strings, then parse; fall back to the original when the
  // output is not a valid instruction pair.
  std::string cleaned;
  cleaned.reserve(raw.size());
  for (char c : raw) {
    if (static_cast<unsigned char>(c) >= 0x20 || c == '\n' || c == '\t') {
      cleaned += c;
    }
  }
  cleaned = strings::ReplaceAll(cleaned, "@@ ", "");
  cleaned = strings::Trim(cleaned);
  auto parsed = lm::DeserializePair(cleaned);
  if (!parsed.ok() || strings::Trim(parsed->output).empty()) {
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

/// One pair's outcome in a fault-tolerant / checkpointed revision pass:
/// the revised pair plus the per-item stat flags, serializable to one
/// JSONL line so completed work survives a crash.
struct RevisedItemRecord {
  InstructionPair pair;
  bool invalid_replaced = false;
  bool leakage_skipped = false;
  bool changed = false;
  bool quarantined = false;
  bool recovered = false;

  enum Flag : int64_t {
    kInvalid = 1,
    kLeakage = 2,
    kChanged = 4,
    kQuarantined = 8,
    kRecovered = 16,
  };

  std::string ToLine() const {
    json::Object o;
    o["pair"] = pair.ToJson();
    int64_t flags = 0;
    if (invalid_replaced) flags |= kInvalid;
    if (leakage_skipped) flags |= kLeakage;
    if (changed) flags |= kChanged;
    if (quarantined) flags |= kQuarantined;
    if (recovered) flags |= kRecovered;
    o["flags"] = json::Value(flags);
    return json::Value(std::move(o)).Dump();
  }

  static Result<RevisedItemRecord> FromLine(const std::string& line) {
    COACHLM_ASSIGN_OR_RETURN(json::Value value, json::Parse(line));
    RevisedItemRecord record;
    COACHLM_ASSIGN_OR_RETURN(record.pair,
                             InstructionPair::FromJson(value.At("pair")));
    COACHLM_ASSIGN_OR_RETURN(double flags, value.GetNumber("flags"));
    const auto bits = static_cast<int64_t>(flags);
    record.invalid_replaced = (bits & kInvalid) != 0;
    record.leakage_skipped = (bits & kLeakage) != 0;
    record.changed = (bits & kChanged) != 0;
    record.quarantined = (bits & kQuarantined) != 0;
    record.recovered = (bits & kRecovered) != 0;
    return record;
  }
};

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
  const bool checkpointed = checkpoint != nullptr && checkpoint->enabled();

  if (!runtime->governed() && !checkpointed) {
    // Hot path: no injection, no retry envelope, no journaling — exactly
    // the schedule-independent pass the determinism suite pins down.
    std::vector<InstructionPair> revised(dataset.size());
    std::vector<RevisionPassStats> shard_stats(dataset.size());
    exec.ParallelFor(dataset.size(), [&](size_t i) {
      const InstructionPair& pair = dataset[i];
      RevisionPassStats& s = shard_stats[i];
      if (!training_instructions.empty() &&
          training_instructions.count(lm::SerializePair(pair)) > 0) {
        // Leakage guard: instructions seen in coach training are adopted
        // unchanged in the revised dataset.
        ++s.total;
        ++s.leakage_skipped;
        revised[i] = pair;
        return;
      }
      // Deterministic per-pair stream: thread scheduling cannot change
      // results.
      Rng rng = DeriveRng(config_.seed, pair.id);
      revised[i] = Revise(pair, &rng, &s);
    });
    // Serial fold in dataset order (the counters are commutative, but a
    // fixed order keeps the path schedule-independent by construction).
    RevisionPassStats totals;
    for (const RevisionPassStats& s : shard_stats) {
      totals.total += s.total;
      totals.invalid_replaced += s.invalid_replaced;
      totals.leakage_skipped += s.leakage_skipped;
      totals.changed += s.changed;
    }
    EmitReviseMetrics(totals, revised);
    if (stats != nullptr) {
      stats->total += totals.total;
      stats->invalid_replaced += totals.invalid_replaced;
      stats->leakage_skipped += totals.leakage_skipped;
      stats->changed += totals.changed;
    }
    return InstructionDataset(std::move(revised));
  }

  // Fault-tolerant / checkpointed path. Each item resolves to a record;
  // revision runs under the runtime envelope so a permanently-failing pair
  // degrades to its original text instead of aborting the pass.
  CancelToken* cancel = runtime->cancel_token();
  // In the non-checkpointed branch this marks which items the token cut
  // off, so they can be quarantined once, in index order, after the loop.
  std::vector<uint8_t>* cancel_hit = nullptr;
  auto revise_one = [&](size_t i) {
    RevisedItemRecord record;
    const InstructionPair& pair = dataset[i];
    if (!training_instructions.empty() &&
        training_instructions.count(lm::SerializePair(pair)) > 0) {
      record.pair = pair;
      record.leakage_skipped = true;
      return record;
    }
    InstructionPair out;
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
          out = Revise(pair, &rng, &attempt_stats);
          s = attempt_stats;
          return Status::OK();
        },
        &attempts);
    if (!status.ok()) {
      record.pair = pair;
      record.quarantined = true;
      if (cancel_hit != nullptr && cancel != nullptr && cancel->cancelled()) {
        (*cancel_hit)[i] = 1;
      }
      return record;
    }
    record.pair = std::move(out);
    record.invalid_replaced = s.invalid_replaced > 0;
    record.changed = s.changed > 0;
    record.recovered = attempts > 1;
    return record;
  };

  std::vector<RevisedItemRecord> records(dataset.size());
  size_t resumed = 0;
  if (checkpointed) {
    Status commit_error = Status::OK();
    GovernedLoopOptions options;
    options.cancel = cancel;
    options.watchdog = runtime->watchdog();
    options.commit_error = &commit_error;
    // Overlap chunk compute with journal IO; the checkpointer's admission
    // gate bounds buffered chunks, so memory stays O(chunk), not O(corpus).
    options.async_commits = true;
    const GovernedLoopResult loop = RunGovernedCheckpointedLoop(
        checkpoint, exec, &records, revise_one,
        [](const RevisedItemRecord& record) { return record.ToLine(); },
        [](const std::string& line, RevisedItemRecord* record) {
          Result<RevisedItemRecord> decoded = RevisedItemRecord::FromLine(line);
          if (!decoded.ok()) return false;
          *record = std::move(decoded).ValueOrDie();
          return true;
        },
        options);
    resumed = loop.restored;
    if (!commit_error.ok()) {
      // A failing journal must not fail the pass; record the loss of
      // crash-safety with the progress cursor as provenance.
      runtime->QuarantineRecordFailure(FaultSite::kIo, dataset.size(),
                                       commit_error);
    }
    if (loop.cancelled) {
      // The run was cut off: the checkpoint covers exactly
      // [0, loop.completed), so pass the unprocessed originals through and
      // quarantine them with the cancellation cause — a later --resume
      // picks them up and lands byte-identical to an uninterrupted run.
      const Status cause = cancel->status();
      for (size_t i = loop.completed; i < dataset.size(); ++i) {
        records[i] = RevisedItemRecord();
        records[i].pair = dataset[i];
        records[i].quarantined = true;
        runtime->QuarantineRecordFailure(FaultSite::kRevise, dataset[i].id,
                                         cause, 0);
      }
    }
  } else {
    std::vector<uint8_t> hit(dataset.size(), 0);
    cancel_hit = &hit;
    exec.ParallelFor(dataset.size(), [&](size_t i) {
      records[i] = revise_one(i);
      if (StallWatchdog* wd = runtime->watchdog()) wd->Tick();
    });
    cancel_hit = nullptr;
    if (cancel != nullptr && cancel->cancelled()) {
      const Status cause = cancel->status();
      for (size_t i = 0; i < hit.size(); ++i) {
        if (hit[i] != 0) {
          runtime->QuarantineRecordFailure(FaultSite::kRevise, dataset[i].id,
                                           cause, 0);
        }
      }
    }
  }

  std::vector<InstructionPair> revised;
  revised.reserve(records.size());
  RevisionPassStats totals;
  totals.resumed = resumed;
  for (RevisedItemRecord& record : records) {
    ++totals.total;
    totals.invalid_replaced += record.invalid_replaced ? 1 : 0;
    totals.leakage_skipped += record.leakage_skipped ? 1 : 0;
    totals.changed += record.changed ? 1 : 0;
    totals.quarantined += record.quarantined ? 1 : 0;
    totals.recovered += record.recovered ? 1 : 0;
    revised.push_back(std::move(record.pair));
  }
  EmitReviseMetrics(totals, revised);
  if (stats != nullptr) {
    stats->total += totals.total;
    stats->invalid_replaced += totals.invalid_replaced;
    stats->leakage_skipped += totals.leakage_skipped;
    stats->changed += totals.changed;
    stats->quarantined += totals.quarantined;
    stats->recovered += totals.recovered;
    stats->resumed += totals.resumed;
  }
  return InstructionDataset(std::move(revised));
}

InstructionDataset CoachLm::ReviseDataset(
    const InstructionDataset& dataset,
    const std::unordered_set<std::string>& training_instructions,
    RevisionPassStats* stats, size_t num_threads) const {
  if (num_threads == 0) {
    return ReviseDataset(dataset, training_instructions, stats,
                         ExecutionContext::Default());
  }
  const ExecutionContext exec(num_threads);
  return ReviseDataset(dataset, training_instructions, stats, exec);
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

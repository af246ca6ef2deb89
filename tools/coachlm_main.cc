// The coachlm command-line tool: the Fig. 2 pipeline as composable
// filesystem steps, so the library can be driven without writing C++.
//
//   coachlm generate --size 52000 --seed 42 --out corpus.json
//   coachlm study    --in corpus.json --sample 6000 --out revisions.jsonl
//                    [--merged alpaca_human.json]
//   coachlm train    --revisions revisions.jsonl --alpha 0.3
//                    --backbone chatglm2 --checkpoint coach.json
//   coachlm revise   --in corpus.json --checkpoint coach.json
//                    --out revised.json [--verify]
//   coachlm rate     --in revised.json [--detailed]
//   coachlm inspect  --checkpoint coach.json
//   coachlm diff     --before corpus.json --after revised.json
//   coachlm evaluate --original corpus.json --revised revised.json
//                    [--human alpaca_human.json] [--testset coachlm150]
//   coachlm pipeline --size 5000 --seed 42 --out revised.json
//                    [--checkpoint-dir ckpt --resume]
//   coachlm convert  --in corpus.json --out corpus.manifest.json
//                    [--shards 4] [--format binary]
//
// Every step is deterministic given its seeds; datasets are plain
// Alpaca-format JSON and revisions are JSONL, so steps interoperate with
// external tooling.
//
// Fault tolerance (generate / revise / pipeline): --fault-plan injects
// deterministic transient/permanent faults, --retry-max bounds retries,
// --quarantine saves permanently-failed records, and --checkpoint-dir +
// --resume make a killed run continue to byte-identical output.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "coach/pipeline.h"
#include "coach/trainer.h"
#include "common/cancel.h"
#include "common/checkpoint.h"
#include "common/clock.h"
#include "common/env.h"
#include "common/execution.h"
#include "common/fault.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/report.h"
#include "common/retry.h"
#include "common/runtime.h"
#include "common/table_writer.h"
#include "common/trace.h"
#include "json/jsonl.h"
#include "json/parse_limits.h"
#include "data/corpus_io.h"
#include "data/revision_io.h"
#include "data/shard.h"
#include "expert/pipeline.h"
#include "quality/accuracy_rater.h"
#include "quality/quality_report.h"
#include "serve/model_host.h"
#include "serve/serve_config.h"
#include "serve/server.h"
#include "serve/supervisor.h"
#include "synth/generator.h"
#include "testsets/testset.h"
#include "tuning/evaluation.h"
#include "tuning/model_zoo.h"

namespace coachlm {
namespace {

constexpr char kUsage[] =
    "usage: coachlm <command> [flags]\n"
    "\n"
    "commands:\n"
    "  generate  --size N --seed S --out corpus.json [--threads T]\n"
    "            synthesize an ALPACA52K-like instruction dataset\n"
    "  study     --in corpus.json --sample N --seed S --out revisions.jsonl\n"
    "            [--merged merged.json] [--threads T]\n"
    "            run the expert revision study\n"
    "  train     --revisions revisions.jsonl --alpha A\n"
    "            --backbone llama|chatglm|chatglm2 --checkpoint coach.json\n"
    "            coach instruction tuning (writes a rule checkpoint)\n"
    "  revise    --in corpus.json --checkpoint coach.json --out revised.json\n"
    "            [--alpha A] [--backbone B] [--verify] [--threads T]\n"
    "            revise a dataset with a trained CoachLM\n"
    "  rate      --in dataset.json [--detailed] [--threads T]\n"
    "            ChatGPT-style 0-5 quality report (+ per-dimension table)\n"
    "  inspect   --checkpoint coach.json\n"
    "            print the learned rule store (what coach tuning learned)\n"
    "  diff      --before a.json --after b.json [--threads T]\n"
    "            revision magnitude + per-dimension flaw-rate movement\n"
    "  evaluate  --original corpus.json --revised revised.json\n"
    "            [--human merged.json] [--testset coachlm150|pandalm170|\n"
    "            vicuna80|selfinstruct252] [--threads T]\n"
    "            tune + judge the model zoo\n"
    "  pipeline  --size N --seed S --sample N --alpha A --backbone B\n"
    "            --out revised.json [--threads T]\n"
    "            generate -> study -> train -> revise in one run\n"
    "  convert   --in corpus.json --out corpus.manifest.json [--shards N]\n"
    "            [--format json|jsonl|binary]\n"
    "            re-encode a corpus between backends (JSON / JSONL /\n"
    "            binary columnar shards; see docs/FORMAT.md)\n"
    "  metrics   [--validate report.json]\n"
    "            print the metric catalog (name, type, unit, stage, help);\n"
    "            --validate schema-checks a run report or bench trajectory\n"
    "  serve     --checkpoint coach.json [--port P] [--serve-workers W]\n"
    "            [--serve-processes N] [--queue-depth Q]\n"
    "            [--request-deadline-ms D]\n"
    "            long-lived revision service on 127.0.0.1 (docs/SERVING.md):\n"
    "            POST /v1/revise revises a JSONL body with the loaded\n"
    "            coach; SIGHUP or POST /admin/reload hot-swaps the\n"
    "            checkpoint; SIGTERM drains gracefully; a full admission\n"
    "            queue sheds with 429 + Retry-After\n"
    "\n"
    "serving (serve only; batch-only flags like --resume are rejected):\n"
    "  --port P                listen port on 127.0.0.1 (1..65535; 8080)\n"
    "  --serve-workers W       fixed worker pool size (1..1024; 4)\n"
    "  --serve-processes N     crash-only mode: fork N supervised server\n"
    "                          processes sharing the port via SO_REUSEPORT;\n"
    "                          crashed workers respawn with deterministic\n"
    "                          backoff, a crash loop trips a circuit\n"
    "                          breaker (exit 3) (1..256; 1 = in-process)\n"
    "  --queue-depth Q         admission queue bound before shedding\n"
    "                          (1..1000000; 64)\n"
    "  --request-deadline-ms D per-request budget; a blown deadline is a\n"
    "                          typed 504 (>= 1; 2000)\n"
    "  --read-timeout-ms N     socket read timeout: a stalled or dripping\n"
    "                          peer gets a typed 408 instead of pinning a\n"
    "                          worker (>= 1; default: the request deadline)\n"
    "  --write-timeout-ms N    socket write timeout: a peer that stops\n"
    "                          reading its response is dropped (>= 1;\n"
    "                          default: the request deadline)\n"
    "\n"
    "corpus I/O (every dataset-reading/-writing command; docs/FORMAT.md):\n"
    "  inputs are sniffed: Alpaca JSON arrays, JSONL, binary columnar\n"
    "  files, and shard manifests all load through the same record-stream\n"
    "  interface, byte-identically.\n"
    "  --format F              output corpus format: auto|json|jsonl|binary\n"
    "                          (auto resolves from the output path's\n"
    "                          extension: .jsonl, .clmb/.bin, else JSON)\n"
    "  --shards N              split the output corpus into N shard files\n"
    "                          plus a self-describing .manifest.json index\n"
    "                          (N >= 1; 1 keeps a single file unless the\n"
    "                          path names a .manifest.json)\n"
    "  --corpus-manifest FILE  read the input corpus from a shard manifest\n"
    "                          (overrides --in; must name a .manifest.json;\n"
    "                          revise checkpoints/resumes shard by shard)\n"
    "\n"
    "--threads T sizes the command\'s execution context (0 = default:\n"
    "COACHLM_THREADS or hardware concurrency); results are byte-identical\n"
    "at any thread count.\n"
    "\n"
    "fault tolerance (generate, revise, pipeline):\n"
    "  --fault-plan SPEC       inject deterministic faults, e.g. \"0.05\" or\n"
    "                          \"rate=0.05,permanent=0.001,seed=7,\n"
    "                          sites=revise+io\" (default: COACHLM_FAULT_PLAN)\n"
    "  --retry-max N           attempts per record before quarantine (4)\n"
    "  --quarantine FILE       save permanently-failed records as JSONL\n"
    "  --checkpoint-dir DIR    journal progress for crash-safe runs\n"
    "  --checkpoint-interval N items journaled per commit (2048)\n"
    "  --resume                continue from the journal in --checkpoint-dir\n"
    "                          (omitting it restarts the stage fresh)\n"
    "  --crash-after-commits N testing: kill the process after the Nth\n"
    "                          checkpoint commit\n"
    "\n"
    "resource governance (generate, revise, pipeline):\n"
    "  --deadline-ms N         wall-clock budget: the run cancels\n"
    "                          cooperatively at the deadline, quarantines\n"
    "                          unprocessed records, and (with\n"
    "                          --checkpoint-dir) leaves a valid journal for\n"
    "                          --resume\n"
    "  --stall-timeout-ms N    cancel the run when no record completes for\n"
    "                          N ms (frozen-stage watchdog)\n"
    "  --max-record-bytes N    reject any single record/line larger than N\n"
    "                          bytes (default 4194304)\n"
    "  --max-json-depth N      reject JSON nested deeper than N containers\n"
    "                          (default 32)\n"
    "full parse-limit spec: COACHLM_PARSE_LIMITS (see ParseLimits::FromSpec)\n"
    "\n"
    "observability (every command; see docs/OBSERVABILITY.md):\n"
    "  --metrics-out FILE      write a machine-readable run report (JSON):\n"
    "                          per-stage spans and wall time, metric\n"
    "                          counters/gauges/histograms, thread\n"
    "                          utilization, peak RSS\n"
    "                          (default: COACHLM_METRICS_OUT)\n"
    "  --metrics-deterministic pin the report's volatile fields — span\n"
    "                          timings from a stepping clock, threads/RSS/\n"
    "                          utilization zeroed — so a seeded run's\n"
    "                          report is byte-identical at any thread\n"
    "                          count (default: COACHLM_METRICS_DETERMINISTIC=1)\n";

/// The command's execution context, sized by --threads (0 = default:
/// COACHLM_THREADS, then hardware concurrency). Commands run once per
/// process, so a function-local static covers the one non-default width.
const ExecutionContext& FlagExec(const Flags& flags) {
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 0));
  if (threads == 0) return ExecutionContext::Default();
  static const ExecutionContext exec(threads);
  return exec;
}

/// \name Observed dataset IO
/// Dataset loads/saves wrapped in "load"/"save" spans, so run reports
/// account for IO wall time explicitly instead of leaving it as uncovered
/// root-span remainder. All paths go through the corpus_io factories, so
/// every command reads JSON, JSONL, binary, and sharded corpora alike.
/// @{
Result<InstructionDataset> LoadDataset(const std::string& path) {
  const StageSpan span("load");
  return LoadCorpus(path);
}

Status SaveDataset(const InstructionDataset& dataset, const std::string& path,
                   const CorpusWriteOptions& options = {}) {
  const StageSpan span("save");
  return SaveCorpus(path, dataset, options);
}
/// @}

/// Output-side corpus choices from --format / --shards (both validated in
/// ValidateFlags before any command runs).
CorpusWriteOptions FlagWriteOptions(const Flags& flags) {
  CorpusWriteOptions options;
  options.format = ParseCorpusFormat(flags.GetString("format", "auto"))
                       .ValueOr(CorpusFormat::kAuto);
  options.shards = static_cast<size_t>(flags.GetInt("shards", 1));
  return options;
}

/// The input corpus path: --corpus-manifest (a shard manifest) overrides
/// the command's own input flag.
std::string InputPath(const Flags& flags, const char* flag,
                      const char* fallback) {
  if (flags.Has("corpus-manifest")) return flags.GetString("corpus-manifest");
  return flags.GetString(flag, fallback);
}

lm::BackboneProfile BackboneByName(const std::string& name) {
  if (name == "llama") return lm::Llama7B();
  if (name == "chatglm") return lm::ChatGlm6B();
  return lm::ChatGlm26B();
}

/// Builds the command's fault-tolerance runtime from --fault-plan and
/// --retry-max. Returns nullptr when neither flag is present — callers then
/// use PipelineRuntime::Default(), which honors COACHLM_FAULT_PLAN /
/// COACHLM_RETRY_MAX.
Result<std::unique_ptr<PipelineRuntime>> MakeRuntime(const Flags& flags) {
  if (!flags.Has("fault-plan") && !flags.Has("retry-max")) {
    return std::unique_ptr<PipelineRuntime>();
  }
  COACHLM_ASSIGN_OR_RETURN(FaultPlan plan,
                           FaultPlan::Parse(flags.GetString("fault-plan")));
  RetryPolicy policy;
  COACHLM_ASSIGN_OR_RETURN(
      const int64_t retry_max,
      flags.GetIntStrict("retry-max", policy.max_attempts));
  policy.max_attempts = static_cast<int>(retry_max);
  if (policy.max_attempts < 1) {
    return Status::InvalidArgument("--retry-max must be >= 1");
  }
  return std::make_unique<PipelineRuntime>(FaultInjector(plan), policy);
}

/// The wall-clock budget and stall watchdog of a governed command. Owns
/// the CancelToken the runtime polls; keep it alive until the command
/// returns.
struct Governance {
  std::unique_ptr<CancelToken> token;
  std::unique_ptr<StallWatchdog> watchdog;

  bool cancelled() const { return token != nullptr && token->cancelled(); }
};

/// Builds governance from --deadline-ms / --stall-timeout-ms and attaches
/// it to \p runtime. With neither flag no token is attached, so the
/// stages' item loops admit every item.
Governance MakeGovernance(const Flags& flags, PipelineRuntime* runtime) {
  Governance governance;
  const int64_t deadline_ms = flags.GetInt("deadline-ms", 0);
  const int64_t stall_ms = flags.GetInt("stall-timeout-ms", 0);
  if (deadline_ms <= 0 && stall_ms <= 0) return governance;
  Clock* clock = Clock::System();
  governance.token =
      deadline_ms > 0
          ? std::make_unique<CancelToken>(
                clock, clock->NowMicros() + deadline_ms * 1000)
          : std::make_unique<CancelToken>();
  runtime->set_cancel_token(governance.token.get());
  if (stall_ms > 0) {
    governance.watchdog = std::make_unique<StallWatchdog>(
        clock, governance.token.get(), flags.command(), stall_ms * 1000);
    runtime->set_watchdog(governance.watchdog.get());
    // Poll a few times per stall budget so detection lag stays small
    // relative to the budget itself.
    governance.watchdog->Start(
        std::max<int64_t>(stall_ms * 1000 / 4, 10000));
  }
  return governance;
}

/// Prints why a governed run stopped early. The command still exits 0:
/// its outputs are written (unprocessed records pass through, quarantined)
/// and a checkpointed run can continue with --resume.
void ReportCancellation(const Governance& governance, bool checkpointed) {
  if (!governance.cancelled()) return;
  std::printf("run cancelled: %s%s\n",
              governance.token->status().ToString().c_str(),
              checkpointed ? " (checkpoint kept; re-run with --resume to "
                             "finish)"
                           : "");
}

/// The checkpointer for \p stage, enabled by --checkpoint-dir. Without
/// --resume any prior journal is discarded first, so a re-run starts
/// fresh; with it, the stage continues from the journaled cursor.
std::unique_ptr<StageCheckpointer> MakeCheckpointer(
    const Flags& flags, const std::string& stage,
    const std::string& fingerprint) {
  // Heap-allocated: the checkpointer owns its async-commit thread and is
  // therefore not movable.
  auto checkpoint = std::make_unique<StageCheckpointer>(
      flags.GetString("checkpoint-dir"), stage, ConfigFingerprint(fingerprint),
      static_cast<size_t>(flags.GetInt("checkpoint-interval", 2048)));
  if (checkpoint->enabled() && !flags.Has("resume")) {
    // Discarding a stale journal is best-effort: if it survives, the
    // fingerprint check rejects it at the next Resume anyway.
    (void)checkpoint->Finish();
  }
  if (checkpoint->enabled() && flags.Has("crash-after-commits")) {
    checkpoint->set_crash_after_commits(
        static_cast<int>(flags.GetInt("crash-after-commits", 0)));
  }
  return checkpoint;
}

/// Prints what the runtime absorbed and saves the quarantine log when
/// --quarantine was given.
Status ReportRuntime(const PipelineRuntime& runtime, const Flags& flags) {
  if (runtime.recovered_records() > 0 || runtime.quarantined_records() > 0) {
    std::printf("runtime: %llu records recovered via retry, "
                "%zu quarantined\n",
                static_cast<unsigned long long>(runtime.recovered_records()),
                runtime.quarantined_records());
  }
  if (flags.Has("quarantine")) {
    const std::string path =
        flags.GetString("quarantine", "quarantine.jsonl");
    COACHLM_RETURN_NOT_OK(runtime.quarantine().Save(path));
    std::printf("wrote %zu quarantine records to %s\n",
                runtime.quarantine().size(), path.c_str());
  }
  return Status::OK();
}

Status RunGenerate(const Flags& flags) {
  synth::CorpusConfig config;
  config.size = static_cast<size_t>(flags.GetInt("size", 52000));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  synth::SynthCorpusGenerator generator(config);
  COACHLM_ASSIGN_OR_RETURN(std::unique_ptr<PipelineRuntime> owned,
                           MakeRuntime(flags));
  PipelineRuntime* runtime =
      owned != nullptr ? owned.get() : PipelineRuntime::Default();
  const Governance governance = MakeGovernance(flags, runtime);
  std::unique_ptr<StageCheckpointer> checkpoint = MakeCheckpointer(
      flags, "generate",
      "generate size=" + std::to_string(config.size) +
          " seed=" + std::to_string(config.seed) +
          " plan=" + runtime->injector().plan().ToString());
  const synth::SynthCorpus corpus =
      generator.Generate(FlagExec(flags), runtime, checkpoint.get());
  // A cancelled run keeps its journal so --resume can finish the work.
  if (checkpoint->enabled() && !governance.cancelled()) {
    COACHLM_RETURN_NOT_OK(checkpoint->Finish());
  }
  const std::string out = flags.GetString("out", "corpus.json");
  COACHLM_RETURN_NOT_OK(SaveDataset(corpus.dataset, out, FlagWriteOptions(flags)));
  std::printf("wrote %zu pairs to %s\n", corpus.dataset.size(), out.c_str());
  ReportCancellation(governance, checkpoint->enabled());
  return ReportRuntime(*runtime, flags);
}

Status RunStudy(const Flags& flags) {
  COACHLM_ASSIGN_OR_RETURN(
      InstructionDataset corpus,
      LoadDataset(InputPath(flags, "in", "corpus.json")));
  synth::ContentEngine engine;
  expert::RevisionStudyConfig config;
  config.sample_size = static_cast<size_t>(flags.GetInt("sample", 6000));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  const auto study =
      expert::RunRevisionStudy(corpus, engine, config, {}, FlagExec(flags));
  const std::string out = flags.GetString("out", "revisions.jsonl");
  {
    const StageSpan save_span("save");
    COACHLM_RETURN_NOT_OK(SaveRevisions(out, study.revisions));
  }
  std::printf("examined %zu pairs: %zu excluded, %zu revised "
              "(instruction side %zu), %.0f person-days\n",
              config.sample_size, study.filter_stats.TotalExcluded(),
              study.revised_pairs, study.instruction_revised_pairs,
              study.person_days);
  std::printf("wrote %zu revision records to %s\n", study.revisions.size(),
              out.c_str());
  if (flags.Has("merged")) {
    const std::string merged = flags.GetString("merged");
    COACHLM_RETURN_NOT_OK(SaveDataset(study.merged_dataset, merged));
    std::printf("wrote Alpaca-human training set to %s\n", merged.c_str());
  }
  return Status::OK();
}

Status RunTrain(const Flags& flags) {
  Result<RevisionDataset> loaded = [&] {
    const StageSpan load_span("load");
    return LoadRevisions(flags.GetString("revisions", "revisions.jsonl"));
  }();
  COACHLM_ASSIGN_OR_RETURN(RevisionDataset revisions, std::move(loaded));
  coach::CoachConfig config;
  config.alpha = flags.GetDouble("alpha", 0.3);
  config.backbone = BackboneByName(flags.GetString("backbone", "chatglm2"));
  const coach::CoachLm model = [&] {
    const StageSpan train_span("train");
    return coach::CoachTrainer(config).Train(revisions);
  }();
  const std::string checkpoint = flags.GetString("checkpoint", "coach.json");
  {
    const StageSpan save_span("save");
    COACHLM_RETURN_NOT_OK(model.SaveCheckpoint(checkpoint));
  }
  std::printf("coach tuned on %zu of %zu revision pairs (alpha=%.2f, "
              "backbone=%s); checkpoint: %s\n",
              model.rules().train_pairs, revisions.size(), config.alpha,
              config.backbone.name.c_str(), checkpoint.c_str());
  return Status::OK();
}

Status RunRevise(const Flags& flags) {
  const std::string in = InputPath(flags, "in", "corpus.json");
  coach::CoachConfig config;
  config.alpha = flags.GetDouble("alpha", 0.3);
  config.backbone = BackboneByName(flags.GetString("backbone", "chatglm2"));
  config.verify_expansions = flags.Has("verify");
  COACHLM_ASSIGN_OR_RETURN(
      coach::CoachLm model,
      coach::CoachLm::LoadCheckpoint(
          flags.GetString("checkpoint", "coach.json"), config));
  COACHLM_ASSIGN_OR_RETURN(std::unique_ptr<PipelineRuntime> owned,
                           MakeRuntime(flags));
  PipelineRuntime* runtime =
      owned != nullptr ? owned.get() : PipelineRuntime::Default();
  const Governance governance = MakeGovernance(flags, runtime);
  const std::string fingerprint =
      "revise in=" + in + " alpha=" + std::to_string(config.alpha) +
      " backbone=" + config.backbone.name +
      " plan=" + runtime->injector().plan().ToString();

  COACHLM_ASSIGN_OR_RETURN(const CorpusSniff sniff, SniffCorpus(in));
  coach::RevisionPassStats stats;
  InstructionDataset revised;
  bool checkpointed = false;
  if (sniff.sharded) {
    // Per-shard resumable execution: every shard is its own checkpoint /
    // resume unit (shard-qualified stage name and fingerprint), and the
    // outputs concatenate in shard order — byte-identical to the
    // whole-corpus pass because each pair's RNG derives from its id, not
    // its position. A killed run resumes finished shards instantly from
    // their journals and recomputes only the unfinished remainder.
    COACHLM_ASSIGN_OR_RETURN(const ShardManifest manifest,
                             ShardManifest::Load(in));
    const size_t num_shards = manifest.shards.size();
    revised.pairs().reserve(static_cast<size_t>(manifest.TotalRecords()));
    for (size_t k = 0; k < num_shards; ++k) {
      COACHLM_ASSIGN_OR_RETURN(std::unique_ptr<RecordReader> reader,
                               OpenShard(manifest, in, k));
      std::unique_ptr<StageCheckpointer> checkpoint = MakeCheckpointer(
          flags, ShardStageName("revise", k, num_shards),
          fingerprint + " shard=" + manifest.shards[k].file);
      checkpointed = checkpointed || checkpoint->enabled();
      DatasetRecordWriter writer(&revised);
      COACHLM_ASSIGN_OR_RETURN(
          const coach::RevisionPassStats shard_stats,
          model.ReviseRecords(reader.get(), &writer, {}, FlagExec(flags),
                              runtime, checkpoint.get()));
      stats += shard_stats;
      if (checkpoint->enabled() && !governance.cancelled()) {
        COACHLM_RETURN_NOT_OK(checkpoint->Finish());
      }
    }
  } else {
    COACHLM_ASSIGN_OR_RETURN(InstructionDataset corpus, LoadDataset(in));
    std::unique_ptr<StageCheckpointer> checkpoint =
        MakeCheckpointer(flags, "revise", fingerprint);
    checkpointed = checkpoint->enabled();
    revised = model.ReviseDataset(corpus, {}, &stats, FlagExec(flags),
                                  runtime, checkpoint.get());
    if (checkpoint->enabled() && !governance.cancelled()) {
      COACHLM_RETURN_NOT_OK(checkpoint->Finish());
    }
  }
  const std::string out = flags.GetString("out", "revised.json");
  COACHLM_RETURN_NOT_OK(SaveDataset(revised, out, FlagWriteOptions(flags)));
  std::printf("revised %zu pairs (%zu changed, %zu invalid outputs "
              "replaced, %zu quarantined, %zu resumed); wrote %s\n",
              stats.total, stats.changed, stats.invalid_replaced,
              stats.quarantined, stats.resumed, out.c_str());
  ReportCancellation(governance, checkpointed);
  return ReportRuntime(*runtime, flags);
}

Status RunRate(const Flags& flags) {
  COACHLM_ASSIGN_OR_RETURN(
      InstructionDataset dataset,
      LoadDataset(InputPath(flags, "in", "corpus.json")));
  const auto rating =
      quality::AccuracyRater().RateDataset(dataset, FlagExec(flags));
  std::printf("%zu pairs: mean rating %.2f / 5, %.1f%% above 4.5\n",
              dataset.size(), rating.mean,
              rating.fraction_above_45 * 100.0);
  if (flags.Has("detailed")) {
    std::printf(
        "%s",
        quality::AnalyzeDataset(dataset, FlagExec(flags)).ToAscii().c_str());
  }
  return Status::OK();
}

Status RunInspect(const Flags& flags) {
  coach::CoachConfig config;
  COACHLM_ASSIGN_OR_RETURN(
      coach::CoachLm model,
      coach::CoachLm::LoadCheckpoint(
          flags.GetString("checkpoint", "coach.json"), config));
  const lm::RuleStore& rules = model.rules();
  std::printf("checkpoint: %s\n",
              flags.GetString("checkpoint", "coach.json").c_str());
  std::printf("trained on %zu coach-tuning samples\n\n", rules.train_pairs);

  std::printf("alignment statistics (what the coach will do):\n");
  std::printf("  expansion: ~%.1f sentences/pair toward %.0f words\n",
              rules.mean_appended_sentences,
              rules.mean_target_response_words);
  std::printf("  closing rate %.0f%%, context-add rate %.0f%%, rewrite "
              "rate %.0f%% (threshold %.3f)\n\n",
              rules.closing_rate * 100, rules.context_add_rate * 100,
              rules.rewrite_rate * 100, rules.rewrite_overlap_threshold);

  TableWriter subs({"Substitution", "->", "Support"});
  size_t shown = 0;
  for (const auto& [from, targets] : rules.token_subs) {
    for (const auto& [to, support] : targets) {
      if (shown++ >= 15) break;
      subs.AddRow({from, to, std::to_string(support)});
    }
  }
  std::printf("word substitutions (%zu learned, top shown):\n%s\n",
              rules.token_subs.size(), subs.ToAscii().c_str());

  auto print_table = [](const char* title,
                        const std::map<std::string, size_t>& table) {
    std::printf("%s (%zu):\n", title, table.size());
    size_t i = 0;
    for (const std::string& phrase :
         lm::RuleStore::PhrasesAbove(table, 1)) {
      if (i++ >= 6) break;
      std::printf("  [%s] x%zu\n", phrase.c_str(), table.at(phrase));
    }
    std::printf("\n");
  };
  print_table("learned closings", rules.closings);
  print_table("learned discourse markers", rules.markers);
  print_table("learned opener removals", rules.opener_removals);
  print_table("learned clause strips", rules.strip_phrases);
  std::printf("surface normalizations: capitalize x%zu, dedouble x%zu, "
              "reflow x%zu\n",
              rules.capitalize_support, rules.doubled_removal_support,
              rules.reflow_support);
  return Status::OK();
}

Status RunDiff(const Flags& flags) {
  COACHLM_ASSIGN_OR_RETURN(
      InstructionDataset before,
      LoadDataset(flags.GetString("before")));
  COACHLM_ASSIGN_OR_RETURN(
      InstructionDataset after,
      LoadDataset(flags.GetString("after")));
  if (before.size() != after.size()) {
    return Status::InvalidArgument(
        "datasets differ in size (" + std::to_string(before.size()) +
        " vs " + std::to_string(after.size()) + ")");
  }
  size_t instruction_changed = 0;
  size_t response_changed = 0;
  double edit_chars = 0.0;
  for (size_t i = 0; i < before.size(); ++i) {
    RevisionRecord record;
    record.original = before[i];
    record.revised = after[i];
    record.RecomputeDerived();
    if (record.instruction_changed) ++instruction_changed;
    if (record.response_changed) ++response_changed;
    edit_chars += static_cast<double>(record.char_edit_distance);
  }
  std::printf("%zu pairs: %zu instructions changed, %zu responses changed, "
              "mean edit %.0f chars/pair\n",
              before.size(), instruction_changed, response_changed,
              edit_chars / static_cast<double>(before.size()));
  std::printf("%s", quality::QualityReport::Compare(
                        quality::AnalyzeDataset(before, FlagExec(flags)),
                        quality::AnalyzeDataset(after, FlagExec(flags)))
                        .c_str());
  return Status::OK();
}

Status RunEvaluate(const Flags& flags) {
  COACHLM_ASSIGN_OR_RETURN(
      InstructionDataset original,
      LoadDataset(flags.GetString("original", "corpus.json")));
  COACHLM_ASSIGN_OR_RETURN(
      InstructionDataset revised,
      LoadDataset(flags.GetString("revised", "revised.json")));
  InstructionDataset human = original;
  if (flags.Has("human")) {
    COACHLM_ASSIGN_OR_RETURN(
        human, LoadDataset(flags.GetString("human")));
  }
  const std::string set_name = flags.GetString("testset", "coachlm150");
  testsets::TestSet set;
  if (set_name == "pandalm170") set = testsets::PandaLm170();
  else if (set_name == "vicuna80") set = testsets::Vicuna80();
  else if (set_name == "selfinstruct252") set = testsets::SelfInstruct252();
  else set = testsets::CoachLm150();

  tuning::ZooInputs inputs;
  inputs.original = &original;
  inputs.human_merged = &human;
  inputs.coach_revised = &revised;
  tuning::InstructionTuner tuner;
  const ExecutionContext& exec = FlagExec(flags);
  const judge::PairwiseJudge panda(judge::PandaLmProfile());
  TableWriter table({"Model", "WR1", "WR2", "QS"});
  for (const auto& entry : tuning::BuildBaselineGroup(inputs, tuner, exec)) {
    const auto eval =
        tuning::EvaluateModel(entry.model, set, panda, /*seed=*/5150, exec);
    table.AddRow({entry.model.spec().name, TableWriter::Pct(eval.rates.wr1),
                  TableWriter::Pct(eval.rates.wr2),
                  TableWriter::Pct(eval.rates.qs)});
  }
  std::printf("test set: %s (%zu items, refs: %s)\n%s", set.name.c_str(),
              set.items.size(), set.reference_source.c_str(),
              table.ToAscii().c_str());
  return Status::OK();
}

Status RunPipeline(const Flags& flags) {
  // The Fig. 2 flow in one process: synthesize a corpus, run the expert
  // study, train CoachLM, revise the corpus. The revision pass — the
  // dominant stage — is the one journaled under --checkpoint-dir.
  synth::CorpusConfig corpus_config;
  corpus_config.size = static_cast<size_t>(flags.GetInt("size", 52000));
  corpus_config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  COACHLM_ASSIGN_OR_RETURN(std::unique_ptr<PipelineRuntime> owned,
                           MakeRuntime(flags));
  PipelineRuntime* runtime =
      owned != nullptr ? owned.get() : PipelineRuntime::Default();
  const Governance governance = MakeGovernance(flags, runtime);
  const ExecutionContext& exec = FlagExec(flags);

  synth::SynthCorpusGenerator generator(corpus_config);
  const synth::SynthCorpus corpus = generator.Generate(exec, runtime);
  std::printf("generated %zu pairs\n", corpus.dataset.size());

  synth::ContentEngine engine;
  expert::RevisionStudyConfig study_config;
  study_config.sample_size = static_cast<size_t>(flags.GetInt("sample", 6000));
  study_config.seed = static_cast<uint64_t>(flags.GetInt("study-seed", 17));
  const auto study = expert::RunRevisionStudy(corpus.dataset, engine,
                                              study_config, {}, exec);
  std::printf("study: %zu revision records from %zu sampled pairs\n",
              study.revisions.size(), study_config.sample_size);

  coach::CoachConfig coach_config;
  coach_config.alpha = flags.GetDouble("alpha", 0.3);
  coach_config.backbone =
      BackboneByName(flags.GetString("backbone", "chatglm2"));

  std::unique_ptr<StageCheckpointer> checkpoint = MakeCheckpointer(
      flags, "pipeline-revise",
      "pipeline size=" + std::to_string(corpus_config.size) +
          " seed=" + std::to_string(corpus_config.seed) +
          " sample=" + std::to_string(study_config.sample_size) +
          " study-seed=" + std::to_string(study_config.seed) +
          " alpha=" + std::to_string(coach_config.alpha) +
          " backbone=" + coach_config.backbone.name +
          " plan=" + runtime->injector().plan().ToString());
  const coach::CoachPipelineResult result = coach::RunCoachPipeline(
      corpus.dataset, study.revisions, coach_config, exec, runtime,
      checkpoint.get());
  if (checkpoint->enabled() && !governance.cancelled()) {
    COACHLM_RETURN_NOT_OK(checkpoint->Finish());
  }

  const std::string out = flags.GetString("out", "revised.json");
  COACHLM_RETURN_NOT_OK(
      SaveDataset(result.revised_dataset, out, FlagWriteOptions(flags)));
  std::printf("revised %zu pairs (%zu changed, %zu invalid outputs "
              "replaced, %zu quarantined, %zu recovered, %zu resumed); "
              "wrote %s\n",
              result.stats.total, result.stats.changed,
              result.stats.invalid_replaced, result.stats.quarantined,
              result.stats.recovered, result.stats.resumed, out.c_str());
  ReportCancellation(governance, checkpoint->enabled());
  return ReportRuntime(*runtime, flags);
}

Status RunConvert(const Flags& flags) {
  // Re-encode a corpus between backends: JSONL -> sharded binary for
  // scale, binary -> JSON for interop, and every other combination. The
  // record values pass through untouched, so a round trip reproduces the
  // original bytes (the corpus-io CI job cmp-checks exactly that).
  const std::string in = InputPath(flags, "in", "corpus.json");
  const std::string out = flags.GetString("out", "corpus.clmb");
  COACHLM_ASSIGN_OR_RETURN(InstructionDataset dataset, LoadDataset(in));
  COACHLM_RETURN_NOT_OK(SaveDataset(dataset, out, FlagWriteOptions(flags)));
  std::printf("converted %zu pairs: %s -> %s\n", dataset.size(), in.c_str(),
              out.c_str());
  return Status::OK();
}

/// Run-report path of worker \p index under a supervised serve: the parent
/// merges and removes these after the fleet drains.
std::string WorkerReportPath(const std::string& metrics_out, int index) {
  return metrics_out + ".worker-" + std::to_string(index);
}

/// `coachlm serve --serve-processes N` (N > 1): crash-only mode. The
/// parent process never serves; it forks N workers that each bind the
/// shared port via SO_REUSEPORT and supervises them — reap on death,
/// respawn on a deterministic exponential backoff, circuit-break a crash
/// loop (exit kSupervisorCircuitExitCode), forward SIGTERM (drain) and
/// SIGHUP (reload) to the fleet. Each worker writes its own run report;
/// the parent folds them into its registry so Main() emits one merged,
/// schema-identical report for the whole fleet.
Status RunServeSupervised(const Flags& flags, serve::ServeConfig config,
                          int processes) {
  // Fail fast in the parent: a checkpoint that cannot load would send
  // every worker into the same crash loop, which the circuit breaker
  // would stop — but a typed startup error is cheaper and clearer.
  {
    serve::ModelHost probe(config.checkpoint, config.coach);
    COACHLM_RETURN_NOT_OK(probe.Load());
  }
  config.reuse_port = true;

  const std::string metrics_out =
      flags.Has("metrics-out") ? flags.GetString("metrics-out")
                               : GetEnvOr("COACHLM_METRICS_OUT", "");
  const bool observed = !metrics_out.empty();

  serve::SupervisorConfig supervisor_config;
  supervisor_config.processes = processes;

  auto worker_body = [&config, &metrics_out, observed](int index) -> int {
    // The child inherited the parent's signal flags, metric counts, and
    // open root span; start clean so its report covers only this worker.
    serve::ResetServeSignalsForTest();
    serve::InstallServeSignalHandlers();
    int worker_span = -1;
    if (observed) {
      MetricsRegistry::Default().Reset();
      Observability::Default().trace().Reset();
      worker_span = Observability::Default().trace().BeginSpan("serve");
    }
    serve::ModelHost models(config.checkpoint, config.coach);
    if (!models.Load().ok()) return 1;
    serve::RevisionServer server(config, &models);
    const Status started = server.StartServing();
    if (!started.ok()) {
      std::fprintf(stderr, "serve worker %d: %s\n", index,
                   started.ToString().c_str());
      return 1;
    }
    server.AwaitDrain();
    if (worker_span >= 0) {
      Observability::Default().trace().EndSpan(worker_span);
      RunReportOptions options;
      options.command = "serve";
      const Status report =
          WriteRunReport(WorkerReportPath(metrics_out, index), options);
      if (!report.ok()) {
        std::fprintf(stderr, "serve worker %d: report: %s\n", index,
                     report.ToString().c_str());
        return 1;
      }
    }
    return 0;
  };

  serve::InstallServeSignalHandlers();
  serve::WorkerSupervisor supervisor(supervisor_config, worker_body);
  COACHLM_RETURN_NOT_OK(supervisor.Start());
  std::printf("serving on 127.0.0.1:%d with %d supervised worker processes "
              "(checkpoint %s); SIGTERM drains, SIGHUP reloads\n",
              config.port, processes, config.checkpoint.c_str());
  std::fflush(stdout);
  const int code = supervisor.Run();
  const serve::SupervisorStats& stats = supervisor.stats();
  std::printf(
      "serve supervisor %s: %llu spawned, %llu crashed, %llu respawned\n",
      code == 0 ? "drained" : "circuit-broke",
      static_cast<unsigned long long>(stats.spawned),
      static_cast<unsigned long long>(stats.crashed),
      static_cast<unsigned long long>(stats.respawned));
  if (code != 0) {
    // Crash loop: exit with the distinguishable circuit-breaker code.
    // Crash-only exit — no fleet run report; the log is the diagnosis.
    std::fflush(stdout);
    std::_Exit(code);
  }
  if (observed) {
    // A worker that crashed and never drained leaves no report — skip it;
    // its partial counts died with it, which is the crash-only contract.
    for (int i = 0; i < processes; ++i) {
      const std::string path = WorkerReportPath(metrics_out, i);
      Result<std::string> text = json::ReadFile(path);
      if (!text.ok()) continue;
      COACHLM_ASSIGN_OR_RETURN(const json::Value report, json::Parse(*text));
      COACHLM_RETURN_NOT_OK(MergeRunReportMetrics(report));
      std::remove(path.c_str());
    }
  }
  return Status::OK();
}

Status RunServe(const Flags& flags) {
  serve::ServeConfig config;
  config.port = static_cast<int>(flags.GetInt("port", 8080));
  config.workers = static_cast<int>(flags.GetInt("serve-workers", 4));
  config.queue_depth = static_cast<int>(flags.GetInt("queue-depth", 64));
  config.request_deadline_ms = flags.GetInt("request-deadline-ms", 2000);
  config.read_timeout_ms = flags.GetInt("read-timeout-ms", 0);
  config.write_timeout_ms = flags.GetInt("write-timeout-ms", 0);
  config.checkpoint = flags.GetString("checkpoint", "coach.json");
  config.coach.alpha = flags.GetDouble("alpha", 0.3);
  config.coach.backbone =
      BackboneByName(flags.GetString("backbone", "chatglm2"));
  config.coach.verify_expansions = flags.Has("verify");
  config.parse_limits = json::ParseLimits::Default();
  if (flags.Has("fault-plan")) {
    COACHLM_ASSIGN_OR_RETURN(config.fault_plan,
                             FaultPlan::Parse(flags.GetString("fault-plan")));
  }
  if (flags.Has("retry-max")) {
    config.retry.max_attempts =
        static_cast<int>(flags.GetInt("retry-max", 4));
  }
  COACHLM_RETURN_NOT_OK(config.Validate());

  const int processes = static_cast<int>(flags.GetInt("serve-processes", 1));
  if (processes > 1) return RunServeSupervised(flags, config, processes);

  // The daemon deliberately opens no child spans: the root "serve" span
  // alone covers the whole resident lifetime in the run report, and
  // workers are not the driver thread anyway.
  serve::ModelHost models(config.checkpoint, config.coach);
  COACHLM_RETURN_NOT_OK(models.Load());
  serve::InstallServeSignalHandlers();
  serve::RevisionServer server(config, &models);
  COACHLM_RETURN_NOT_OK(server.StartServing());
  std::printf("serving on 127.0.0.1:%d (checkpoint %s, model version %llu); "
              "SIGTERM drains, SIGHUP reloads\n",
              server.port(), config.checkpoint.c_str(),
              static_cast<unsigned long long>(models.version()));
  std::fflush(stdout);
  // The accept loop polls the signal flags; this blocks until a drain
  // (SIGTERM/SIGINT) has been requested AND every admitted request got its
  // response. Main() then flushes the run report as for any command.
  server.AwaitDrain();
  const serve::ServerStats& stats = server.stats();
  std::printf(
      "serve drained: %llu connections, %llu ok, %llu shed, %llu client "
      "errors, %llu server errors, %llu deadline, %llu reloads (%llu "
      "rejected)\n",
      static_cast<unsigned long long>(
          stats.connections_accepted.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.requests_ok.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.requests_shed.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.requests_client_error.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.requests_server_error.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.requests_deadline.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.reloads_ok.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stats.reloads_rejected.load(std::memory_order_relaxed)));
  return Status::OK();
}

/// Validates every flag that must be numeric / well-formed before any
/// command runs, so a typo is a usage error (exit 2), never a silently
/// substituted default. Returns the first violation.
Status ValidateFlags(const Flags& flags) {
  // Strictly-integer flags, with their lower bounds. An explicit
  // `--threads 0` is rejected even though the *absent* flag defaults to 0
  // (auto): passing zero workers is always a mistake.
  struct IntFlag {
    const char* name;
    int64_t min;
    int64_t max;
  };
  constexpr int64_t kMax = INT64_MAX;
  const IntFlag int_flags[] = {
      {"size", 0, kMax},
      {"seed", 0, kMax},
      {"sample", 0, kMax},
      {"shards", 1, 100000},
      {"study-seed", 0, kMax},
      {"threads", 1, 1024},
      {"retry-max", 1, kMax},
      {"checkpoint-interval", 1, kMax},
      {"crash-after-commits", 1, kMax},
      {"deadline-ms", 1, kMax},
      {"stall-timeout-ms", 1, kMax},
      {"max-record-bytes", 1, kMax},
      {"max-json-depth", 1, kMax},
      {"port", 1, 65535},
      {"serve-workers", 1, 1024},
      {"serve-processes", 1, 256},
      {"queue-depth", 1, 1000000},
      {"request-deadline-ms", 1, kMax},
      {"read-timeout-ms", 1, kMax},
      {"write-timeout-ms", 1, kMax},
  };
  for (const IntFlag& spec : int_flags) {
    if (!flags.Has(spec.name)) continue;
    COACHLM_ASSIGN_OR_RETURN(const int64_t value,
                             flags.GetIntStrict(spec.name, 0));
    if (value < spec.min || value > spec.max) {
      return Status::InvalidArgument(
          "--" + std::string(spec.name) + " must be " +
          (spec.max == kMax
               ? ">= " + std::to_string(spec.min)
               : "between " + std::to_string(spec.min) + " and " +
                     std::to_string(spec.max)) +
          " (got " + std::to_string(value) + ")");
    }
  }
  if (flags.Has("fault-plan")) {
    // Surface unknown sites / malformed specs as usage errors up front,
    // not mid-command.
    COACHLM_RETURN_NOT_OK(
        FaultPlan::Parse(flags.GetString("fault-plan")).status());
  }
  if (flags.Has("format")) {
    // Unknown corpus formats are usage errors, never silently "auto".
    COACHLM_RETURN_NOT_OK(
        ParseCorpusFormat(flags.GetString("format")).status());
  }
  if (flags.command() == "serve") {
    // The daemon is not a batch run: flags that steer batch I/O,
    // checkpoint/resume, or the whole-run deadline have no meaning for a
    // resident service and are rejected instead of silently ignored.
    static const char* const kBatchOnly[] = {
        "in", "out",
        "resume", "checkpoint-dir",
        "checkpoint-interval", "crash-after-commits",
        "corpus-manifest", "shards",
        "format", "deadline-ms",
        "stall-timeout-ms",
    };
    for (const char* banned : kBatchOnly) {
      if (flags.Has(banned)) {
        return Status::InvalidArgument(
            "serve: --" + std::string(banned) +
            " is a batch-only flag (use --request-deadline-ms for the "
            "per-request budget; see docs/SERVING.md)");
      }
    }
  }
  if (flags.Has("corpus-manifest")) {
    const std::string manifest = flags.GetString("corpus-manifest");
    const std::string suffix = ".manifest.json";
    if (manifest.size() <= suffix.size() ||
        manifest.compare(manifest.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
      return Status::InvalidArgument(
          "--corpus-manifest must name a .manifest.json file (got '" +
          manifest + "')");
    }
  }
  return Status::OK();
}

/// `coachlm metrics`: prints the metric catalog (the registry's single
/// source of truth, which tools/check_docs.sh diffs against the docs), or
/// with --validate schema-checks a run report — or a JSONL bench
/// trajectory, validating each line — against ValidateRunReport.
Status RunMetrics(const Flags& flags) {
  if (!flags.Has("validate")) {
    std::printf("%s", MetricsRegistry::CatalogDump().c_str());
    return Status::OK();
  }
  const std::string path = flags.GetString("validate");
  COACHLM_ASSIGN_OR_RETURN(const std::string text, json::ReadFile(path));
  Result<json::Value> whole = json::Parse(text);
  if (whole.ok()) {
    COACHLM_RETURN_NOT_OK(ValidateRunReport(*whole));
    std::printf("%s: valid run report\n", path.c_str());
    return Status::OK();
  }
  // Not a single document: treat as a bench trajectory (one compact report
  // per line, as CI appends to BENCH_pipeline.json).
  size_t line_number = 0;
  size_t validated = 0;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find('\n', start);
    const std::string line =
        text.substr(start, end == std::string::npos ? end : end - start);
    ++line_number;
    start = end == std::string::npos ? text.size() + 1 : end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Result<json::Value> parsed = json::Parse(line);
    if (!parsed.ok()) {
      return Status::ParseError(path + ":" + std::to_string(line_number) +
                                ": " + parsed.status().message());
    }
    const Status line_status = ValidateRunReport(*parsed);
    if (!line_status.ok()) {
      return Status::ParseError(path + ":" + std::to_string(line_number) +
                                ": " + line_status.message());
    }
    ++validated;
  }
  if (validated == 0) {
    return Status::ParseError(path + ": no JSON documents found");
  }
  std::printf("%s: valid trajectory (%zu reports)\n", path.c_str(), validated);
  return Status::OK();
}

/// Applies --max-record-bytes / --max-json-depth on top of the
/// environment-configured process-wide parse limits.
void ApplyParseLimitFlags(const Flags& flags) {
  if (!flags.Has("max-record-bytes") && !flags.Has("max-json-depth")) return;
  json::ParseLimits limits = json::ParseLimits::Default();
  if (flags.Has("max-record-bytes")) {
    limits.max_record_bytes =
        static_cast<size_t>(flags.GetInt("max-record-bytes", 0));
  }
  if (flags.Has("max-json-depth")) {
    limits.max_depth = static_cast<size_t>(flags.GetInt("max-json-depth", 0));
  }
  json::ParseLimits::SetProcessDefault(limits);
}

int Main(int argc, char** argv) {
  auto flags = Flags::Parse(
      argc, argv,
      {"size", "seed", "out", "in", "sample", "merged", "revisions", "alpha",
       "backbone", "checkpoint", "verify", "threads", "original", "revised",
       "human", "testset", "detailed", "before", "after", "fault-plan",
       "retry-max", "quarantine", "checkpoint-dir", "resume",
       "crash-after-commits", "checkpoint-interval", "study-seed",
       "deadline-ms", "stall-timeout-ms", "max-record-bytes",
       "max-json-depth", "metrics-out", "metrics-deterministic", "validate",
       "format", "shards", "corpus-manifest", "port",
       "serve-workers", "serve-processes", "queue-depth",
       "request-deadline-ms",
       "read-timeout-ms", "write-timeout-ms"});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n%s", flags.status().ToString().c_str(), kUsage);
    return 2;
  }
  const Status valid = ValidateFlags(*flags);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n%s", valid.ToString().c_str(), kUsage);
    return 2;
  }
  ApplyParseLimitFlags(*flags);
  const std::string& command = flags->command();
  // Observability: when a report path is configured (flag or environment),
  // arm metrics + tracing before dispatch and write the report after —
  // even for a failed run, so operators can see where it got to.
  const std::string metrics_out =
      flags->Has("metrics-out") ? flags->GetString("metrics-out")
                                : GetEnvOr("COACHLM_METRICS_OUT", "");
  const bool metrics_deterministic =
      flags->Has("metrics-deterministic") ||
      GetEnvOr("COACHLM_METRICS_DETERMINISTIC", "") == "1";
  int root_span = -1;
  if (!metrics_out.empty() && command != "metrics") {
    Observability::Default().Enable(metrics_deterministic);
    FlagExec(*flags).set_collect_stats(true);
    root_span = Observability::Default().trace().BeginSpan(command);
  }
  Status status;
  if (command == "generate") status = RunGenerate(*flags);
  else if (command == "study") status = RunStudy(*flags);
  else if (command == "train") status = RunTrain(*flags);
  else if (command == "revise") status = RunRevise(*flags);
  else if (command == "rate") status = RunRate(*flags);
  else if (command == "diff") status = RunDiff(*flags);
  else if (command == "inspect") status = RunInspect(*flags);
  else if (command == "evaluate") status = RunEvaluate(*flags);
  else if (command == "pipeline") status = RunPipeline(*flags);
  else if (command == "convert") status = RunConvert(*flags);
  else if (command == "metrics") status = RunMetrics(*flags);
  else if (command == "serve") status = RunServe(*flags);
  else {
    std::fprintf(stderr, "%s", kUsage);
    return command.empty() ? 0 : 2;
  }
  if (root_span >= 0) {
    Observability::Default().trace().EndSpan(root_span);
    RunReportOptions options;
    options.command = command;
    options.exec = &FlagExec(*flags);
    const Status report_status = WriteRunReport(metrics_out, options);
    if (!report_status.ok()) {
      std::fprintf(stderr, "error: run report: %s\n",
                   report_status.ToString().c_str());
      if (status.ok()) return 1;
    } else {
      std::printf("wrote run report to %s\n", metrics_out.c_str());
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace coachlm

int main(int argc, char** argv) { return coachlm::Main(argc, argv); }

// Resource governance: cooperative cancellation (deadline tokens, stall
// watchdog), retry-loop budget capping, commit backpressure, and the
// end-to-end contract — a deadline-budgeted revise pass quarantines the
// unreached remainder, leaves a valid checkpoint, and resumes to bytes
// identical to an unbudgeted run.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "coach/coach_lm.h"
#include "coach/trainer.h"
#include "common/cancel.h"
#include "common/checkpoint.h"
#include "common/clock.h"
#include "common/execution.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/runtime.h"
#include "expert/pipeline.h"
#include "lm/pair_text.h"
#include "synth/generator.h"

namespace coachlm {
namespace {

namespace fs = std::filesystem;

TEST(CancelTokenTest, DeadlineExpiresOnInjectedClock) {
  FakeClock clock(1000);
  CancelToken token(&clock, 5000);
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
  EXPECT_EQ(token.remaining_micros(), 4000);

  clock.SleepMicros(3999);
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.remaining_micros(), 1);

  clock.SleepMicros(1);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(token.remaining_micros(), 0);
}

TEST(CancelTokenTest, FirstCauseWinsAcrossRacingCancels) {
  FakeClock clock;
  CancelToken token(&clock, 100);
  token.Cancel(Status::Cancelled("user abort"));
  clock.SleepMicros(1000);  // deadline also expired, but the cause is set
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
  token.Cancel(Status::Internal("late second cause"));
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, BareTokenHasNoDeadline) {
  CancelToken token;
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.remaining_micros(), CancelToken::kNoDeadline);
}

TEST(StallWatchdogTest, TripsAfterQuietPeriodAndNamesStage) {
  FakeClock clock;
  CancelToken token;
  StallWatchdog watchdog(&clock, &token, "revise", /*stall_micros=*/10000);

  clock.SleepMicros(9000);
  EXPECT_FALSE(watchdog.Poll());
  watchdog.Tick();  // progress resets the stall window
  clock.SleepMicros(9000);
  EXPECT_FALSE(watchdog.Poll());
  EXPECT_FALSE(token.cancelled());

  clock.SleepMicros(2000);
  EXPECT_TRUE(watchdog.Poll());
  EXPECT_TRUE(watchdog.fired());
  ASSERT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(token.status().message().find("revise"), std::string::npos);

  // A second Poll reports the stall but does not rewrite the cause.
  const std::string cause = token.status().message();
  EXPECT_TRUE(watchdog.Poll());
  EXPECT_EQ(token.status().message(), cause);
}

TEST(RetryCancelTest, CancelledTokenShortCircuitsBeforeFirstAttempt) {
  FakeClock clock;
  CancelToken token;
  token.Cancel(Status::Cancelled("stop"));
  int calls = 0;
  const RetryOutcome outcome = RetryWithBackoff(
      RetryPolicy(), &clock, /*jitter_key=*/7,
      [&](int) {
        ++calls;
        return Status::OK();
      },
      &token);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
}

TEST(RetryCancelTest, BackoffNeverSleepsPastTheDeadline) {
  FakeClock clock;
  CancelToken token(&clock, 5000);
  RetryPolicy policy;
  policy.initial_backoff_us = 1000000;  // would overshoot the budget 200x
  int calls = 0;
  const RetryOutcome outcome = RetryWithBackoff(
      policy, &clock, /*jitter_key=*/7,
      [&](int) {
        ++calls;
        return Status::Unavailable("flaky");
      },
      &token);
  // One attempt, a backoff capped to the remaining budget, then the token
  // observed tripped: virtual time never passed the deadline.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(clock.NowMicros(), 5000);
}

TEST(ExecutionCancelTest, TrippedTokenSkipsRemainingItems) {
  const ExecutionContext& exec = ExecutionContext::Serial();
  CancelToken token;
  std::vector<int> ran(10, 0);
  const std::vector<Status> statuses = exec.ParallelMapStatus(
      ran.size(),
      [&](size_t i) {
        ran[i] = 1;
        if (i == 3) token.Cancel(Status::Cancelled("stop at 3"));
        return Status::OK();
      },
      /*grain=*/0, &token);
  for (size_t i = 0; i <= 3; ++i) {
    EXPECT_EQ(ran[i], 1) << i;
    EXPECT_TRUE(statuses[i].ok()) << i;
  }
  for (size_t i = 4; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i], 0) << i;
    EXPECT_EQ(statuses[i].code(), StatusCode::kCancelled) << i;
  }
}

TEST(RuntimeCancelTest, InactiveGovernedRuntimeStopsAdmittingWork) {
  PipelineRuntime runtime;
  CancelToken token;
  runtime.set_cancel_token(&token);
  EXPECT_FALSE(runtime.active());

  int calls = 0;
  EXPECT_TRUE(runtime
                  .Run(FaultSite::kRevise, 1,
                       [&] {
                         ++calls;
                         return Status::OK();
                       })
                  .ok());
  token.Cancel(Status::Cancelled("budget spent"));
  int attempts = -1;
  const Status refused = runtime.Run(
      FaultSite::kRevise, 2,
      [&] {
        ++calls;
        return Status::OK();
      },
      &attempts);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(attempts, 0);
  EXPECT_EQ(refused.code(), StatusCode::kCancelled);
  // Cancellation refusals are not quarantined by the runtime — the stage
  // quarantines its remainder once, in index order.
  EXPECT_TRUE(runtime.quarantine().empty());
}

TEST(CommitBackpressureTest, AsyncCommitsLandInOrderAndResume) {
  const std::string dir =
      (fs::temp_directory_path() / "coachlm_gov_async_commit").string();
  fs::remove_all(dir);
  const std::string fingerprint = ConfigFingerprint("gov-async");
  {
    StageCheckpointer checkpoint(dir, "stage", fingerprint, 4);
    checkpoint.Resume();
    checkpoint.set_max_pending_commits(2);
    std::vector<std::string> all;
    for (size_t chunk = 0; chunk < 8; ++chunk) {
      std::vector<std::string> lines;
      for (size_t k = 0; k < 4; ++k) {
        // Payload lines must be valid JSONL: Resume() re-validates them.
        lines.push_back("\"item-" + std::to_string(chunk * 4 + k) + "\"");
      }
      all.insert(all.end(), lines.begin(), lines.end());
      checkpoint.CommitAsync((chunk + 1) * 4, std::move(lines));
    }
    ASSERT_TRUE(checkpoint.Drain().ok());
    StageCheckpointer reader(dir, "stage", fingerprint, 4);
    EXPECT_EQ(reader.Resume(), all);
  }
  // Watermark 0 degrades CommitAsync to synchronous commits.
  fs::remove_all(dir);
  {
    StageCheckpointer checkpoint(dir, "stage", fingerprint, 4);
    checkpoint.Resume();
    checkpoint.set_max_pending_commits(0);
    checkpoint.CommitAsync(2, {"\"a\"", "\"b\""});
    ASSERT_TRUE(fs::exists(checkpoint.manifest_path()));
    ASSERT_TRUE(checkpoint.Drain().ok());
    StageCheckpointer reader(dir, "stage", fingerprint, 4);
    EXPECT_EQ(reader.Resume(), (std::vector<std::string>{"\"a\"", "\"b\""}));
  }
  fs::remove_all(dir);
}

std::string DatasetBytes(const InstructionDataset& dataset) {
  std::string bytes;
  for (const auto& pair : dataset) {
    bytes += std::to_string(pair.id);
    bytes += '\x1f';
    bytes += lm::SerializePair(pair);
    bytes += '\x1e';
  }
  return bytes;
}

/// Shared corpus + trained coach + fault-free baseline, built once.
class DeadlineGovernanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusConfig config;
    config.size = 1500;
    config.seed = 42;
    synth::SynthCorpusGenerator generator(config);
    corpus_ = new synth::SynthCorpus(generator.Generate());
    expert::RevisionStudyConfig study_config;
    study_config.sample_size = 400;
    const auto study = expert::RunRevisionStudy(
        corpus_->dataset, generator.engine(), study_config);
    coach::CoachConfig coach_config;
    model_ = new coach::CoachLm(
        coach::CoachTrainer(coach_config).Train(study.revisions));
    ExecutionContext exec(4);
    baseline_ = new InstructionDataset(model_->ReviseDataset(
        corpus_->dataset, {}, nullptr, exec, /*runtime=*/nullptr,
        /*checkpoint=*/nullptr));
  }
  static void TearDownTestSuite() {
    delete baseline_;
    delete model_;
    delete corpus_;
  }

  /// An active runtime whose injected transient faults carry virtual
  /// latency, so a FakeClock-driven run burns wall-clock budget
  /// deterministically with zero real waiting.
  static PipelineRuntime MakeLatentRuntime(FakeClock* clock) {
    FaultPlan plan;
    plan.transient_rate = 0.05;
    plan.seed = 9;
    plan.latency_us = 1000;
    return PipelineRuntime(FaultInjector(plan), RetryPolicy(), clock);
  }

  static synth::SynthCorpus* corpus_;
  static coach::CoachLm* model_;
  static InstructionDataset* baseline_;
};

synth::SynthCorpus* DeadlineGovernanceTest::corpus_ = nullptr;
coach::CoachLm* DeadlineGovernanceTest::model_ = nullptr;
InstructionDataset* DeadlineGovernanceTest::baseline_ = nullptr;

TEST_F(DeadlineGovernanceTest, BudgetedRunQuarantinesRemainderAndResumes) {
  const std::string dir =
      (fs::temp_directory_path() / "coachlm_gov_deadline_resume").string();
  fs::remove_all(dir);
  const std::string fingerprint = ConfigFingerprint("gov-deadline");
  const size_t n = corpus_->dataset.size();

  // Budgeted run: serial execution so virtual-time burn is deterministic;
  // the deadline trips mid-corpus, after some chunks have committed.
  size_t completed = 0;
  {
    FakeClock clock;
    PipelineRuntime runtime = MakeLatentRuntime(&clock);
    CancelToken token(&clock, 60000);
    runtime.set_cancel_token(&token);
    StageCheckpointer checkpoint(dir, "revise", fingerprint, 128);
    ExecutionContext exec(1);
    coach::RevisionPassStats stats;
    const InstructionDataset revised = model_->ReviseDataset(
        corpus_->dataset, {}, &stats, exec, &runtime, &checkpoint);

    // The pass terminated within the budget (cooperative: the clock may
    // sit exactly at the deadline, never beyond a backoff past it) and
    // never aborted: every pair is present, unreached ones unchanged.
    ASSERT_TRUE(token.cancelled());
    EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
    ASSERT_EQ(revised.size(), n);

    completed = n - stats.quarantined;
    ASSERT_GT(completed, 0u);
    ASSERT_LT(completed, n);
    for (size_t i = completed; i < n; ++i) {
      EXPECT_EQ(lm::SerializePair(revised[i]),
                lm::SerializePair(corpus_->dataset[i]));
    }
    // Exactly the remainder is quarantined, with the deadline as cause.
    const auto records = runtime.quarantine().records();
    ASSERT_EQ(records.size(), n - completed);
    for (const auto& record : records) {
      EXPECT_EQ(record.site, FaultSite::kRevise);
      EXPECT_EQ(record.code, StatusCode::kDeadlineExceeded);
    }
  }

  // The checkpoint left behind is a valid prefix journal: exactly the
  // completed items, in order.
  {
    StageCheckpointer reader(dir, "revise", fingerprint, 128);
    EXPECT_EQ(reader.Resume().size(), completed);
  }

  // Resume without a budget: only the remainder is recomputed and the
  // final dataset is byte-identical to the never-interrupted baseline.
  {
    StageCheckpointer checkpoint(dir, "revise", fingerprint, 128);
    ExecutionContext exec(4);
    coach::RevisionPassStats stats;
    const InstructionDataset resumed = model_->ReviseDataset(
        corpus_->dataset, {}, &stats, exec, /*runtime=*/nullptr, &checkpoint);
    EXPECT_EQ(stats.resumed, completed);
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_EQ(DatasetBytes(resumed), DatasetBytes(*baseline_));
  }
  fs::remove_all(dir);
}

TEST_F(DeadlineGovernanceTest, UncheckpointedBudgetedRunDegradesInPlace) {
  FakeClock clock;
  PipelineRuntime runtime = MakeLatentRuntime(&clock);
  CancelToken token(&clock, 60000);
  runtime.set_cancel_token(&token);
  ExecutionContext exec(1);
  coach::RevisionPassStats stats;
  const InstructionDataset revised =
      model_->ReviseDataset(corpus_->dataset, {}, &stats, exec, &runtime);

  ASSERT_TRUE(token.cancelled());
  ASSERT_EQ(revised.size(), corpus_->dataset.size());
  ASSERT_GT(stats.quarantined, 0u);
  ASSERT_LT(stats.quarantined, corpus_->dataset.size());
  // Cut-off items pass their originals through and land in quarantine with
  // the deadline cause; finished items match the fault-free baseline.
  EXPECT_EQ(runtime.quarantine().records().size(), stats.quarantined);
  for (const auto& record : runtime.quarantine().records()) {
    EXPECT_EQ(record.code, StatusCode::kDeadlineExceeded);
  }
  size_t cut_off = 0;
  for (size_t i = 0; i < revised.size(); ++i) {
    const std::string got = lm::SerializePair(revised[i]);
    if (got == lm::SerializePair((*baseline_)[i])) continue;
    EXPECT_EQ(got, lm::SerializePair(corpus_->dataset[i]));
    ++cut_off;
  }
  // <=, not ==: revision is the identity for some pairs, so a cut-off
  // item's original can coincide with its baseline bytes.
  EXPECT_LE(cut_off, stats.quarantined);
  EXPECT_GT(cut_off, 0u);
}

TEST_F(DeadlineGovernanceTest, BudgetedGenerateDropsRemainderAndResumes) {
  const std::string dir =
      (fs::temp_directory_path() / "coachlm_gov_generate_resume").string();
  fs::remove_all(dir);
  const std::string fingerprint = ConfigFingerprint("gov-generate");
  synth::CorpusConfig config;
  config.size = 1500;
  config.seed = 42;
  const synth::SynthCorpusGenerator generator(config);
  const size_t n = config.size;
  ExecutionContext exec(1);

  // Budgeted run, serial so the virtual-time burn is deterministic: the
  // deadline cuts generation mid-corpus, after some chunks have committed.
  size_t completed = 0;
  {
    FakeClock clock;
    PipelineRuntime runtime = MakeLatentRuntime(&clock);
    CancelToken token(&clock, 60000);
    runtime.set_cancel_token(&token);
    StageCheckpointer checkpoint(dir, "generate", fingerprint, 128);
    const synth::SynthCorpus cut =
        generator.Generate(exec, &runtime, &checkpoint);

    ASSERT_TRUE(token.cancelled());
    const auto records = runtime.quarantine().records();
    completed = n - records.size();
    ASSERT_GT(completed, 0u);
    ASSERT_LT(completed, n);
    // Exactly [completed, n) is dropped and quarantined, in id order, with
    // the deadline as cause; the kept prefix is the fault-free corpus's.
    ASSERT_EQ(cut.dataset.size(), completed);
    for (size_t k = 0; k < records.size(); ++k) {
      EXPECT_EQ(records[k].item_id, completed + k + 1);
      EXPECT_EQ(records[k].site, FaultSite::kCollect);
      EXPECT_EQ(records[k].code, StatusCode::kDeadlineExceeded);
    }
    for (size_t i = 0; i < completed; ++i) {
      EXPECT_EQ(cut.dataset[i], corpus_->dataset[i]) << i;
      EXPECT_EQ(cut.defects[i], corpus_->defects[i]) << i;
    }
  }

  // The journal covers exactly the completed prefix.
  {
    StageCheckpointer reader(dir, "generate", fingerprint, 128);
    EXPECT_EQ(reader.Resume().size(), completed);
  }

  // Resume without a budget: byte-identical to Generate(exec).
  {
    StageCheckpointer checkpoint(dir, "generate", fingerprint, 128);
    const synth::SynthCorpus resumed =
        generator.Generate(exec, /*runtime=*/nullptr, &checkpoint);
    EXPECT_EQ(DatasetBytes(resumed.dataset), DatasetBytes(corpus_->dataset));
    EXPECT_EQ(resumed.defects, corpus_->defects);
  }
  fs::remove_all(dir);
}

TEST_F(DeadlineGovernanceTest, UncheckpointedBudgetedGenerateKeepsAPrefix) {
  synth::CorpusConfig config;
  config.size = 1500;
  config.seed = 42;
  FakeClock clock;
  PipelineRuntime runtime = MakeLatentRuntime(&clock);
  CancelToken token(&clock, 60000);
  runtime.set_cancel_token(&token);
  ExecutionContext exec(1);
  const synth::SynthCorpus cut =
      synth::SynthCorpusGenerator(config).Generate(exec, &runtime);

  ASSERT_TRUE(token.cancelled());
  const size_t kept = cut.dataset.size();
  ASSERT_GT(kept, 0u);
  ASSERT_LT(kept, config.size);
  EXPECT_EQ(runtime.quarantine().records().size(), config.size - kept);
  for (const auto& record : runtime.quarantine().records()) {
    EXPECT_EQ(record.code, StatusCode::kDeadlineExceeded);
  }
  for (size_t i = 0; i < kept; ++i) {
    EXPECT_EQ(cut.dataset[i], corpus_->dataset[i]) << i;
    EXPECT_EQ(cut.defects[i], corpus_->defects[i]) << i;
  }
}

/// A FakeClock whose virtual sleeps are observed by a stall watchdog the
/// moment they happen, as a real-time watchdog thread would see a stage
/// frozen mid-sleep. A background poller alone races the stage: once the
/// sleep's virtual time is followed by the next Tick, the stall is no
/// longer visible, and a fast enough stage can finish unobserved.
class WatchedClock : public FakeClock {
 public:
  void SleepMicros(int64_t micros) override {
    FakeClock::SleepMicros(micros);
    if (watchdog_ != nullptr) watchdog_->Poll();
  }
  void set_watchdog(StallWatchdog* watchdog) { watchdog_ = watchdog; }

 private:
  StallWatchdog* watchdog_ = nullptr;
};

TEST_F(DeadlineGovernanceTest, WatchdogCancelsAFrozenStage) {
  // The stage "freezes": items stop Tick()ing because injected latency
  // burns virtual time while the watchdog's stall budget is tiny.
  WatchedClock clock;
  PipelineRuntime runtime = MakeLatentRuntime(&clock);
  CancelToken token;  // no deadline: only the watchdog can trip it
  StallWatchdog watchdog(&clock, &token, "revise", /*stall_micros=*/500);
  clock.set_watchdog(&watchdog);
  runtime.set_cancel_token(&token);
  runtime.set_watchdog(&watchdog);
  ExecutionContext exec(1);
  coach::RevisionPassStats stats;
  std::thread poller([&] {
    // Background poller against the fake clock, as a watchdog thread
    // would run; it stops once the stall has been detected by either side.
    while (!watchdog.fired()) {
      watchdog.Poll();
      std::this_thread::yield();
    }
  });
  const InstructionDataset revised =
      model_->ReviseDataset(corpus_->dataset, {}, &stats, exec, &runtime);
  poller.join();

  ASSERT_TRUE(watchdog.fired());
  ASSERT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(token.status().message().find("revise"), std::string::npos);
  ASSERT_EQ(revised.size(), corpus_->dataset.size());
  EXPECT_GT(stats.quarantined, 0u);
}

}  // namespace
}  // namespace coachlm

#ifndef COACHLM_COMMON_RUNTIME_H_
#define COACHLM_COMMON_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/fault.h"
#include "common/quarantine.h"
#include "common/retry.h"

namespace coachlm {

/// \brief The fault-tolerant execution envelope every corpus-scale stage
/// runs its per-record work through.
///
/// Composes the deterministic FaultInjector (what goes wrong), the
/// RetryPolicy + Clock (how failures are retried), and the QuarantineLog
/// (where records that cannot be saved end up). An inactive runtime — the
/// default — is a pass-through whose only cost is one predictable branch,
/// so stages thread it unconditionally.
///
/// Run() is safe to call concurrently from worker threads: the injector is
/// stateless per call, counters are atomic, and the quarantine log locks.
class PipelineRuntime {
 public:
  /// Inactive runtime: Run() invokes the operation once, unretried and
  /// uninstrumented.
  PipelineRuntime() : clock_(Clock::System()) {}

  /// Active runtime. \p clock defaults to the real clock; tests inject a
  /// FakeClock so backoff never sleeps.
  PipelineRuntime(FaultInjector injector, RetryPolicy policy,
                  Clock* clock = nullptr)
      : injector_(std::move(injector)),
        policy_(policy),
        clock_(clock != nullptr ? clock : Clock::System()),
        active_(true) {}

  /// Process-wide runtime, configured once from the environment:
  /// COACHLM_FAULT_PLAN (a FaultPlan::Parse spec) activates injection and
  /// COACHLM_RETRY_MAX overrides the attempt budget. Unset = inactive.
  /// Stage entry points default to this, so an entire pipeline run — CLI,
  /// tests, benches — can be put under a fault plan without code changes.
  static PipelineRuntime* Default();

  bool active() const { return active_; }

  /// Attaches a cancellation token (wall-clock deadline, stall watchdog,
  /// or external cancel). Not owned; must outlive the runtime's use. Set
  /// before the governed stages start — not synchronized with Run().
  void set_cancel_token(CancelToken* token) { cancel_ = token; }
  CancelToken* cancel_token() const { return cancel_; }

  /// Attaches a stall watchdog. Stages Tick() it per completed item so a
  /// frozen stage is distinguishable from a slow one; the watchdog's Poll
  /// (manual or background-thread) cancels the token above on stall.
  void set_watchdog(StallWatchdog* watchdog) { watchdog_ = watchdog; }
  StallWatchdog* watchdog() const { return watchdog_; }

  /// Runs \p op for record \p item_id at \p site under injection + retry.
  /// Permanent failures (retries exhausted, or a non-transient error) are
  /// recorded in the quarantine log with provenance and returned; the
  /// caller degrades gracefully instead of aborting the stage.
  /// \p attempts_out (optional) reports the attempts consumed.
  ///
  /// Templated on the callable so the per-record envelope never allocates
  /// a closure: Run() wraps every item of every corpus-scale stage, and
  /// the disabled path must stay within the <1% overhead budget that
  /// bench_fault_overhead guards.
  template <typename Op>
  [[nodiscard]] Status Run(FaultSite site, uint64_t item_id, Op&& op,
             int* attempts_out = nullptr) {
    if (!active_) {
      // A cancelled run stops admitting work even without fault injection;
      // unreached items surface the token's status. Quarantining them is
      // the caller's job (once, in index order over the whole remainder),
      // which keeps the quarantine log deterministic under any schedule.
      if (cancel_ != nullptr && cancel_->cancelled()) {
        if (attempts_out != nullptr) *attempts_out = 0;
        return cancel_->status();
      }
      if (attempts_out != nullptr) *attempts_out = 1;
      return op();
    }
    RetryOutcome outcome = RetryWithBackoff(
        policy_, clock_, JitterKey(site, item_id),
        [&](int attempt) {
          // Faults fire before the work, modeling the call to a flaky
          // dependency failing up front: the succeeding attempt then runs
          // the (deterministic) work exactly once, which is what makes a
          // transient-only plan byte-identical to the fault-free run.
          Status injected = injector_.Inject(site, item_id, attempt, clock_);
          if (!injected.ok()) return injected;
          return op();
        },
        cancel_);
    return FinishRun(site, item_id, std::move(outcome), attempts_out);
  }

  /// Routes a record straight to quarantine (for failures detected outside
  /// Run(), e.g. unparseable payloads that no retry can fix).
  void QuarantineRecordFailure(FaultSite site, uint64_t item_id,
                               const Status& status, int attempts = 1);

  const QuarantineLog& quarantine() const { return quarantine_; }
  const FaultInjector& injector() const { return injector_; }
  const RetryPolicy& policy() const { return policy_; }

  /// Records that needed more than one attempt but recovered.
  uint64_t recovered_records() const {
    return recovered_.load(std::memory_order_relaxed);
  }
  /// Total attempts across all Run() calls (active runtime only).
  uint64_t total_attempts() const {
    return attempts_.load(std::memory_order_relaxed);
  }
  size_t quarantined_records() const { return quarantine_.size(); }

 private:
  /// Per-(site, item) backoff-jitter key, decorrelated from both the work
  /// stream and the fault stream.
  static uint64_t JitterKey(FaultSite site, uint64_t item_id);

  /// Books the finished envelope: attempt counters, recovery accounting,
  /// and quarantine on permanent failure.
  [[nodiscard]] Status FinishRun(FaultSite site, uint64_t item_id, RetryOutcome outcome,
                   int* attempts_out);

  FaultInjector injector_;
  RetryPolicy policy_;
  Clock* clock_;
  CancelToken* cancel_ = nullptr;
  StallWatchdog* watchdog_ = nullptr;
  bool active_ = false;
  QuarantineLog quarantine_;
  std::atomic<uint64_t> recovered_{0};
  std::atomic<uint64_t> attempts_{0};
};

}  // namespace coachlm

#endif  // COACHLM_COMMON_RUNTIME_H_

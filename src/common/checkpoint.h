#ifndef COACHLM_COMMON_CHECKPOINT_H_
#define COACHLM_COMMON_CHECKPOINT_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/cancel.h"
#include "common/execution.h"
#include "common/result.h"

namespace coachlm {

/// \brief Writes \p content to \p path atomically: the bytes land in a
/// sibling temp file first and rename into place, so readers never observe
/// a half-written file even if the writer dies mid-write.
[[nodiscard]] Status AtomicWriteFile(const std::string& path, const std::string& content);

/// \brief Stable 64-bit FNV-1a fingerprint of a configuration description,
/// hex-encoded. Checkpoints carry it so a resume against a different
/// configuration is rejected instead of silently mixing outputs.
std::string ConfigFingerprint(const std::string& description);

/// \brief Stage name of one shard of a sharded pass, e.g.
/// "revise.shard-00002-of-00008". Each shard checkpoints under its own
/// journal and is an independent resume unit: killing a sharded run and
/// resuming recomputes only the unfinished shards' remainders.
std::string ShardStageName(const std::string& stage, size_t shard_index,
                           size_t shard_count);

/// \brief Crash-safe progress journal for one corpus-scale stage.
///
/// Layout under the checkpoint directory:
///   <stage>.ckpt.jsonl      partial output, one serialized item per line,
///                           appended chunk by chunk
///   <stage>.manifest.json   {stage, fingerprint, completed, payload_bytes},
///                           atomically renamed into place after each append
///
/// The manifest is the source of truth: payload bytes beyond
/// `payload_bytes` are a torn tail from a crash mid-append and are
/// discarded on resume. Because every stage is deterministic per item, a
/// resumed run reprocesses only items >= `completed` and the concatenated
/// output is byte-identical to an uninterrupted run.
class StageCheckpointer {
 public:
  /// \p dir empty disables checkpointing (every call becomes a no-op).
  /// \p fingerprint should come from ConfigFingerprint over everything the
  /// stage's output depends on. \p interval is the commit chunk size.
  StageCheckpointer(std::string dir, std::string stage,
                    std::string fingerprint, size_t interval = 2048);

  bool enabled() const { return !dir_.empty(); }
  size_t interval() const { return interval_; }

  /// Attempts to resume: with a manifest matching this stage and
  /// fingerprint, returns the lines of every completed item (in item
  /// order) and arms subsequent Commits to append after them. Missing,
  /// mismatched, or inconsistent checkpoints return an empty vector and
  /// the next Commit starts the payload fresh.
  std::vector<std::string> Resume();

  /// Appends \p new_lines to the payload, then atomically publishes a
  /// manifest recording \p completed_total items. Crash-ordering contract:
  /// payload bytes are flushed before the manifest names them.
  [[nodiscard]] Status Commit(size_t completed_total,
                const std::vector<std::string>& new_lines);

  /// Hands \p new_lines to the background committer thread (started
  /// lazily) and returns once the chunk is *enqueued* — which may block:
  /// admission is gated on a high watermark of \p max_pending_commits
  /// (see set_max_pending_commits), so a stalled disk applies backpressure
  /// to the compute loop instead of letting encoded chunks accumulate
  /// O(corpus) in memory. Chunks commit strictly in enqueue order,
  /// preserving the payload-before-manifest crash contract.
  ///
  /// Commit errors surface at the next Drain(). Do not interleave with
  /// synchronous Commit() calls without Drain() in between.
  void CommitAsync(size_t completed_total, std::vector<std::string> new_lines);

  /// Waits for every enqueued chunk to land and returns the last commit
  /// error (OK when all committed cleanly). Must be called before Finish()
  /// or destruction when CommitAsync was used; the destructor drains too,
  /// swallowing errors.
  [[nodiscard]] Status Drain();

  /// High watermark for CommitAsync admission (default 2): while this many
  /// chunks are pending, the producer blocks. 0 makes CommitAsync
  /// synchronous.
  void set_max_pending_commits(size_t n) { max_pending_commits_ = n; }

  /// Removes the checkpoint files after a successful run.
  [[nodiscard]] Status Finish();

  std::string manifest_path() const;
  std::string payload_path() const;

  /// Testing aid for crash/resume drills: the process exits (without
  /// cleanup) right after the Nth successful Commit, simulating a kill
  /// mid-stage at a deterministic point.
  void set_crash_after_commits(int n) { crash_after_commits_ = n; }

 public:
  ~StageCheckpointer();

 private:
  struct PendingCommit {
    size_t completed_total = 0;
    std::vector<std::string> lines;
  };

  /// Body of the background committer thread: pops chunks in order and
  /// applies Commit().
  void CommitterLoop();

  std::string dir_;
  std::string stage_;
  std::string fingerprint_;
  size_t interval_;
  uint64_t payload_bytes_ = 0;
  size_t completed_ = 0;
  bool resumed_ = false;
  int commits_ = 0;
  int crash_after_commits_ = 0;

  // Async commit queue (CommitAsync/Drain). queue_mu_ guards the deque and
  // flags; the committer thread is the only caller of Commit() while live.
  size_t max_pending_commits_ = 2;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingCommit> pending_ COACHLM_GUARDED_BY(queue_mu_);
  bool committer_stop_ COACHLM_GUARDED_BY(queue_mu_) = false;
  bool committer_busy_ COACHLM_GUARDED_BY(queue_mu_) = false;
  Status async_error_ COACHLM_GUARDED_BY(queue_mu_);
  std::thread committer_;
};

/// Governance knobs for RunItemLoop. The zero value is the ungoverned loop.
struct ItemLoopOptions {
  /// Wall-clock budget / external cancellation. Gates every item: once the
  /// token trips, no further item is admitted.
  const CancelToken* cancel = nullptr;
  /// Stall detector; Tick()ed once per completed item so a frozen stage is
  /// distinguishable from a slow one.
  StallWatchdog* watchdog = nullptr;
};

/// What the item loop did. Items `[0, completed)` hold valid results
/// (restored or computed); `completed < n` only when the cancel token cut
/// the run, and the caller then passes through or drops `[completed, n)`
/// and quarantines each of those items once, in index order.
struct ItemLoopResult {
  size_t restored = 0;
  size_t completed = 0;
  /// Last journal-write error. Journal failures degrade crash-safety,
  /// never the stage results, so the loop reports rather than fails.
  Status commit_status;
};

/// \brief The per-item loop of every corpus stage: runs `compute(i)` for
/// each i in [0, n) over \p exec, under cancellation, stall detection and
/// (with an enabled \p checkpoint) a crash-safe journal.
///
/// The loop keeps no per-item storage: the stage writes its outputs from
/// `compute(i) -> bool`, which returns false only when the cancel token
/// refused item i. With an enabled checkpointer the loop first restores
/// the journaled prefix through `decode(i, line) -> bool` (an undecodable
/// or oversized journal is discarded and the stage restarts from item 0),
/// then runs the remainder in interval-sized chunks and journals each
/// chunk's `encode(i) -> std::string` lines through the checkpointer's
/// bounded async commit queue. A null or disabled checkpointer skips
/// resume, encode and commit and runs [0, n) as one chunk.
///
/// Prefix rule: at the end of the in-flight chunk, `completed` is the
/// first index whose compute did not return true. A checkpointed loop
/// journals exactly [chunk start, completed) of that chunk and stops, so
/// the journal always covers [0, completed) and a later resume recomputes
/// only the remainder, landing byte-identical to an uninterrupted run.
template <typename Compute, typename Encode, typename Decode>
ItemLoopResult RunItemLoop(StageCheckpointer* checkpoint,
                           const ExecutionContext& exec, size_t n,
                           Compute&& compute, Encode&& encode,
                           Decode&& decode,
                           const ItemLoopOptions& options = {}) {
  ItemLoopResult result;
  const bool journaled = checkpoint != nullptr && checkpoint->enabled();
  size_t done = 0;
  if (journaled) {
    const std::vector<std::string> lines = checkpoint->Resume();
    if (lines.size() <= n) {
      while (done < lines.size() && decode(done, lines[done])) ++done;
    }
    if (done != lines.size()) {
      // A corrupt/mismatched journal means "start fresh"; if discarding it
      // fails too, the next commit rewrites the manifest anyway.
      (void)checkpoint->Finish();
      done = 0;
    }
  }
  result.restored = done;
  const size_t interval = journaled ? checkpoint->interval() : n;
  while (done < n) {
    const size_t chunk_end = done + std::min(n - done, interval);
    // Lowest index in the chunk that was refused; items above it are cut
    // off by the prefix rule, so their work is skipped.
    std::atomic<size_t> refused{chunk_end};
    exec.ParallelFor(chunk_end - done, [&](size_t k) {
      const size_t i = done + k;
      if (i > refused.load()) return;
      if ((options.cancel == nullptr || !options.cancel->cancelled()) &&
          compute(i)) {
        if (options.watchdog != nullptr) options.watchdog->Tick();
        return;
      }
      size_t seen = refused.load();
      while (i < seen && !refused.compare_exchange_weak(seen, i)) {
      }
    });
    const size_t completed = refused.load();
    if (journaled && completed > done) {
      std::vector<std::string> chunk;
      chunk.reserve(completed - done);
      for (size_t i = done; i < completed; ++i) chunk.push_back(encode(i));
      checkpoint->CommitAsync(completed, std::move(chunk));
    }
    done = completed;
    if (completed < chunk_end) break;
  }
  if (journaled) result.commit_status = checkpoint->Drain();
  result.completed = done;
  return result;
}

}  // namespace coachlm

#endif  // COACHLM_COMMON_CHECKPOINT_H_

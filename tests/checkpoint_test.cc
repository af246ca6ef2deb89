#include "common/checkpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/execution.h"
#include "json/jsonl.h"

namespace coachlm {
namespace {

namespace fs = std::filesystem;

// Fresh, empty scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(AtomicWriteFileTest, WritesAndOverwritesWithoutLeavingTemp) {
  ScratchDir dir("coachlm_atomic_write_test");
  const std::string path = dir.path() + "/out.json";
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  const auto text = json::ReadFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "second");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicWriteFileTest, FailsOnUnwritableDirectory) {
  EXPECT_FALSE(
      AtomicWriteFile("/nonexistent/dir/file.json", "x").ok());
}

TEST(ConfigFingerprintTest, StableAndSensitiveToInput) {
  const std::string a = ConfigFingerprint("seed=42,size=100");
  EXPECT_EQ(a, ConfigFingerprint("seed=42,size=100"));
  EXPECT_NE(a, ConfigFingerprint("seed=43,size=100"));
  EXPECT_EQ(a.size(), 16u);  // hex-encoded 64-bit hash
}

TEST(StageCheckpointerTest, EmptyDirDisablesEverything) {
  StageCheckpointer checkpoint("", "stage", "fp");
  EXPECT_FALSE(checkpoint.enabled());
  EXPECT_TRUE(checkpoint.Resume().empty());
  EXPECT_TRUE(checkpoint.Commit(2, {"a", "b"}).ok());
  EXPECT_TRUE(checkpoint.Finish().ok());
}

TEST(StageCheckpointerTest, CommitThenResumeRestoresLinesInOrder) {
  ScratchDir dir("coachlm_ckpt_roundtrip_test");
  {
    StageCheckpointer writer(dir.path(), "revise", "fp1", 4);
    EXPECT_TRUE(writer.Resume().empty());  // nothing to resume yet
    ASSERT_TRUE(writer.Commit(2, {"{\"i\":0}", "{\"i\":1}"}).ok());
    ASSERT_TRUE(writer.Commit(3, {"{\"i\":2}"}).ok());
  }
  StageCheckpointer reader(dir.path(), "revise", "fp1", 4);
  const std::vector<std::string> lines = reader.Resume();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "{\"i\":0}");
  EXPECT_EQ(lines[2], "{\"i\":2}");
}

TEST(StageCheckpointerTest, ResumeRejectsMismatchedFingerprint) {
  ScratchDir dir("coachlm_ckpt_fp_test");
  {
    StageCheckpointer writer(dir.path(), "revise", "fp1");
    ASSERT_TRUE(writer.Commit(1, {"{\"i\":0}"}).ok());
  }
  StageCheckpointer other_config(dir.path(), "revise", "fp2");
  EXPECT_TRUE(other_config.Resume().empty());
  StageCheckpointer other_stage(dir.path(), "generate", "fp1");
  EXPECT_TRUE(other_stage.Resume().empty());
}

TEST(StageCheckpointerTest, TornTailBeyondManifestIsDiscarded) {
  ScratchDir dir("coachlm_ckpt_torn_test");
  StageCheckpointer writer(dir.path(), "revise", "fp1");
  ASSERT_TRUE(writer.Commit(2, {"{\"i\":0}", "{\"i\":1}"}).ok());
  {
    // Simulate a crash mid-append: payload bytes past the manifest.
    std::ofstream out(writer.payload_path(),
                      std::ios::binary | std::ios::app);
    out << "{\"i\":2}\n{\"i\"";
  }
  StageCheckpointer reader(dir.path(), "revise", "fp1");
  const std::vector<std::string> lines = reader.Resume();
  ASSERT_EQ(lines.size(), 2u);  // manifest is authoritative
  EXPECT_EQ(lines[1], "{\"i\":1}");
}

TEST(StageCheckpointerTest, ResumeRejectsPayloadShorterThanManifest) {
  ScratchDir dir("coachlm_ckpt_short_test");
  StageCheckpointer writer(dir.path(), "revise", "fp1");
  ASSERT_TRUE(writer.Commit(2, {"{\"i\":0}", "{\"i\":1}"}).ok());
  {
    std::ofstream out(writer.payload_path(),
                      std::ios::binary | std::ios::trunc);
    out << "{\"i\":0}\n";  // fewer bytes than the manifest promises
  }
  StageCheckpointer reader(dir.path(), "revise", "fp1");
  EXPECT_TRUE(reader.Resume().empty());
}

TEST(StageCheckpointerTest, ResumedCommitAppendsAfterRestoredPayload) {
  ScratchDir dir("coachlm_ckpt_append_test");
  {
    StageCheckpointer writer(dir.path(), "revise", "fp1");
    ASSERT_TRUE(writer.Commit(1, {"{\"i\":0}"}).ok());
  }
  {
    StageCheckpointer resumed(dir.path(), "revise", "fp1");
    ASSERT_EQ(resumed.Resume().size(), 1u);
    ASSERT_TRUE(resumed.Commit(2, {"{\"i\":1}"}).ok());
  }
  StageCheckpointer reader(dir.path(), "revise", "fp1");
  const std::vector<std::string> lines = reader.Resume();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"i\":0}");
  EXPECT_EQ(lines[1], "{\"i\":1}");
}

TEST(StageCheckpointerTest, FreshCommitTruncatesStalePayload) {
  ScratchDir dir("coachlm_ckpt_stale_test");
  {
    StageCheckpointer writer(dir.path(), "revise", "fp1");
    ASSERT_TRUE(writer.Commit(2, {"{\"i\":0}", "{\"i\":1}"}).ok());
  }
  {
    // A run that does NOT resume (e.g. fingerprint changed) must not
    // leave old payload bytes in front of its own.
    StageCheckpointer fresh(dir.path(), "revise", "fp2");
    EXPECT_TRUE(fresh.Resume().empty());
    ASSERT_TRUE(fresh.Commit(1, {"{\"j\":9}"}).ok());
  }
  StageCheckpointer reader(dir.path(), "revise", "fp2");
  const std::vector<std::string> lines = reader.Resume();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"j\":9}");
}

TEST(StageCheckpointerTest, FinishRemovesBothFiles) {
  ScratchDir dir("coachlm_ckpt_finish_test");
  StageCheckpointer checkpoint(dir.path(), "revise", "fp1");
  ASSERT_TRUE(checkpoint.Commit(1, {"{\"i\":0}"}).ok());
  ASSERT_TRUE(fs::exists(checkpoint.manifest_path()));
  ASSERT_TRUE(fs::exists(checkpoint.payload_path()));
  ASSERT_TRUE(checkpoint.Finish().ok());
  EXPECT_FALSE(fs::exists(checkpoint.manifest_path()));
  EXPECT_FALSE(fs::exists(checkpoint.payload_path()));
}

int ParseRecordLine(const std::string& line) {
  return std::stoi(line);
}

TEST(RunItemLoopTest, FreshRunComputesEverythingAndJournals) {
  ScratchDir dir("coachlm_loop_fresh_test");
  StageCheckpointer checkpoint(dir.path(), "loop", "fp1", /*interval=*/3);
  ExecutionContext exec(4);
  std::vector<int> records(10, -1);
  std::atomic<size_t> computed{0};
  const size_t restored =
      RunItemLoop(
          &checkpoint, exec, records.size(),
          [&](size_t i) {
            computed.fetch_add(1);
            records[i] = static_cast<int>(i * i);
            return true;
          },
          [&](size_t i) { return std::to_string(records[i]); },
          [&](size_t i, const std::string& line) {
            records[i] = ParseRecordLine(line);
            return true;
          })
          .restored;
  EXPECT_EQ(restored, 0u);
  EXPECT_EQ(computed.load(), 10u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], static_cast<int>(i * i));
  }
  // The journal covers every item, in interval-sized commits.
  StageCheckpointer reader(dir.path(), "loop", "fp1", 3);
  EXPECT_EQ(reader.Resume().size(), 10u);
}

TEST(RunItemLoopTest, ResumeSkipsRestoredPrefix) {
  ScratchDir dir("coachlm_loop_resume_test");
  {
    // Journal the first 6 items, as a killed run would have.
    StageCheckpointer partial(dir.path(), "loop", "fp1", 3);
    ASSERT_TRUE(partial.Commit(3, {"0", "1", "4"}).ok());
    ASSERT_TRUE(partial.Commit(6, {"9", "16", "25"}).ok());
  }
  StageCheckpointer checkpoint(dir.path(), "loop", "fp1", 3);
  ExecutionContext exec(2);
  std::vector<int> records(10, -1);
  std::atomic<size_t> computed{0};
  const size_t restored =
      RunItemLoop(
          &checkpoint, exec, records.size(),
          [&](size_t i) {
            computed.fetch_add(1);
            records[i] = static_cast<int>(i * i);
            return true;
          },
          [&](size_t i) { return std::to_string(records[i]); },
          [&](size_t i, const std::string& line) {
            records[i] = ParseRecordLine(line);
            return true;
          })
          .restored;
  EXPECT_EQ(restored, 6u);
  EXPECT_EQ(computed.load(), 4u);  // only items 6..9 recomputed
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], static_cast<int>(i * i)) << "index " << i;
  }
}

TEST(RunItemLoopTest, UndecodableJournalRestartsFromScratch) {
  ScratchDir dir("coachlm_loop_baddecode_test");
  {
    StageCheckpointer partial(dir.path(), "loop", "fp1", 4);
    ASSERT_TRUE(partial.Commit(2, {"0", "\"not-a-number\""}).ok());
  }
  StageCheckpointer checkpoint(dir.path(), "loop", "fp1", 4);
  ExecutionContext exec(1);
  std::vector<int> records(5, -1);
  std::atomic<size_t> computed{0};
  const size_t restored =
      RunItemLoop(
          &checkpoint, exec, records.size(),
          [&](size_t i) {
            computed.fetch_add(1);
            records[i] = static_cast<int>(i);
            return true;
          },
          [&](size_t i) { return std::to_string(records[i]); },
          [&](size_t i, const std::string& line) {
            if (line.empty() || !isdigit(static_cast<unsigned char>(line[0]))) {
              return false;
            }
            records[i] = ParseRecordLine(line);
            return true;
          })
          .restored;
  EXPECT_EQ(restored, 0u);
  EXPECT_EQ(computed.load(), 5u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], static_cast<int>(i));
  }
}

TEST(RunItemLoopTest, OversizedJournalRestartsFromScratch) {
  ScratchDir dir("coachlm_loop_oversize_test");
  {
    StageCheckpointer partial(dir.path(), "loop", "fp1", 8);
    ASSERT_TRUE(partial.Commit(6, {"0", "1", "2", "3", "4", "5"}).ok());
  }
  StageCheckpointer checkpoint(dir.path(), "loop", "fp1", 8);
  ExecutionContext exec(1);
  std::vector<int> records(4, -1);  // run over FEWER items than journaled
  std::atomic<size_t> computed{0};
  const size_t restored =
      RunItemLoop(
          &checkpoint, exec, records.size(),
          [&](size_t i) {
            computed.fetch_add(1);
            records[i] = static_cast<int>(i);
            return true;
          },
          [&](size_t i) { return std::to_string(records[i]); },
          [&](size_t i, const std::string& line) {
            records[i] = ParseRecordLine(line);
            return true;
          })
          .restored;
  EXPECT_EQ(restored, 0u);
  EXPECT_EQ(computed.load(), 4u);
}

TEST(RunItemLoopTest, NullCheckpointerComputesEverythingAndWritesNoFile) {
  ScratchDir dir("coachlm_loop_null_test");
  ExecutionContext exec(2);
  std::vector<int> computed(10, 0);
  std::atomic<size_t> codec_calls{0};
  const ItemLoopResult result = RunItemLoop(
      /*checkpoint=*/nullptr, exec, computed.size(),
      [&](size_t i) {
        computed[i] = 1;
        return true;
      },
      [&](size_t) {
        codec_calls.fetch_add(1);
        return std::string();
      },
      [&](size_t, const std::string&) {
        codec_calls.fetch_add(1);
        return true;
      });
  EXPECT_EQ(result.restored, 0u);
  EXPECT_EQ(result.completed, computed.size());
  EXPECT_TRUE(result.commit_status.ok());
  EXPECT_EQ(codec_calls.load(), 0u);
  for (size_t i = 0; i < computed.size(); ++i) EXPECT_EQ(computed[i], 1) << i;
  EXPECT_TRUE(fs::is_empty(dir.path()));
}

TEST(RunItemLoopTest, SerialCancelJournalsThePartialChunk) {
  ScratchDir dir("coachlm_loop_serial_cancel_test");
  constexpr size_t kCancelAt = 19;  // inside the third chunk, [16, 24)
  StageCheckpointer checkpoint(dir.path(), "loop", "fp1", /*interval=*/8);
  ExecutionContext exec(1);
  CancelToken token;
  ItemLoopOptions options;
  options.cancel = &token;
  std::vector<int> records(40, -1);
  const ItemLoopResult result = RunItemLoop(
      &checkpoint, exec, records.size(),
      [&](size_t i) {
        records[i] = static_cast<int>(i);
        if (i == kCancelAt) token.Cancel(Status::Cancelled("stop"));
        return true;
      },
      [&](size_t i) { return std::to_string(records[i]); },
      [&](size_t i, const std::string& line) {
        records[i] = ParseRecordLine(line);
        return true;
      },
      options);
  EXPECT_EQ(result.completed, kCancelAt + 1);
  StageCheckpointer reader(dir.path(), "loop", "fp1", 8);
  EXPECT_EQ(reader.Resume().size(), kCancelAt + 1);
  for (size_t i = kCancelAt + 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i], -1) << "index " << i << " ran after the cancel";
  }
}

TEST(RunItemLoopTest, ParallelCancelJournalsExactlyTheCompletedPrefix) {
  ScratchDir dir("coachlm_loop_parallel_cancel_test");
  StageCheckpointer checkpoint(dir.path(), "loop", "fp1", /*interval=*/8);
  ExecutionContext exec(4);
  CancelToken token;
  ItemLoopOptions options;
  options.cancel = &token;
  std::vector<int> records(200, -1);
  const ItemLoopResult result = RunItemLoop(
      &checkpoint, exec, records.size(),
      [&](size_t i) {
        records[i] = static_cast<int>(i);
        if (i == 57) token.Cancel(Status::Cancelled("stop"));
        return true;
      },
      [&](size_t i) { return std::to_string(records[i]); },
      [&](size_t i, const std::string& line) {
        records[i] = ParseRecordLine(line);
        return true;
      },
      options);
  ASSERT_LT(result.completed, records.size());
  std::vector<std::string> expected;
  for (size_t i = 0; i < result.completed; ++i) {
    EXPECT_EQ(records[i], static_cast<int>(i)) << "index " << i;
    expected.push_back(std::to_string(i));
  }
  StageCheckpointer reader(dir.path(), "loop", "fp1", 8);
  EXPECT_EQ(reader.Resume(), expected);
}

}  // namespace
}  // namespace coachlm

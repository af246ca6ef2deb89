#include "json/jsonl.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

namespace coachlm {
namespace json {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(JsonlTest, ParseLinesBasic) {
  auto r = ParseLines("{\"a\":1}\n{\"a\":2}\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[1].At("a").AsInt(), 2);
}

TEST(JsonlTest, SkipsBlankAndCrLfLines) {
  auto r = ParseLines("{\"a\":1}\r\n\n  \n{\"a\":2}\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(JsonlTest, StrictModeFailsOnBadLine) {
  auto r = ParseLines("{\"a\":1}\nnot json\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(JsonlTest, TolerantModeCountsInvalid) {
  size_t invalid = 0;
  auto r = ParseLines("{\"a\":1}\nbroken\n{\"a\":3}\n", true, &invalid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(invalid, 1u);
}

TEST(JsonlTest, StrictModeReportsTornFinalLineWithOffset) {
  // A final line without its newline that fails to parse is a crash
  // artifact: strict mode must say so, with the byte offset of the tear.
  const std::string text = "{\"a\":1}\n{\"a\":2}\n{\"a\":";
  auto r = ParseLines(text);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("truncated final line"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("byte offset 16"), std::string::npos);
}

TEST(JsonlTest, RecoverableModeReturnsIntactPrefix) {
  const std::string text = "{\"a\":1}\n{\"a\":2}\n{\"a\":";
  ParseLinesInfo info;
  auto r = ParseLinesRecoverable(text, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_TRUE(info.truncated());
  EXPECT_EQ(info.truncated_offset, 16u);
}

TEST(JsonlTest, RecoverableModeCleanDocumentNotTruncated) {
  ParseLinesInfo info;
  auto r = ParseLinesRecoverable("{\"a\":1}\n{\"a\":2}\n", &info);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_FALSE(info.truncated());
}

TEST(JsonlTest, RecoverableModeAcceptsUnterminatedValidFinalLine) {
  // A valid final line merely missing its newline parses fine and is not
  // a tear.
  ParseLinesInfo info;
  auto r = ParseLinesRecoverable("{\"a\":1}\n{\"a\":2}", &info);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_FALSE(info.truncated());
}

TEST(JsonlTest, RecoverableModeStillFailsOnTerminatedBadLine) {
  // A malformed line *with* its newline is corruption, not a torn tail.
  ParseLinesInfo info;
  EXPECT_FALSE(ParseLinesRecoverable("broken\n{\"a\":1}\n", &info).ok());
  EXPECT_FALSE(ParseLinesRecoverable("{\"a\":1}\nbroken\n", &info).ok());
}

TEST(JsonlTest, LoadJsonlRecoverableRoundTrip) {
  const std::string path = TempPath("coachlm_jsonl_torn.jsonl");
  ASSERT_TRUE(WriteFile(path, "{\"id\":1}\n{\"id\":2}\n{\"id\"").ok());
  ParseLinesInfo info;
  auto loaded = LoadJsonlRecoverable(path, &info);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_TRUE(info.truncated());
  EXPECT_EQ(info.truncated_offset, 18u);
  std::remove(path.c_str());
}

TEST(JsonlTest, FileRoundTrip) {
  const std::string path = TempPath("coachlm_jsonl_test.jsonl");
  std::vector<Value> values;
  Object o1;
  o1["id"] = Value(1);
  values.push_back(Value(std::move(o1)));
  Object o2;
  o2["id"] = Value(2);
  o2["text"] = Value("multi\nline");
  values.push_back(Value(std::move(o2)));
  ASSERT_TRUE(SaveJsonl(path, values).ok());

  auto loaded = LoadJsonl(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[1].At("text").AsString(), "multi\nline");
  std::remove(path.c_str());
}

TEST(JsonlTest, ReadFileOfEmptyFileIsEmpty) {
  const std::string path = TempPath("coachlm_jsonl_empty.jsonl");
  ASSERT_TRUE(WriteFile(path, "").ok());
  auto text = ReadFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(text->empty());
  std::remove(path.c_str());
}

TEST(JsonlTest, ReadFileDrainsAFifo) {
  // A FIFO has no size to take, so ReadFile drains it through the stream.
  std::string dir = TempPath("coachlm_jsonl_fifo_XXXXXX");
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/pipe.jsonl";
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::string payload;
  for (int i = 0; i < 5000; ++i) {
    payload += "{\"id\":" + std::to_string(i) + "}\n";
  }
  std::thread writer([&] { EXPECT_TRUE(WriteFile(path, payload).ok()); });
  auto text = ReadFile(path);
  writer.join();
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, payload);
  std::filesystem::remove_all(dir);
}

TEST(JsonlTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadFile("/nonexistent/dir/file.json").ok());
  EXPECT_FALSE(LoadJsonl("/nonexistent/dir/file.jsonl").ok());
}

TEST(JsonlTest, WriteToBadPathFails) {
  EXPECT_FALSE(WriteFile("/nonexistent/dir/file.json", "x").ok());
}

}  // namespace
}  // namespace json
}  // namespace coachlm

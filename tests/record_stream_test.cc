#include "data/record_stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/corpus_io.h"
#include "json/jsonl.h"

namespace coachlm {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

InstructionDataset MakeDataset(size_t n) {
  InstructionDataset ds;
  for (size_t i = 0; i < n; ++i) {
    InstructionPair pair;
    pair.id = 1000 + i;
    pair.instruction = "Describe concept " + std::to_string(i) + ".";
    pair.input = i % 3 == 0 ? "" : "payload " + std::to_string(i);
    pair.output = "Concept " + std::to_string(i) + " works as follows.";
    pair.category = static_cast<Category>(i % kNumCategories);
    ds.Add(std::move(pair));
  }
  return ds;
}

std::string Slurp(const std::string& path) {
  auto text = json::ReadFile(path);
  EXPECT_TRUE(text.ok());
  return text.ok() ? *text : std::string();
}

TEST(CorpusFormatTest, NamesRoundTrip) {
  for (const CorpusFormat format :
       {CorpusFormat::kAuto, CorpusFormat::kJson, CorpusFormat::kJsonl,
        CorpusFormat::kBinary}) {
    auto parsed = ParseCorpusFormat(CorpusFormatName(format));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, format);
  }
}

TEST(CorpusFormatTest, UnknownFormatIsInvalidArgument) {
  const auto parsed = ParseCorpusFormat("banana");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecordStreamTest, DatasetAdaptersRoundTrip) {
  const InstructionDataset ds = MakeDataset(9);
  DatasetRecordReader reader(&ds);
  EXPECT_EQ(reader.SizeHint(), 9u);
  InstructionDataset sink;
  DatasetRecordWriter writer(&sink);
  InstructionPair pair;
  while (true) {
    auto more = reader.Next(&pair);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ASSERT_TRUE(writer.Write(pair).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  ASSERT_EQ(sink.size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) EXPECT_EQ(sink[i], ds[i]);
}

TEST(RecordStreamTest, JsonArrayWriterMatchesLegacySaveJsonBytes) {
  const InstructionDataset ds = MakeDataset(5);
  const std::string legacy = TempPath("coachlm_rs_legacy.json");
  const std::string streamed = TempPath("coachlm_rs_streamed.json");
  ASSERT_TRUE(ds.SaveJson(legacy).ok());
  JsonArrayRecordWriter writer(streamed);
  ASSERT_TRUE(WriteAllRecords(&writer, ds).ok());
  ASSERT_TRUE(writer.Close().ok());
  // Byte identity is the refactor's contract: every golden corpus written
  // before the stream interface stays valid after it.
  EXPECT_EQ(Slurp(legacy), Slurp(streamed));
  std::remove(legacy.c_str());
  std::remove(streamed.c_str());
}

TEST(RecordStreamTest, JsonlRoundTrip) {
  const InstructionDataset ds = MakeDataset(7);
  const std::string path = TempPath("coachlm_rs_roundtrip.jsonl");
  JsonlRecordWriter writer(path);
  ASSERT_TRUE(WriteAllRecords(&writer, ds).ok());
  ASSERT_TRUE(writer.Close().ok());
  auto reader = JsonlRecordReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto loaded = ReadAllRecords(reader->get());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) EXPECT_EQ((*loaded)[i], ds[i]);
  std::remove(path.c_str());
}

TEST(RecordStreamTest, WriteAfterCloseIsFailedPrecondition) {
  const std::string path = TempPath("coachlm_rs_closed.jsonl");
  JsonlRecordWriter writer(path);
  ASSERT_TRUE(writer.Close().ok());
  ASSERT_TRUE(writer.Close().ok());  // Idempotent.
  const Status status = writer.Write(InstructionPair());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(RecordStreamTest, JsonlTornTailStrictVsRecoverable) {
  const InstructionDataset ds = MakeDataset(3);
  const std::string path = TempPath("coachlm_rs_torn.jsonl");
  {
    JsonlRecordWriter writer(path);
    ASSERT_TRUE(WriteAllRecords(&writer, ds).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Tear the final record: drop the trailing newline plus a few bytes.
  std::string text = Slurp(path);
  text.resize(text.size() - 10);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

  EXPECT_FALSE(JsonlRecordReader::Open(path).ok());
  RecordReadOptions recover;
  recover.recover_torn_tail = true;
  auto reader = JsonlRecordReader::Open(path, recover);
  ASSERT_TRUE(reader.ok());
  auto loaded = ReadAllRecords(reader->get());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  std::remove(path.c_str());
}

TEST(RecordStreamTest, JsonlCorpusOverInputLimitIsResourceExhausted) {
  const InstructionDataset ds = MakeDataset(5);
  const std::string path = TempPath("coachlm_rs_limit.jsonl");
  {
    JsonlRecordWriter writer(path);
    ASSERT_TRUE(WriteAllRecords(&writer, ds).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  const size_t bytes = Slurp(path).size();
  const json::ParseLimits saved = json::ParseLimits::Default();

  json::ParseLimits tight = saved;
  tight.max_input_bytes = bytes - 1;
  json::ParseLimits::SetProcessDefault(tight);
  const auto over = JsonlRecordReader::Open(path);
  tight.max_input_bytes = bytes;
  json::ParseLimits::SetProcessDefault(tight);
  auto under = JsonlRecordReader::Open(path);
  json::ParseLimits::SetProcessDefault(saved);

  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(under.ok());
  auto loaded = ReadAllRecords(under->get());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) EXPECT_EQ((*loaded)[i], ds[i]);
  std::remove(path.c_str());
}

TEST(RecordStreamTest, JsonArrayCorpusOverInputLimitIsResourceExhausted) {
  const InstructionDataset ds = MakeDataset(5);
  const std::string path = TempPath("coachlm_rs_limit.json");
  {
    JsonArrayRecordWriter writer(path);
    ASSERT_TRUE(WriteAllRecords(&writer, ds).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  const json::ParseLimits saved = json::ParseLimits::Default();
  json::ParseLimits tight = saved;
  tight.max_input_bytes = Slurp(path).size() - 1;
  json::ParseLimits::SetProcessDefault(tight);
  const auto over = JsonArrayRecordReader::Open(path);
  json::ParseLimits::SetProcessDefault(saved);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(JsonArrayRecordReader::Open(path).ok());
  std::remove(path.c_str());
}

TEST(CorpusIoTest, SniffsJsonArrayAndJsonl) {
  const InstructionDataset ds = MakeDataset(4);
  const std::string json_path = TempPath("coachlm_sniff.json");
  const std::string jsonl_path = TempPath("coachlm_sniff.jsonl");
  ASSERT_TRUE(SaveCorpus(json_path, ds).ok());
  CorpusWriteOptions jsonl_options;
  jsonl_options.format = CorpusFormat::kJsonl;
  ASSERT_TRUE(SaveCorpus(jsonl_path, ds, jsonl_options).ok());

  auto sniff_json = SniffCorpus(json_path);
  ASSERT_TRUE(sniff_json.ok());
  EXPECT_EQ(sniff_json->format, CorpusFormat::kJson);
  EXPECT_FALSE(sniff_json->sharded);

  auto sniff_jsonl = SniffCorpus(jsonl_path);
  ASSERT_TRUE(sniff_jsonl.ok());
  EXPECT_EQ(sniff_jsonl->format, CorpusFormat::kJsonl);

  for (const std::string& path : {json_path, jsonl_path}) {
    auto loaded = LoadCorpus(path);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->size(), ds.size());
    for (size_t i = 0; i < ds.size(); ++i) EXPECT_EQ((*loaded)[i], ds[i]);
    std::remove(path.c_str());
  }
}

TEST(CorpusIoTest, WriterFormatResolvesFromExtension) {
  EXPECT_EQ(ResolveWriterFormat("x.jsonl", CorpusFormat::kAuto, false),
            CorpusFormat::kJsonl);
  EXPECT_EQ(ResolveWriterFormat("x.clmb", CorpusFormat::kAuto, false),
            CorpusFormat::kBinary);
  EXPECT_EQ(ResolveWriterFormat("x.bin", CorpusFormat::kAuto, false),
            CorpusFormat::kBinary);
  EXPECT_EQ(ResolveWriterFormat("x.json", CorpusFormat::kAuto, false),
            CorpusFormat::kJson);
  EXPECT_EQ(ResolveWriterFormat("x", CorpusFormat::kAuto, true),
            CorpusFormat::kBinary);
  EXPECT_EQ(ResolveWriterFormat("x.jsonl", CorpusFormat::kJson, false),
            CorpusFormat::kJson);
}

TEST(CorpusIoTest, ZeroShardsIsInvalidArgument) {
  CorpusWriteOptions options;
  options.shards = 0;
  const auto writer = OpenCorpusWriter(TempPath("coachlm_zero.json"), options);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument);
}

TEST(CorpusIoTest, SaveCorpusPreservesLegacyJsonBytes) {
  const InstructionDataset ds = MakeDataset(6);
  const std::string legacy = TempPath("coachlm_io_legacy.json");
  const std::string routed = TempPath("coachlm_io_routed.json");
  ASSERT_TRUE(ds.SaveJson(legacy).ok());
  ASSERT_TRUE(SaveCorpus(routed, ds).ok());
  EXPECT_EQ(Slurp(legacy), Slurp(routed));
  std::remove(legacy.c_str());
  std::remove(routed.c_str());
}

}  // namespace
}  // namespace coachlm
